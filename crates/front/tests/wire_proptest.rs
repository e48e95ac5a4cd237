//! Property tests for the wire protocol, read through [`FrameReader`], the
//! one frame decoder (the server's connections and `FrontClient` read
//! every frame through it).
//!
//! * The frame decoder is total: arbitrary byte streams never panic it.
//! * Encode → frame → decode round-trips every request/response type,
//!   bitwise for `f64` scores, through a `Read` that hands out 1..=k bytes
//!   per call.
//! * Long runs of pipelined small frames (which force the buffer to
//!   compact), frames that straddle the end of the buffer and frames
//!   larger than it all come back byte for byte.
//! * Truncated and oversized frames yield the typed errors the protocol
//!   promises; a stream cut anywhere inside a frame is `Truncated`, and an
//!   oversized header leaves its payload unread.

use costream::graph::{GraphNode, JointGraph};
use costream_front::wire::{
    self, decode_request, decode_response, encode_request, encode_response, ErrorKind, FrameError, FrameReader,
    Request, RequestBody, Response, WireLane, HEADER_BYTES, IO_BUF_BYTES,
};
use costream_query::features::NodeType;
use proptest::prelude::*;
use std::io::{self, Read};

const MAX: usize = 1 << 20;

/// A `Read` over `bytes` that hands out between 1 and `k` bytes per call,
/// as a socket may, and counts what it has handed out.
struct Trickle<'a> {
    bytes: &'a [u8],
    k: usize,
    /// xorshift64 state: draws each call's byte count.
    state: u64,
    pulled: usize,
}

impl<'a> Trickle<'a> {
    fn new(bytes: &'a [u8], k: usize, seed: u64) -> Self {
        Trickle {
            bytes,
            k,
            state: seed | 1,
            pulled: 0,
        }
    }
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let rest = &self.bytes[self.pulled..];
        let n = (1 + self.state as usize % self.k).min(buf.len()).min(rest.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.pulled += n;
        Ok(n)
    }
}

/// Every frame of `stream`, read through one [`FrameReader`] from a
/// [`Trickle`], up to clean EOF or the first error.
fn read_frames(stream: &[u8], k: usize, seed: u64) -> Result<Vec<Vec<u8>>, FrameError> {
    let mut r = Trickle::new(stream, k, seed);
    let mut frames = FrameReader::default();
    let mut payloads = Vec::new();
    while let Some(payload) = frames.next_frame(&mut r, MAX)? {
        payloads.push(payload.to_vec());
    }
    Ok(payloads)
}

/// Drains a byte stream through the frame reader until EOF or the first
/// error. Returning at all (instead of panicking) is the property.
fn drain_frames(bytes: &[u8], k: usize, seed: u64) -> Result<usize, FrameError> {
    let payloads = read_frames(bytes, k, seed)?;
    for payload in &payloads {
        // Decoding arbitrary payloads must not panic either.
        let _ = decode_request(payload);
        let _ = decode_response(payload);
    }
    Ok(payloads.len())
}

/// The payloads framed back to back, as a pipelining peer sends them.
fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut stream = Vec::new();
    for p in payloads {
        wire::write_frame(&mut stream, p).expect("in-memory write");
    }
    stream
}

/// `len` bytes that differ from frame to frame (`tag`) and from byte to
/// byte, so a payload read from the wrong offset does not compare equal.
fn payload(len: usize, tag: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|i| ((i.wrapping_mul(0x9e37_79b9) ^ tag.wrapping_mul(0x85eb_ca6b)) >> 5) as u8)
        .collect()
}

/// A deterministic small graph parameterized by the drawn values, so
/// round-trips cover variable node counts, features, and edges.
fn graph(nodes: usize, feat: f64) -> JointGraph {
    let nodes = nodes.max(2);
    JointGraph {
        nodes: (0..nodes)
            .map(|i| GraphNode {
                node_type: if i % 2 == 0 { NodeType::Filter } else { NodeType::Host },
                // Non-integral, integral and negative-zero features: each
                // takes its own printer and scanner path.
                features: vec![feat as f32, i as f32, 0.5, -0.0, feat.trunc() as f32],
            })
            .collect(),
        dataflow_edges: (1..nodes).map(|i| (i - 1, i)).collect(),
        placement_edges: vec![(0, nodes - 1)],
        waves: (0..nodes)
            .map(|i| if i % 2 == 0 { Some(i / 2) } else { None })
            .collect(),
    }
}

/// Every feature of a request's graphs, as bits: `PartialEq` on `f32`
/// takes `-0.0` for `0.0`.
fn feature_bits(req: &Request) -> Vec<u32> {
    let graphs = match &req.body {
        RequestBody::Score { graph } => std::slice::from_ref(graph),
        RequestBody::LoadPool { graphs, .. } => graphs.as_slice(),
        _ => &[],
    };
    graphs
        .iter()
        .flat_map(|g| &g.nodes)
        .flat_map(|n| n.features.iter().map(|f| f.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(0u8..=255, 0..256), k in 1usize..=16, seed in 0u64..u64::MAX) {
        // Raw noise...
        let _ = drain_frames(&bytes, k, seed);
        // ...and noise that starts with a plausible small header, so the
        // payload path is exercised too.
        let mut framed = (bytes.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(&bytes);
        let _ = drain_frames(&framed, k, seed);
        prop_assert!(true);
    }

    #[test]
    fn requests_roundtrip_bitwise(id in 0u64..u64::MAX, slot in 0u32..1000, deadline in 0u64..10_000_000, nodes in 2usize..12, feat in -1.0e12f64..1.0e12, k in 1usize..=64) {
        let lane = if id % 2 == 0 { WireLane::Interactive } else { WireLane::Bulk };
        let deadline_us = if deadline % 3 == 0 { None } else { Some(deadline) };
        let requests = [
            Request { id, lane, deadline_us, body: RequestBody::Ping },
            Request { id, lane, deadline_us, body: RequestBody::ScorePooled { slot } },
            Request { id, lane, deadline_us, body: RequestBody::Score { graph: graph(nodes, feat) } },
            Request { id, lane, deadline_us, body: RequestBody::LoadPool { base_slot: slot, graphs: vec![graph(nodes, feat), graph(nodes + 1, -feat)] } },
        ];
        let stream = framed(&requests.iter().map(encode_request).collect::<Vec<_>>());
        let payloads = read_frames(&stream, k, id).expect("valid frames");
        prop_assert_eq!(payloads.len(), requests.len());
        for (payload, req) in payloads.iter().zip(&requests) {
            let back = decode_request(payload).expect("roundtrip decodes");
            prop_assert_eq!(&back, req);
            prop_assert_eq!(feature_bits(&back), feature_bits(req));
        }
    }

    #[test]
    fn responses_roundtrip_bitwise(id in 0u64..u64::MAX, score in -1.0e300f64..1.0e300, version in 1u64..1000, k in 1usize..=64) {
        let responses = [
            Response::Scored { id, score, version },
            Response::Loaded { id, count: (version % 97) as u32 },
            Response::Pong { id, version, shards: 4 },
            Response::Error { id: Some(id), kind: ErrorKind::Overloaded, detail: "queue full".into() },
            Response::Error { id: None, kind: ErrorKind::BadRequest, detail: String::new() },
        ];
        let stream = framed(&responses.iter().map(encode_response).collect::<Vec<_>>());
        let payloads = read_frames(&stream, k, id).expect("valid frames");
        prop_assert_eq!(payloads.len(), responses.len());
        for (payload, resp) in payloads.iter().zip(&responses) {
            let back = decode_response(payload).expect("roundtrip decodes");
            prop_assert_eq!(&back, resp);
            if let (Response::Scored { score: a, .. }, Response::Scored { score: b, .. }) = (resp, &back) {
                // Bitwise, not approximately: the serving goldens compare
                // wire scores with `==` against in-process prediction.
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn truncated_frames_yield_typed_errors(cut in 0usize..64, id in 0u64..1000, k in 1usize..=16) {
        let req = Request { id, lane: WireLane::Bulk, deadline_us: Some(5), body: RequestBody::Ping };
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &encode_request(&req)).expect("in-memory write");
        let cut = cut % framed.len();
        let result = drain_frames(&framed[..cut], k, id);
        if cut == 0 {
            prop_assert_eq!(result.expect("empty stream is clean EOF"), 0);
        } else {
            prop_assert!(matches!(result, Err(FrameError::Truncated)), "cut at {} gave {:?}", cut, result);
        }
    }

    #[test]
    fn oversized_headers_yield_typed_errors(extra in 1u64..u32::MAX as u64, k in 1usize..=16, seed in 0u64..u64::MAX) {
        let declared = (MAX as u64 + extra).min(u32::MAX as u64) as u32;
        let framed = declared.to_be_bytes();
        let result = drain_frames(&framed, k, seed);
        prop_assert!(
            matches!(result, Err(FrameError::Oversized { declared: d, .. }) if d == declared),
            "declared {} gave {:?}", declared, result
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Runs of small frames several buffers long: the reader reaches the
    /// end of its buffer again and again with part of a frame read, and
    /// must move that part to the front without losing or repeating a byte.
    #[test]
    fn pipelined_small_frames_survive_buffer_compaction(buffers in 2usize..=4, max_len in 1usize..=160, k_log in 0u32..=17, seed in 0u64..u64::MAX) {
        let (mut payloads, mut bytes, mut lcg) = (Vec::new(), 0, seed);
        while bytes <= buffers * IO_BUF_BYTES {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let len = (lcg >> 33) as usize % (max_len + 1);
            bytes += HEADER_BYTES + len;
            payloads.push(payload(len, payloads.len() as u64));
        }
        let back = read_frames(&framed(&payloads), 1 << k_log, seed).expect("valid frames");
        prop_assert_eq!(back.len(), payloads.len());
        for (i, (b, p)) in back.iter().zip(&payloads).enumerate() {
            prop_assert!(b == p, "frame {} of {} came back different", i, payloads.len());
        }
    }

    /// A frame whose header or payload crosses the end of the buffer, one
    /// that exactly fits it or just does not, and one up to twice its size,
    /// each between small frames.
    #[test]
    fn frames_straddling_and_exceeding_the_buffer_roundtrip(back in 0usize..=16, len in 0usize..=32, fit in 0usize..=8, over in 0usize..=IO_BUF_BYTES, k_log in 0u32..=17, seed in 0u64..u64::MAX) {
        let payloads = vec![
            // Puts the next header `back` bytes before the buffer's end.
            payload(IO_BUF_BYTES - HEADER_BYTES - back, 0),
            payload(len, 1),
            // `IO_BUF_BYTES - HEADER_BYTES` is the largest frame the
            // buffer holds: `fit` 4 fits exactly, 5 and up do not.
            payload(IO_BUF_BYTES - HEADER_BYTES - 4 + fit, 2),
            payload(len, 3),
            payload(IO_BUF_BYTES + over, 4),
            payload(IO_BUF_BYTES + over, 5),
            payload(len, 6),
        ];
        let back = read_frames(&framed(&payloads), 1 << k_log, seed).expect("valid frames");
        prop_assert_eq!(back.len(), payloads.len());
        for (i, (b, p)) in back.iter().zip(&payloads).enumerate() {
            prop_assert!(b == p, "frame {} ({} bytes) came back different", i, p.len());
        }
    }

    /// Cut anywhere, a stream of small and large frames is the frames
    /// before the cut, then `Truncated` — or clean EOF where the cut falls
    /// between two frames.
    #[test]
    fn a_stream_cut_anywhere_is_truncated(len in 0usize..=64, over in 0usize..=IO_BUF_BYTES, cut in 0usize..=usize::MAX, k_log in 0u32..=17, seed in 0u64..u64::MAX) {
        let payloads = vec![payload(len, 0), payload(IO_BUF_BYTES + over, 1), payload(len, 2), payload(IO_BUF_BYTES / 2, 3)];
        let stream = framed(&payloads);
        let cut = cut % (stream.len() + 1);
        let ends: Vec<usize> = payloads
            .iter()
            .scan(0, |end, p| {
                *end += HEADER_BYTES + p.len();
                Some(*end)
            })
            .collect();
        let whole = ends.iter().take_while(|&&end| end <= cut).count();
        match read_frames(&stream[..cut], 1 << k_log, seed) {
            Ok(back) => {
                prop_assert!(cut == 0 || ends.contains(&cut), "cut at {} inside a frame read as clean EOF", cut);
                prop_assert_eq!(back.len(), whole);
                prop_assert!(back.iter().zip(&payloads).all(|(b, p)| b == p), "cut at {}: a frame came back different", cut);
            }
            Err(FrameError::Truncated) => {
                prop_assert!(cut != 0 && !ends.contains(&cut), "cut at {} between frames read as Truncated", cut);
            }
            Err(e) => prop_assert!(false, "cut at {} gave {:?}", cut, e),
        }
    }

    /// An oversized header fails without its payload being read: the reader
    /// reads no further than the read that completed the header, and asked
    /// again it reports the same header without reading at all.
    #[test]
    fn an_oversized_header_leaves_its_payload_unread(max in 0usize..=2 * IO_BUF_BYTES, extra in 1usize..=IO_BUF_BYTES, k_log in 0u32..=17, seed in 0u64..u64::MAX) {
        let k = 1 << k_log;
        let declared = max + extra;
        let stream = framed(&[payload(declared, 0)]);
        let mut r = Trickle::new(&stream, k, seed);
        let mut frames = FrameReader::default();
        let mut pulled = Vec::new();
        for attempt in 0..2 {
            let result = frames.next_frame(&mut r, max);
            prop_assert!(
                matches!(result, Err(FrameError::Oversized { declared: d, max: m }) if d as usize == declared && m == max),
                "attempt {}: declared {} over max {} gave {:?}", attempt, declared, max, result
            );
            pulled.push(r.pulled);
        }
        prop_assert!(pulled[0] < HEADER_BYTES + k, "read {} bytes for a {}-byte header", pulled[0], HEADER_BYTES);
        prop_assert_eq!(pulled[1], pulled[0], "the second attempt read more");
    }
}
