//! The wire protocol: framing and message types.
//!
//! A frame is a 4-byte **big-endian** payload length followed by that
//! many bytes of JSON. The one decoder, [`FrameReader`], is total: any
//! byte stream yields a sequence of frames ending in clean EOF,
//! [`FrameError::Truncated`], [`FrameError::Oversized`], or an I/O error —
//! never a panic (pinned by the proptest suite, through readers that hand
//! out any number of bytes per call).
//!
//! Messages are externally-tagged JSON enums ([`Request`] /
//! [`Response`]). Scores are `f64` and the vendored `serde_json` prints
//! floats shortest-roundtrip, so a score crosses the wire **bitwise**
//! intact. A payload is encoded and decoded in one pass, with no value
//! tree in between; the decoder refuses (as [`FrameError::Malformed`])
//! nesting deeper than `serde::json::MAX_DEPTH`, numbers outside RFC 8259's
//! grammar (`+1`, `01`, `.5`), numbers outside `f64`'s finite range and
//! integers outside their field's type (a `slot` past `u32::MAX` is
//! refused, not wrapped), so neither its stack nor a graph's features nor
//! a slot can be driven out of bounds by a frame. `-0` reads back as
//! `-0.0`, so a feature's sign survives the trip too.
//!
//! Deadlines are *relative* microseconds from server receipt — a
//! deliberate protocol choice: absolute deadlines would require
//! client/server clock agreement, and QoS budgets ("answer within
//! 2 ms") are what callers actually mean.
//!
//! Request ids are client-chosen and echoed verbatim; the server
//! answers every decodable request exactly once, in submission order
//! per connection.

use costream::graph::JointGraph;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// Frame header width: a `u32` big-endian payload length.
pub const HEADER_BYTES: usize = 4;

/// Priority lane of a wire request (mirrors
/// [`costream_serve::Lane`] — redeclared here so the wire format is
/// self-contained).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireLane {
    /// Latency-sensitive traffic: drained strictly first.
    Interactive,
    /// Throughput traffic: absorbs queueing and shedding.
    Bulk,
}

impl From<WireLane> for costream_serve::Lane {
    fn from(lane: WireLane) -> Self {
        match lane {
            WireLane::Interactive => costream_serve::Lane::Interactive,
            WireLane::Bulk => costream_serve::Lane::Bulk,
        }
    }
}

/// One client request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Priority lane.
    pub lane: WireLane,
    /// Optional deadline, microseconds *from server receipt*. A request
    /// still queued past it is shed with a typed
    /// [`ErrorKind::DeadlineExceeded`] instead of being scored.
    pub deadline_us: Option<u64>,
    /// What to do.
    pub body: RequestBody,
}

/// The operation a [`Request`] asks for.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Score one inline joint graph.
    Score {
        /// The featurized joint graph to score.
        graph: JointGraph,
    },
    /// Upload graphs into this connection's slot pool (slots
    /// `base_slot..base_slot + graphs.len()`), so subsequent
    /// [`RequestBody::ScorePooled`] requests are a few dozen bytes
    /// instead of re-shipping the graph — the high-throughput path the
    /// load generator uses. Pools are per-connection and dropped on
    /// disconnect.
    LoadPool {
        /// First slot to fill.
        base_slot: u32,
        /// Graphs stored at consecutive slots.
        graphs: Vec<JointGraph>,
    },
    /// Score a previously uploaded pool slot.
    ScorePooled {
        /// Slot filled by an earlier [`RequestBody::LoadPool`].
        slot: u32,
    },
    /// Liveness/metadata probe.
    Ping,
}

/// One server response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A scored request.
    Scored {
        /// Echoed request id.
        id: u64,
        /// The ensemble prediction, bitwise as the model produced it.
        score: f64,
        /// Model version that scored this request.
        version: u64,
    },
    /// Pool slots stored.
    Loaded {
        /// Echoed request id.
        id: u64,
        /// Number of slots filled.
        count: u32,
    },
    /// Answer to [`RequestBody::Ping`].
    Pong {
        /// Echoed request id.
        id: u64,
        /// Current model version.
        version: u64,
        /// Number of scoring shards.
        shards: u32,
    },
    /// A typed failure.
    Error {
        /// Echoed request id; `None` when the payload was undecodable
        /// (there is no id to echo).
        id: Option<u64>,
        /// What went wrong.
        kind: ErrorKind,
        /// Human-readable context.
        detail: String,
    },
}

impl Response {
    /// The echoed request id, when the response carries one — how a
    /// pipelining client matches answers to requests (`tests/ordering.rs`).
    pub fn id(&self) -> Option<u64> {
        match self {
            Response::Scored { id, .. } | Response::Loaded { id, .. } | Response::Pong { id, .. } => Some(*id),
            Response::Error { id, .. } => *id,
        }
    }
}

/// Typed failure kinds of [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The lane's admission queue is full; back off and retry.
    Overloaded,
    /// The request's deadline passed while it was queued; it was shed
    /// without being scored.
    DeadlineExceeded,
    /// The front-end is draining or stopped.
    ShuttingDown,
    /// The frame payload was not a decodable [`Request`], or a graph it
    /// carries has a non-finite feature (`null` decodes to NaN, a number
    /// past `f32::MAX` to infinity). The framing itself was intact, so the
    /// connection keeps serving.
    BadRequest,
    /// The frame header declared a payload larger than the server
    /// accepts. The connection is closed after this response (the
    /// stream cannot be resynchronized without consuming the payload).
    Oversized,
    /// The request referenced something that does not exist (e.g. a
    /// pool slot never loaded on this connection).
    BadSlot,
    /// Scoring failed server-side (e.g. a malformed graph panicking the
    /// kernel); only this request is affected.
    Internal,
}

impl From<costream_serve::ServeError> for ErrorKind {
    fn from(e: costream_serve::ServeError) -> Self {
        match e {
            costream_serve::ServeError::Overloaded => ErrorKind::Overloaded,
            costream_serve::ServeError::DeadlineExceeded => ErrorKind::DeadlineExceeded,
            costream_serve::ServeError::ShutDown => ErrorKind::ShuttingDown,
            costream_serve::ServeError::Internal => ErrorKind::Internal,
        }
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended mid-header or mid-payload (mid-frame
    /// disconnect).
    Truncated,
    /// The header declared a payload longer than the configured maximum.
    Oversized {
        /// Length the header declared.
        declared: u32,
        /// Maximum the reader accepts.
        max: usize,
    },
    /// The payload was not valid UTF-8 JSON of the expected type.
    Malformed(String),
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} bytes, max is {max}")
            }
            FrameError::Malformed(e) => write!(f, "undecodable payload: {e}"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Size of a [`FrameReader`]'s buffer, and the amount of encoded responses
/// a connection's writer gathers before it writes regardless: room for a
/// pipeline's worth of ~1 KB inline-graph frames per `read`, or a few
/// hundred pooled ones.
pub const IO_BUF_BYTES: usize = 64 << 10;

/// The frame decoder: the server's connections and [`crate::FrontClient`]
/// read every frame through one. It frames off a stream through one
/// buffer: a `read` brings in whatever the peer has sent, up to
/// [`IO_BUF_BYTES`], so a frame's header and payload (and, from a
/// pipelining peer, the frames behind it) cost one system call instead of
/// two each. A frame larger than the buffer is read into storage of its
/// own.
pub struct FrameReader {
    buf: Box<[u8]>,
    /// `buf[start..end]` is read and not yet handed out.
    start: usize,
    end: usize,
    /// The payload of the last frame that did not fit `buf`.
    big: Vec<u8>,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader {
            buf: vec![0; IO_BUF_BYTES].into_boxed_slice(),
            start: 0,
            end: 0,
            big: Vec::new(),
        }
    }
}

impl FrameReader {
    /// Reads until `want` bytes are buffered, or EOF (then fewer are).
    fn fill(&mut self, r: &mut impl Read, want: usize) -> io::Result<()> {
        debug_assert!(want <= self.buf.len());
        if self.start + want > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        while self.end - self.start < want {
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => break,
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Whether bytes read off the stream wait past the last frame handed
    /// out: the head of a frame the peer has already sent.
    pub(crate) fn has_buffered(&self) -> bool {
        self.end > self.start
    }

    /// The next frame's payload, valid until the next call. `Ok(None)` is
    /// clean EOF at a frame boundary.
    ///
    /// # Errors
    /// [`FrameError::Truncated`] when the stream ends inside a frame;
    /// [`FrameError::Oversized`] when the header declares more than
    /// `max_payload` bytes, *without* consuming the payload (the header
    /// stays unconsumed too, so a retry fails the same way);
    /// [`FrameError::Io`] when the transport fails.
    pub fn next_frame(&mut self, r: &mut impl Read, max_payload: usize) -> Result<Option<&[u8]>, FrameError> {
        self.big = Vec::new();
        self.fill(r, HEADER_BYTES)?;
        let header = match self.end - self.start {
            0 => return Ok(None),
            n if n < HEADER_BYTES => return Err(FrameError::Truncated),
            _ => &self.buf[self.start..self.start + HEADER_BYTES],
        };
        let declared = u32::from_be_bytes(header.try_into().expect("a header is four bytes"));
        let len = declared as usize;
        if len > max_payload {
            return Err(FrameError::Oversized {
                declared,
                max: max_payload,
            });
        }
        if HEADER_BYTES + len <= self.buf.len() {
            self.fill(r, HEADER_BYTES + len)?;
            if self.end - self.start < HEADER_BYTES + len {
                return Err(FrameError::Truncated);
            }
            let payload = self.start + HEADER_BYTES;
            self.start = payload + len;
            return Ok(Some(&self.buf[payload..payload + len]));
        }
        // Larger than the buffer: what is buffered is the head of this
        // payload and nothing else; the rest comes straight off the stream.
        self.big.reserve_exact(len);
        self.big
            .extend_from_slice(&self.buf[self.start + HEADER_BYTES..self.end]);
        (self.start, self.end) = (0, 0);
        let head = self.big.len();
        self.big.resize(len, 0);
        r.read_exact(&mut self.big[head..]).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            _ => FrameError::Io(e),
        })?;
        Ok(Some(&self.big))
    }
}

fn frame_header(payload_len: usize) -> io::Result<[u8; HEADER_BYTES]> {
    u32::try_from(payload_len)
        .map(u32::to_be_bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32::MAX"))
}

/// Appends `msg` to `out` as one frame. `json` is scratch for the encoding,
/// so a connection that keeps both buffers allocates nothing per message.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] when the encoding exceeds `u32::MAX`
/// bytes (`out` is then unchanged).
pub(crate) fn append_frame(out: &mut Vec<u8>, json: &mut String, msg: &impl Serialize) -> io::Result<()> {
    json.clear();
    msg.write_json(json);
    out.extend_from_slice(&frame_header(json.len())?);
    out.extend_from_slice(json.as_bytes());
    Ok(())
}

/// Writes one frame (header + payload) as a single buffer.
///
/// # Errors
/// I/O errors from the transport; [`io::ErrorKind::InvalidInput`] when
/// the payload exceeds `u32::MAX` bytes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let header = frame_header(payload.len())?;
    // One buffer, one write: a frame must never be interleaved with
    // another thread's frame at the syscall boundary.
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len());
    buf.extend_from_slice(&header);
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Encodes a request payload (JSON, unframed).
pub fn encode_request(req: &Request) -> Vec<u8> {
    serde_json::to_string(req)
        .expect("wire types always serialize")
        .into_bytes()
}

/// Encodes a response payload (JSON, unframed).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    serde_json::to_string(resp)
        .expect("wire types always serialize")
        .into_bytes()
}

/// Decodes a request payload.
///
/// # Errors
/// [`FrameError::Malformed`] when the bytes are not a [`Request`].
pub fn decode_request(payload: &[u8]) -> Result<Request, FrameError> {
    decode(payload)
}

/// Decodes a response payload.
///
/// # Errors
/// [`FrameError::Malformed`] when the bytes are not a [`Response`].
pub fn decode_response(payload: &[u8]) -> Result<Response, FrameError> {
    decode(payload)
}

fn decode<T: serde::Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    let text = std::str::from_utf8(payload).map_err(|e| FrameError::Malformed(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| FrameError::Malformed(e.to_string()))
}
