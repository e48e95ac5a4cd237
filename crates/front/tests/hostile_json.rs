//! The payload decoder against input a hostile or broken peer sends: it
//! answers a typed `Malformed` for all of it, in time linear in the frame,
//! on a stack that does not grow with the frame.

use costream::graph::{GraphNode, JointGraph};
use costream_front::wire::{
    decode_request, decode_response, encode_request, FrameError, Request, RequestBody, WireLane,
};
use costream_front::Response;
use costream_query::features::NodeType;
use std::time::{Duration, Instant};

fn score_request() -> String {
    let graph = JointGraph {
        nodes: vec![
            GraphNode {
                node_type: NodeType::Filter,
                features: vec![0.25, 1.0],
            },
            GraphNode {
                node_type: NodeType::Host,
                features: vec![0.25, 2.0],
            },
        ],
        dataflow_edges: Vec::new(),
        placement_edges: vec![(0, 1)],
        waves: vec![Some(0), None],
    };
    let req = Request {
        id: 9,
        lane: WireLane::Bulk,
        deadline_us: None,
        body: RequestBody::Score { graph },
    };
    String::from_utf8(encode_request(&req)).expect("JSON is UTF-8")
}

fn malformed(result: Result<impl std::fmt::Debug, FrameError>) -> String {
    match result {
        Err(FrameError::Malformed(why)) => why,
        other => panic!("expected Malformed, got {other:?}"),
    }
}

fn error_detail(escaped: &str) -> Result<Response, FrameError> {
    decode_response(format!(r#"{{"Error":{{"id":null,"kind":"Internal","detail":"{escaped}"}}}}"#).as_bytes())
}

#[test]
fn nesting_beyond_the_limit_is_malformed_not_a_stack_overflow() {
    // A connection's reader thread has the default 2 MiB stack; so does
    // this one. 10 KB of `[` used to end the process from there.
    let reader = std::thread::spawn(|| {
        let why = malformed(decode_request(&vec![b'['; 10_000]));
        assert!(why.contains("nesting deeper than 128"), "{why}");
        malformed(decode_response(&vec![b'['; 10_000]));
        // The limit also holds where the typed reader skips what it does
        // not know: an unknown field's value.
        let deep = format!(r#"{{"id":1,"zz":{}0{},"#, "[".repeat(200), "]".repeat(200));
        malformed(decode_request(deep.as_bytes()));
    });
    reader.join().expect("the decoder returned");
}

#[test]
fn a_number_no_finite_f64_holds_is_malformed() {
    let text = score_request();
    assert!(decode_request(text.as_bytes()).is_ok());
    for huge in ["1e999", "-1e999", "1e400"] {
        let hostile = text.replacen("0.25", huge, 1);
        assert_ne!(hostile, text);
        let why = malformed(decode_request(hostile.as_bytes()));
        assert!(why.contains("number out of range"), "{why}");
    }
    // The largest finite values still pass, and `null` is still NaN.
    for fine in ["1.7976931348623157e308", "3.4028234663852886e38", "null"] {
        assert!(
            decode_request(text.replacen("0.25", fine, 1).as_bytes()).is_ok(),
            "{fine}"
        );
    }
}

#[test]
fn unicode_escapes_take_four_hex_digits_and_whole_surrogate_pairs() {
    let detail = |escaped: &str| match error_detail(escaped) {
        Ok(Response::Error { detail, .. }) => detail,
        other => panic!("expected an Error response, got {other:?}"),
    };
    let u = |hex: &str| format!("{}u{hex}", '\\');
    assert_eq!(detail(&u("0041")), "A");
    assert_eq!(detail(&format!("{}{}", u("d834"), u("dd1e"))), "\u{1d11e}");
    // `from_str_radix` takes a sign; JSON does not.
    malformed(error_detail(&u("+041")));
    malformed(error_detail(&u("-041")));
    malformed(error_detail(&u("00g1")));
    malformed(error_detail(&u("041")));
    // Half a pair, either half, used to become U+FFFD silently.
    malformed(error_detail(&u("d834")));
    malformed(error_detail(&u("dd1e")));
    malformed(error_detail(&format!("{}{}", u("d834"), u("0041"))));
    malformed(error_detail(&format!("{}x", u("d834"))));
}

#[test]
fn decoding_is_linear_in_the_frame() {
    // One 4 MiB string: the parser used to validate the rest of the payload
    // once per character (about 4.5 minutes for this frame). And 2 M array
    // elements, for the other shape a frame can be big in.
    const BOUND: Duration = Duration::from_secs(5);
    let string = format!("\"{}\"", "a".repeat(4 << 20));
    let zeros = format!("[{}0]", "0,".repeat((4 << 20) / 2));
    for (what, payload) in [("a 4 MiB string", string), ("a 4 MiB array", zeros)] {
        let t0 = Instant::now();
        malformed(decode_request(payload.as_bytes()));
        malformed(decode_response(payload.as_bytes()));
        assert!(t0.elapsed() < BOUND, "{what} took {:?} to reject", t0.elapsed());
    }
    // Rejected early is not the same as scanned: the same string where the
    // decoder has to read all of it, as the value of a field it skips...
    let skipped = format!(r#"{{"zz":"{}","id":1}}"#, "a".repeat(4 << 20));
    // ...and one it keeps.
    let kept = "x".repeat(4 << 20);
    let t0 = Instant::now();
    let why = malformed(decode_request(skipped.as_bytes()));
    assert!(why.contains("missing field"), "{why}");
    match error_detail(&kept) {
        Ok(Response::Error { detail, .. }) => assert_eq!(detail.len(), 4 << 20),
        other => panic!("expected an Error response, got {other:?}"),
    }
    assert!(t0.elapsed() < BOUND, "4 MiB strings took {:?} to read", t0.elapsed());
}
