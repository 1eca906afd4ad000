//! Property tests for the `locapd` wire protocol: **no byte sequence
//! panics the parser**. Arbitrary byte soup, adversarial near-JSON, and
//! randomly truncated valid requests must all come back as either a
//! parsed request or a *typed* protocol error — and the framing layer
//! must never panic or lose data around them.

use locap_obs::json::Json;
use locap_serve::protocol::{
    err_response, parse_request, Frame, FrameError, FrameReader, ProtocolError, Request,
};
use proptest::prelude::*;

/// Every error kind the parser may produce, per the protocol doc.
const TYPED_KINDS: &[&str] = &[
    "protocol/bad_json",
    "protocol/not_an_object",
    "protocol/missing_id",
    "protocol/bad_id",
    "protocol/missing_pipeline",
    "protocol/unknown_op",
    "protocol/bad_budget",
    "request/unknown_pipeline",
    "request/missing_param",
    "request/bad_param",
];

fn assert_typed(e: &ProtocolError) -> Result<(), TestCaseError> {
    let kind = e.kind();
    prop_assert!(TYPED_KINDS.contains(&kind.as_str()), "undocumented error kind {kind:?} for {e}");
    // The error must render and build a well-formed single-line response.
    let resp = err_response(&Json::Null, &kind, &e.to_string());
    let line = resp.to_string();
    prop_assert!(!line.contains('\n'), "response must stay one line: {line}");
    let echoed = Json::parse(&line).map_err(|err| {
        TestCaseError::fail(format!("response does not re-parse ({err}): {line}"))
    })?;
    prop_assert_eq!(
        echoed.get("error").and_then(|er| er.get("kind")).and_then(Json::as_str),
        Some(kind.as_str())
    );
    Ok(())
}

/// Tokens that assemble into *almost*-valid requests: every structural
/// character, the real field names, and values of the wrong type.
const NEAR_JSON: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    " ",
    "null",
    "true",
    "7",
    "-0.5",
    "1e309",
    "\"id\"",
    "\"pipeline\"",
    "\"params\"",
    "\"budget\"",
    "\"op\"",
    "\"census\"",
    "\"eds-lower\"",
    "\"deadline_ms\"",
    "\"n\"",
    "\"ping\"",
    "\u{1}",
    "é",
    "𝛿",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_soup_never_panics_the_parser(bytes in prop::collection::vec(any::<u8>(), 0usize..256)) {
        match parse_request(&bytes) {
            Ok(_) => {}
            Err(e) => assert_typed(&e)?,
        }
    }

    #[test]
    fn near_json_never_panics_the_parser(
        picks in prop::collection::vec(0usize..NEAR_JSON.len(), 0usize..24),
    ) {
        let frame: String = picks.iter().map(|&i| NEAR_JSON[i]).collect();
        match parse_request(frame.as_bytes()) {
            Ok(_) => {}
            Err(e) => assert_typed(&e)?,
        }
    }

    /// Any prefix of a valid request is still answered in kind: either
    /// it happens to parse, or it yields a typed error.
    #[test]
    fn truncated_valid_requests_stay_typed(cut in 0usize..98) {
        let valid =
            r#"{"id":7,"pipeline":"census","params":{"family":"directed-cycle","n":12},"budget":{"max_rounds":3}}"#;
        let cut = cut.min(valid.len());
        match parse_request(&valid.as_bytes()[..cut]) {
            Ok(_) => prop_assert_eq!(cut, valid.len(), "only the full frame may parse"),
            Err(e) => assert_typed(&e)?,
        }
    }

    /// The framing layer never panics, terminates on every input, and
    /// partitions the stream: every returned line is newline-free and
    /// within the cap.
    #[test]
    fn framing_terminates_and_respects_the_cap(
        bytes in prop::collection::vec(any::<u8>(), 0usize..512),
        cap in 1usize..64,
    ) {
        let mut reader = FrameReader::new(std::io::Cursor::new(bytes.clone()), cap);
        let mut yielded = 0usize;
        loop {
            match reader.next_frame() {
                Ok(Frame::Line(line)) => {
                    prop_assert!(line.len() <= cap, "line of {} bytes beat the {cap} cap", line.len());
                    prop_assert!(!line.contains(&b'\n'));
                    yielded += line.len() + 1;
                }
                Ok(Frame::Eof) => break,
                Err(FrameError::TooLarge { limit }) => prop_assert_eq!(limit, cap),
                Err(FrameError::Unterminated) => break,
                Err(FrameError::Io(e)) => {
                    return Err(TestCaseError::fail(format!("cursor reads cannot fail: {e}")));
                }
            }
            prop_assert!(yielded <= bytes.len() + 1, "framing yielded more bytes than it read");
        }
    }

    /// A full valid request surrounded by garbage frames still parses
    /// once framing has resynchronised.
    #[test]
    fn valid_frame_after_garbage_still_parses(
        garbage in prop::collection::vec(any::<u8>(), 0usize..128),
    ) {
        let valid = br#"{"op":"ping","id":1}"#;
        let mut stream: Vec<u8> = garbage.iter().copied().filter(|&b| b != b'\n').collect();
        stream.push(b'\n');
        stream.extend_from_slice(valid);
        stream.push(b'\n');
        let mut reader = FrameReader::new(std::io::Cursor::new(stream), 4096);
        // first frame: the garbage line (possibly empty) — any typed outcome
        match reader.next_frame() {
            Ok(Frame::Line(_)) | Err(FrameError::TooLarge { .. }) => {}
            other => return Err(TestCaseError::fail(format!("unexpected framing outcome: {other:?}"))),
        }
        let frame = match reader.next_frame() {
            Ok(Frame::Line(line)) => line,
            other => return Err(TestCaseError::fail(format!("lost the valid frame: {other:?}"))),
        };
        match parse_request(&frame) {
            Ok(Request::Ping { id }) => prop_assert_eq!(id, Json::Num(1.0)),
            other => return Err(TestCaseError::fail(format!("ping did not survive: {other:?}"))),
        }
    }
}
