//! Adversarial-bytes coverage for the hand-rolled HTTP parser.
//!
//! Two layers: a proptest corpus hammering the pure [`parse_head`] with
//! arbitrary byte soup (no input may panic; structured inputs must map to
//! the right typed error), and socket-level attacks against a live server
//! (split CRLF delivery, duplicate/oversized `Content-Length`, non-UTF8
//! headers, pipelined garbage) asserting the exact 4xx answer.

use convmeter_serve::http::{self, parse_head, HttpError, MAX_BODY_BYTES};
use convmeter_serve::server::{Server, ServerConfig};
use convmeter_serve::state::{ServeConfig, ServeState};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_head_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0usize..256, 0..512),
    ) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        // Whatever arrives, the parser returns — Ok or typed Err, and
        // every error maps to a 4xx the server can answer with.
        if let Err(e) = parse_head(&raw) {
            let status = http::status_for_error(&e);
            prop_assert!((400..500).contains(&status), "{e} -> {status}");
        }
    }

    #[test]
    fn wellformed_heads_roundtrip_content_length(
        length in 0usize..=MAX_BODY_BYTES,
    ) {
        let raw = format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        );
        let head = parse_head(raw.as_bytes()).expect("valid head parses");
        prop_assert_eq!(head.method.as_str(), "POST");
        prop_assert_eq!(head.path.as_str(), "/predict");
        prop_assert_eq!(head.content_length, length);
    }

    #[test]
    fn oversized_content_length_is_too_large(
        excess in 1usize..1_000_000,
    ) {
        let raw = format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + excess
        );
        let err = parse_head(raw.as_bytes()).expect_err("must reject");
        prop_assert!(matches!(err, HttpError::TooLarge(_)), "{err}");
        prop_assert_eq!(http::status_for_error(&err), 413);
    }

    #[test]
    fn duplicate_content_length_is_always_rejected(
        first in 0usize..10_000,
        second in 0usize..10_000,
    ) {
        // Request smuggling vector: two Content-Length headers, equal or
        // not, must be refused rather than trusting either.
        let raw = format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {first}\r\nContent-Length: {second}\r\n\r\n"
        );
        let err = parse_head(raw.as_bytes()).expect_err("must reject");
        prop_assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        prop_assert_eq!(http::status_for_error(&err), 400);
    }

    #[test]
    fn non_digit_content_length_is_rejected(
        length in 0usize..10_000,
        which in 0usize..6,
    ) {
        // RFC 9110 §8.6: the value is `1*DIGIT`; a sign, a radix prefix or
        // a non-ASCII digit is not a length, whatever number follows.
        let prefix = ["+", "-", "0x", "+0", "0b", "\u{b3}"][which];
        let raw = format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {prefix}{length}\r\n\r\n"
        );
        let err = parse_head(raw.as_bytes()).expect_err("must reject");
        prop_assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        prop_assert_eq!(http::status_for_error(&err), 400);
    }

    #[test]
    fn garbage_printable_request_lines_never_panic(
        bytes in prop::collection::vec(0x20usize..0x7F, 0..80),
    ) {
        let line: String = bytes.iter().map(|&b| b as u8 as char).collect();
        let raw = format!("{line}\r\n\r\n");
        let _ = parse_head(raw.as_bytes());
    }
}

#[test]
fn every_prefix_of_a_valid_head_is_handled() {
    // Truncation at any byte — including mid-CRLF — must yield Ok or a
    // typed error, never a panic.
    let head = b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\nHost: x\r\n\r\n";
    for cut in 0..=head.len() {
        let _ = parse_head(&head[..cut]);
    }
    let parsed = parse_head(head).expect("complete head parses");
    assert_eq!(parsed.method, "POST");
    assert_eq!(parsed.content_length, 2);
}

fn ephemeral() -> Server {
    let state = Arc::new(ServeState::new(&ServeConfig::default()));
    Server::start(
        state,
        &ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// Write raw bytes (in fragments, with pauses) and return the full
/// response text.
fn raw_exchange(addr: SocketAddr, fragments: &[&[u8]], pause: Duration) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    for fragment in fragments {
        stream.write_all(fragment).expect("write");
        stream.flush().expect("flush");
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .expect("timeout");
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    String::from_utf8_lossy(&raw).into_owned()
}

fn status_of(response: &str) -> u16 {
    response
        .lines()
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[test]
fn server_reassembles_dripped_head_fragments() {
    let server = ephemeral();
    let response = raw_exchange(
        server.addr(),
        &[b"GET /hea", b"lthz HT", b"TP/1.1\r", b"\n\r\n"],
        Duration::from_millis(20),
    );
    assert_eq!(status_of(&response), 200, "{response}");
}

#[test]
fn server_answers_400_to_duplicate_content_length() {
    let server = ephemeral();
    let response = raw_exchange(
        server.addr(),
        &[b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}"],
        Duration::ZERO,
    );
    assert_eq!(status_of(&response), 400, "{response}");
    assert!(response.contains("duplicate content-length"), "{response}");
}

#[test]
fn server_answers_400_to_signed_and_hex_content_length() {
    for length in ["+12", "0x10"] {
        let server = ephemeral();
        let payload = format!("POST /predict HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}");
        let response = raw_exchange(server.addr(), &[payload.as_bytes()], Duration::ZERO);
        assert_eq!(status_of(&response), 400, "{length}: {response}");
        assert!(
            response.contains("bad content-length"),
            "{length}: {response}"
        );
    }
}

#[test]
fn server_answers_400_to_non_utf8_headers() {
    let server = ephemeral();
    let response = raw_exchange(
        server.addr(),
        &[b"GET /healthz HTTP/1.1\r\nX-Junk: \xFF\xFE\xFD\r\n\r\n"],
        Duration::ZERO,
    );
    assert_eq!(status_of(&response), 400, "{response}");
}

#[test]
fn server_answers_413_to_oversized_content_length() {
    let server = ephemeral();
    let payload = format!(
        "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    let response = raw_exchange(server.addr(), &[payload.as_bytes()], Duration::ZERO);
    assert_eq!(status_of(&response), 413, "{response}");
}

#[test]
fn pipelined_garbage_gets_one_answer_then_close() {
    // Two messages in one write: the service speaks Connection: close, so
    // the first is answered and the connection ends — the trailing bytes
    // are never interpreted as a second request.
    let server = ephemeral();
    let response = raw_exchange(
        server.addr(),
        &[b"GET /healthz HTTP/1.1\r\n\r\nGET /also-garbage HTTP/9.9\r\n\r\n"],
        Duration::ZERO,
    );
    assert_eq!(status_of(&response), 200, "{response}");
    assert_eq!(
        response.matches("HTTP/1.1").count(),
        1,
        "exactly one response on the wire: {response}"
    );
}

#[test]
fn binary_garbage_maps_to_400() {
    let server = ephemeral();
    let response = raw_exchange(
        server.addr(),
        &[b"\x00\x01\x02garbage\r\n\r\n"],
        Duration::ZERO,
    );
    assert_eq!(status_of(&response), 400, "{response}");
}

#[test]
fn deeply_nested_body_is_answered_400_and_the_server_lives_on() {
    // 10 000 nested arrays are 20 kB, far under the body limit. An
    // unbounded recursive parse overflows the worker's stack and aborts
    // the whole process; the capped parse rejects the body at the
    // 129th opener, byte 137.
    let server = ephemeral();
    let body = format!(
        "{{\"graph\": {}{}}}",
        "[".repeat(10_000),
        "]".repeat(10_000)
    );
    let payload = format!(
        "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let response = raw_exchange(server.addr(), &[payload.as_bytes()], Duration::ZERO);
    assert_eq!(status_of(&response), 400, "{response}");
    assert!(
        response.contains("invalid JSON: recursion limit exceeded at byte 137"),
        "{response}"
    );
    let health = raw_exchange(
        server.addr(),
        &[b"GET /healthz HTTP/1.1\r\n\r\n"],
        Duration::ZERO,
    );
    assert_eq!(status_of(&health), 200, "{health}");
}
