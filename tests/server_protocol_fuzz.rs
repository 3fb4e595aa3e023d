//! Fuzz-style robustness tests for the `dc-server` wire protocol, in
//! the same idiom as `tests/schema_fuzz.rs`: adversarial input must
//! come back as a structured error response — never a panic, never a
//! hang, and never a dropped connection.
//!
//! One shared in-process daemon serves every case (the fuzz traffic and
//! the concurrent test threads exercise exactly the concurrent-client
//! path the daemon runs in production). Every fuzz connection carries a
//! read timeout, so a protocol hang fails the test instead of wedging
//! the suite.

use dc_server::client::Client;
use dc_server::protocol::{self, MAX_LINE_BYTES};
use dc_server::{Server, ServerConfig};
use proptest::prelude::*;
use std::net::TcpListener;
use std::sync::OnceLock;
use std::time::Duration;

fn daemon_addr() -> std::net::SocketAddr {
    static DAEMON: OnceLock<std::net::SocketAddr> = OnceLock::new();
    *DAEMON.get_or_init(|| {
        let server = Server::start(ServerConfig {
            workers: 2,
            queue_cap: 64,
            recorder: dc_obs::Recorder::disabled(),
            ..ServerConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("bound");
        std::thread::spawn(move || server.serve_listener(&listener));
        addr
    })
}

/// A connection to the shared daemon whose reads time out, so a
/// protocol hang fails the test instead of wedging the suite.
fn connect() -> Client {
    let conn = Client::connect(daemon_addr(), "fz").expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    conn
}

/// One response line; a read timeout (the daemon hung) or EOF (the
/// daemon dropped us) both fail the test.
fn recv(conn: &mut Client) -> String {
    conn.recv_line()
        .expect("response before timeout (daemon must not hang)")
}

/// The connection still works: an unknown-job probe comes back as the
/// documented structured error.
fn assert_alive(conn: &mut Client, probe_id: &str) {
    conn.send_line(&format!(
        "{{\"id\":\"{probe_id}\",\"verb\":\"status\",\"job\":\"job-none\"}}"
    ))
    .expect("send");
    let response = recv(conn);
    assert!(
        response.contains("\"unknown_job\""),
        "probe after abuse: {response}"
    );
}

/// Every response is a JSON object with an "ok" field — the envelope
/// contract even for garbage input.
fn assert_response_envelope(response: &str) {
    assert!(
        response.starts_with("{\"id\":") && response.contains("\"ok\":"),
        "malformed response envelope: {response}"
    );
}

proptest! {
    /// The request parser is total over arbitrary strings: every input
    /// parses or errors, never panics. (Pure-function layer, no server.)
    #[test]
    fn parse_request_is_total(bytes in collection::vec(0u16..256, 0..300)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        match protocol::parse_request(&text) {
            Ok(req) => { let _ = req.verb(); }
            Err((id, err)) => {
                // Error rendering is total too.
                let _ = protocol::error_response(id.as_ref(), &err);
            }
        }
    }

    /// Arbitrary byte soup on the wire: one line in, one structured
    /// response out, and the connection keeps serving afterwards.
    #[test]
    fn arbitrary_lines_get_structured_errors(bytes in collection::vec(0u16..256, 0..200)) {
        let mut line: Vec<u8> = bytes
            .into_iter()
            .map(|b| b as u8)
            .filter(|&b| b != b'\n' && b != b'\r')
            .collect();
        line.push(b'\n');
        let mut conn = connect();
        conn.send_raw(&line).expect("send");
        assert_response_envelope(&recv(&mut conn));
        assert_alive(&mut conn, "alive-arb");
    }

    /// JSON-shaped garbage — punctuation soups that walk deepest into
    /// the parser — same contract.
    #[test]
    fn json_shaped_garbage_gets_structured_errors(text in r#"[{}:,"0-9a-z. -]{0,150}"#) {
        let mut conn = connect();
        conn.send_raw(format!("{text}\n").as_bytes()).expect("send");
        assert_response_envelope(&recv(&mut conn));
        assert_alive(&mut conn, "alive-json");
    }

    /// Every proper prefix of a valid request line is answered with an
    /// error response (no prefix is a complete JSON object), and the
    /// connection survives.
    #[test]
    fn truncated_frames_are_errors(cut_permille in 0u64..1000) {
        let full = r#"{"id":"t1","verb":"submit","job":{"entries":["Sort"],"seed":701}}"#;
        // permille < 1000, so cut is always a proper prefix length.
        let cut = (cut_permille as usize * full.len()) / 1000;
        let mut conn = connect();
        conn.send_raw(format!("{}\n", &full[..cut]).as_bytes()).expect("send");
        let response = recv(&mut conn);
        assert_response_envelope(&response);
        prop_assert!(
            response.contains("\"ok\":false"),
            "prefix of length {cut} was accepted: {response}"
        );
        assert_alive(&mut conn, "alive-trunc");
    }

    /// A request split into two half-writes with a pause between them
    /// is reassembled into one well-formed response: framing is by
    /// newline, not by write boundary.
    #[test]
    fn interleaved_half_requests_reassemble(split_permille in 1u64..999) {
        let full = "{\"id\":\"h1\",\"verb\":\"status\",\"job\":\"job-none\"}\n";
        let split = 1 + (split_permille as usize * (full.len() - 2)) / 1000;
        let mut conn = connect();
        conn.send_raw(&full.as_bytes()[..split]).expect("send");
        std::thread::sleep(Duration::from_millis(2));
        conn.send_raw(&full.as_bytes()[split..]).expect("send");
        let response = recv(&mut conn);
        prop_assert!(
            response.contains("\"unknown_job\""),
            "reassembled request mishandled: {response}"
        );
    }

    /// Reusing a request id after a success is a `duplicate_id` error;
    /// the original job is unaffected and the connection keeps serving.
    #[test]
    fn duplicate_ids_are_rejected(id in "[a-z0-9]{1,12}") {
        let submit = format!(
            "{{\"id\":\"dup-{id}\",\"verb\":\"submit\",\"job\":{{\"entries\":[\"Sort\"],\"seed\":702}}}}\n"
        );
        let mut conn = connect();
        conn.send_raw(submit.as_bytes()).expect("send");
        let first = recv(&mut conn);
        prop_assert!(first.contains("\"ok\":true"), "first submit: {first}");
        conn.send_raw(submit.as_bytes()).expect("send");
        let second = recv(&mut conn);
        prop_assert!(
            second.contains("\"duplicate_id\""),
            "second submit with the same id: {second}"
        );
        assert_alive(&mut conn, "alive-dup");
    }

    /// Subset-shaped garbage: a `subset` verb whose `k`/`linkage`/
    /// `window`/`seed` fields are arbitrary JSON scalars either
    /// validates (and computes nothing unsafe) or comes back as a
    /// structured `bad_request` — never a panic, never a dropped
    /// connection. Values are drawn adversarially around the valid
    /// ranges (0, fractions, negatives, huge, wrong types).
    #[test]
    fn subset_shaped_garbage_gets_structured_errors(
        k_pick in 0usize..12,
        linkage_pick in 0usize..9,
        seed_pick in 0usize..6,
    ) {
        const K_RAW: [&str; 12] = [
            "0", "1", "4", "11", "12", "99", "2.5", "-1", "1e99", "\"four\"", "null", "[]",
        ];
        const LINKAGE_RAW: [&str; 9] = [
            "\"single\"", "\"complete\"", "\"average\"", "\"ward\"", "\"COMPLETE\"", "\"\"",
            "7", "null", "[]",
        ];
        const SEED_RAW: [&str; 6] = ["0", "2013", "-7", "0.5", "\"x\"", "null"];
        let line = format!(
            "{{\"id\":\"ssfz\",\"verb\":\"subset\",\"k\":{},\"linkage\":{},\"window\":\"quick\",\"seed\":{}}}\n",
            K_RAW[k_pick], LINKAGE_RAW[linkage_pick], SEED_RAW[seed_pick],
        );
        // Pure parser layer first: total, never panics.
        match protocol::parse_request(line.trim_end()) {
            Ok(req) => prop_assert_eq!(req.verb(), "subset"),
            Err((id, err)) => {
                prop_assert_eq!(err.code, "bad_request");
                let _ = protocol::error_response(id.as_ref(), &err);
            }
        }
        // Then the live daemon: one line in, one envelope out. Valid
        // combinations answer ok (the matrix is cached after the first
        // hit); invalid ones answer bad_request.
        let mut conn = connect();
        conn.send_raw(line.as_bytes()).expect("send");
        let response = recv(&mut conn);
        assert_response_envelope(&response);
        prop_assert!(
            response.contains("\"ok\":true") || response.contains("\"bad_request\""),
            "subset-shaped garbage: {response}"
        );
        assert_alive(&mut conn, "alive-subset");
    }

    /// Oversized lines are consumed and rejected with `line_too_long`;
    /// framing — and the connection — survive.
    #[test]
    fn oversized_lines_are_rejected_not_buffered(extra in 1usize..4096) {
        let mut line = vec![b'{'; MAX_LINE_BYTES + extra];
        line.push(b'\n');
        let mut conn = connect();
        conn.send_raw(&line).expect("send");
        let response = recv(&mut conn);
        prop_assert!(
            response.contains("\"line_too_long\""),
            "oversized line: {response}"
        );
        assert_alive(&mut conn, "alive-long");
    }
}

#[test]
fn a_hostile_session_mixing_every_abuse_still_serves_real_work() {
    let mut conn = connect();
    // Garbage, truncation, duplicate ids, oversized lines, half-writes
    // — back to back on one connection.
    conn.send_raw(b"\x00\xffgarbage\n").expect("send");
    assert_response_envelope(&recv(&mut conn));
    conn.send_raw(b"{\"id\":\"mix\",\"verb\":\"sub\n")
        .expect("send");
    assert_response_envelope(&recv(&mut conn));
    let mut oversized = vec![b'x'; MAX_LINE_BYTES + 7];
    oversized.push(b'\n');
    conn.send_raw(&oversized).expect("send");
    assert!(recv(&mut conn).contains("\"line_too_long\""));
    // And then a real job goes straight through.
    conn.send_raw(
        b"{\"id\":\"mix2\",\"verb\":\"submit\",\"job\":{\"entries\":[\"IBCF\"],\"seed\":703}}\n",
    )
    .expect("send");
    let accepted = recv(&mut conn);
    assert!(
        accepted.contains("\"ok\":true"),
        "submit after abuse: {accepted}"
    );
}

/// Pad `line` (an open JSON object) with one string field to exactly
/// `MAX_LINE_BYTES - 1` bytes, close it and add the newline.
fn near_cap_line(mut line: String) -> Vec<u8> {
    let pad = MAX_LINE_BYTES - 1 - line.len() - ",\"pad\":\"\"}".len();
    line.push_str(&format!(",\"pad\":\"{}\"}}", "p".repeat(pad)));
    assert_eq!(line.len(), MAX_LINE_BYTES - 1);
    line.push('\n');
    line.into_bytes()
}

/// Lines just under the cap cost a linear parse: ten whose `id` is one
/// long string, then ten objects of a few thousand distinct keys, all
/// answered within a second (a parse that rescans the line per
/// character, or compares each key with every earlier one, takes
/// seconds).
#[test]
fn near_cap_lines_are_parsed_in_linear_time() {
    let mut conn = connect();
    let long_id = |i: usize| format!("{{\"id\":\"{i}{}\"", "i".repeat(MAX_LINE_BYTES - 64));
    let many_keys = |i: usize| {
        let mut line = format!("{{\"id\":\"keys-{i}\",\"verb\":\"status\",\"job\":\"job-none\"");
        let mut k = 0;
        while line.len() < MAX_LINE_BYTES - 64 {
            line.push_str(&format!(",\"k{k}\":{k}"));
            k += 1;
        }
        line
    };
    let lines: Vec<(Vec<u8>, &str)> = (0..10)
        .map(|i| (near_cap_line(long_id(i)), "\"bad_request\""))
        .chain((0..10).map(|i| (near_cap_line(many_keys(i)), "\"unknown_job\"")))
        .collect();
    let start = std::time::Instant::now();
    for (line, code) in &lines {
        conn.send_raw(line).expect("send");
        let response = recv(&mut conn);
        assert_response_envelope(&response);
        assert!(response.contains(code), "near-cap line: {response}");
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "20 near-cap lines took {took:?}"
    );
    assert_alive(&mut conn, "alive-near-cap");
}

/// A job name that escapes a character outside the BMP as a surrogate
/// pair, as Python's `json.dumps` does by default, is a well-formed
/// request: the daemon looks the job up and answers `unknown_job`, not
/// `parse_error`.
#[test]
fn surrogate_pair_escapes_in_a_job_name_parse() {
    let mut conn = connect();
    conn.send_line(r#"{"id":"sp","verb":"status","job":"job-\ud83d\ude00"}"#)
        .expect("send");
    let response = recv(&mut conn);
    assert_response_envelope(&response);
    assert!(response.contains("\"unknown_job\""), "{response}");
}
