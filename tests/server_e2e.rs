//! End-to-end tests for the `dc-server` daemon: real TCP connections
//! against an in-process server (every test gets its own listener and
//! executor pool, all sharing this process's memo cache — so each test
//! uses seeds nothing else in the binary touches), plus one subprocess
//! test of the `--stdio` transport against the actual binary.

use dc_server::{Server, ServerConfig};
use dc_store::json::{parse_json, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

/// One in-process daemon on an ephemeral port.
struct TestDaemon {
    server: Server,
    addr: std::net::SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl TestDaemon {
    fn start(workers: usize, queue_cap: usize) -> TestDaemon {
        let server = Server::start(ServerConfig {
            workers,
            queue_cap,
            recorder: dc_obs::Recorder::disabled(),
            ..ServerConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("bound");
        let accept = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_listener(&listener))
        };
        TestDaemon {
            server,
            addr,
            accept: Some(accept),
        }
    }

    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(self.addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Conn {
            reader,
            writer: stream,
            next_id: 0,
        }
    }
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        self.server.begin_shutdown();
        // Wake the accept loop, then join everything.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.server.wait();
    }
}

/// A line-oriented client connection with auto-assigned request ids.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Conn {
    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
    }

    fn recv(&mut self) -> String {
        let mut buf = String::new();
        let n = self.reader.read_line(&mut buf).expect("recv");
        assert!(n > 0, "daemon closed the connection unexpectedly");
        buf.trim_end_matches('\n').to_string()
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn request(&mut self, verb_and_payload: &str) -> String {
        let id = self.fresh_id();
        self.round_trip(&format!("{{\"id\":{id},{verb_and_payload}}}"))
    }

    /// Submit and return the assigned job name.
    fn submit(&mut self, job: &str) -> String {
        let response = self.request(&format!("\"verb\":\"submit\",\"job\":{job}"));
        assert!(
            response.contains("\"ok\":true"),
            "submit failed: {response}"
        );
        field_str(&response, "job").expect("job name in submit response")
    }

    /// Poll status until the job is terminal; returns the final raw
    /// status response.
    fn await_terminal(&mut self, job: &str) -> String {
        for _ in 0..4000u32 {
            let response = self.request(&format!("\"verb\":\"status\",\"job\":\"{job}\""));
            let state = field_str(&response, "state").expect("state in status");
            if state == "done" || state == "cancelled" || state == "failed" {
                return response;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("job {job} never reached a terminal state");
    }
}

/// First `"name":"…"` string field anywhere in a raw response (enough
/// for the flat envelopes these tests inspect).
fn field_str(raw: &str, name: &str) -> Option<String> {
    fn find(doc: &Json, name: &str) -> Option<String> {
        match doc {
            Json::Obj(pairs) => pairs.iter().find_map(|(k, v)| {
                if k == name {
                    if let Json::Str(s) = v {
                        return Some(s.clone());
                    }
                }
                find(v, name)
            }),
            _ => None,
        }
    }
    find(&parse_json(raw).ok()?, name)
}

/// The byte-exact `"output":{…}` object of a status response.
fn extract_output(raw: &str) -> &str {
    let at = raw.find("\"output\":").expect("output present");
    let start = at + "\"output\":".len();
    let bytes = raw.as_bytes();
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, &b) in bytes[start..].iter().enumerate() {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return &raw[start..start + i + 1];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated output object in {raw}");
}

fn simulations(raw: &str) -> u64 {
    let at = raw.find("\"simulations\":").expect("simulations present");
    raw[at + "\"simulations\":".len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("simulations is an integer")
}

#[test]
fn warm_resubmission_simulates_nothing_and_matches_bytes() {
    let daemon = TestDaemon::start(2, 16);
    let spec = "{\"entries\":[\"Sort\",\"Grep\",\"K-means\"],\"seed\":611}";

    let mut cold = daemon.connect();
    let job = cold.submit(spec);
    let cold_status = cold.await_terminal(&job);
    assert!(cold_status.contains("\"state\":\"done\""));
    assert_eq!(simulations(&cold_status), 3, "three cold entries simulate");
    let cold_output = extract_output(&cold_status).to_string();

    // A *different* client connection, same spec: answered entirely
    // from the shared memo cache.
    let mut warm = daemon.connect();
    let job2 = warm.submit(spec);
    assert_ne!(job, job2, "job names are per-submission, never deduped");
    let warm_status = warm.await_terminal(&job2);
    assert_eq!(
        simulations(&warm_status),
        0,
        "warm resubmission: zero simulations"
    );
    assert_eq!(
        extract_output(&warm_status),
        cold_output,
        "byte-identical output regardless of cache temperature"
    );
}

#[test]
fn concurrent_clients_all_get_identical_results() {
    let daemon = TestDaemon::start(2, 16);
    let spec = "{\"entries\":[\"PageRank\",\"WordCount\"],\"seed\":612}";
    let outputs: Vec<(String, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let daemon = &daemon;
                s.spawn(move || {
                    let mut conn = daemon.connect();
                    let job = conn.submit(spec);
                    let status = conn.await_terminal(&job);
                    (extract_output(&status).to_string(), simulations(&status))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (output, _) in &outputs {
        assert_eq!(output, &outputs[0].0, "every client sees the same bytes");
    }
    // Concurrent cold submissions may race on a key (both simulate,
    // harmlessly — the cache documents that), but no job can simulate
    // more than its own entry count, and with four racers at least one
    // lands fully warm.
    let sims: Vec<u64> = outputs.iter().map(|(_, s)| *s).collect();
    assert!(
        sims.iter().all(|&s| s <= 2),
        "no job exceeds its entry count: {sims:?}"
    );
    assert!(sims.contains(&0), "some client is fully warm: {sims:?}");
}

#[test]
fn stream_follows_a_live_job_and_passes_the_schema_check() {
    let daemon = TestDaemon::start(1, 16);
    let mut conn = daemon.connect();
    let job = conn.submit("{\"entries\":[\"Sort\",\"Grep\"],\"seed\":613}");
    // Stream immediately: replay what exists, follow until job_done.
    conn.send(&format!(
        "{{\"id\":\"s2\",\"verb\":\"stream\",\"job\":\"{job}\"}}"
    ));
    let mut inner_events = Vec::new();
    let final_response = loop {
        let line = conn.recv();
        if let Some(at) = line.find("\"event\":") {
            inner_events.push(line[at + "\"event\":".len()..line.len() - 1].to_string());
        } else {
            break line;
        }
    };
    assert!(
        final_response.contains("\"ok\":true"),
        "stream ends ok: {final_response}"
    );
    assert!(final_response.contains("\"state\":\"done\""));

    // The streamed event log is a complete, schema-valid, gapless
    // dc-obs artifact in its own right.
    let stream_text = inner_events.join("\n");
    let count = dc_benches::schema::validate_stream(&stream_text)
        .unwrap_or_else(|e| panic!("streamed events fail the schema check: {e}\n{stream_text}"));
    assert_eq!(count, inner_events.len());
    assert!(inner_events[0].contains("\"kind\":\"job_queued\""));
    assert!(inner_events
        .last()
        .expect("nonempty")
        .contains("\"kind\":\"job_done\""));
    assert_eq!(
        inner_events
            .iter()
            .filter(|e| e.contains("\"cache_miss\""))
            .count(),
        2,
        "one miss per cold entry"
    );

    // Replaying after completion yields the identical event bytes.
    conn.send(&format!(
        "{{\"id\":\"s3\",\"verb\":\"stream\",\"job\":\"{job}\"}}"
    ));
    let mut replay = Vec::new();
    loop {
        let line = conn.recv();
        if let Some(at) = line.find("\"event\":") {
            replay.push(line[at + "\"event\":".len()..line.len() - 1].to_string());
        } else {
            break;
        }
    }
    assert_eq!(
        replay, inner_events,
        "replay is byte-identical to the live follow"
    );
}

#[test]
fn queued_jobs_cancel_while_the_executor_is_busy() {
    let daemon = TestDaemon::start(1, 16);
    let mut conn = daemon.connect();
    // Occupy the single executor with a wide job, then pile two more
    // behind it and cancel the last while it is still queued.
    let busy = conn.submit("{\"entries\":\"all\",\"seed\":614}");
    let second = conn.submit("{\"entries\":[\"Sort\"],\"seed\":615}");
    let victim = conn.submit("{\"entries\":[\"Grep\"],\"seed\":616}");
    let response = conn.request(&format!("\"verb\":\"cancel\",\"job\":\"{victim}\""));
    assert!(
        response.contains("\"ok\":true"),
        "cancel queued: {response}"
    );
    assert!(response.contains("\"state\":\"cancelled\""));
    // Cancelling it again is a structured error, not a state change.
    let again = conn.request(&format!("\"verb\":\"cancel\",\"job\":\"{victim}\""));
    assert!(again.contains("\"bad_request\""), "double cancel: {again}");
    // The cancelled job stays terminal; its siblings still finish.
    assert!(conn.await_terminal(&busy).contains("\"state\":\"done\""));
    assert!(conn.await_terminal(&second).contains("\"state\":\"done\""));
    assert!(conn
        .await_terminal(&victim)
        .contains("\"state\":\"cancelled\""));
}

#[test]
fn garbage_never_takes_the_connection_down() {
    let daemon = TestDaemon::start(1, 16);
    let mut conn = daemon.connect();
    assert!(conn.round_trip("}{ not json").contains("\"parse_error\""));
    assert!(conn.round_trip("[1,2,3]").contains("\"parse_error\""));
    assert!(conn
        .round_trip("{\"id\":\"g1\",\"verb\":\"warp\"}")
        .contains("\"unknown_verb\""));
    assert!(conn
        .round_trip("{\"id\":\"g2\",\"verb\":\"status\",\"job\":\"job-404\"}")
        .contains("\"unknown_job\""));
    let oversized = "x".repeat(dc_server::protocol::MAX_LINE_BYTES + 1);
    assert!(conn.round_trip(&oversized).contains("\"line_too_long\""));
    // After all of that abuse, the same connection still does real work.
    let job = conn.submit("{\"entries\":[\"HMM\"],\"seed\":617}");
    assert!(conn.await_terminal(&job).contains("\"state\":\"done\""));
}

#[test]
fn subset_verb_round_trips_warm_and_byte_matches_the_offline_exhibit() {
    let daemon = TestDaemon::start(2, 16);
    let spec =
        "\"verb\":\"subset\",\"k\":4,\"linkage\":\"complete\",\"window\":\"quick\",\"seed\":619";

    // Cold daemon: each of the 11 data-analysis workloads simulates.
    let mut cold = daemon.connect();
    let cold_response = cold.request(spec);
    assert!(
        cold_response.contains("\"ok\":true"),
        "cold: {cold_response}"
    );
    assert_eq!(simulations(&cold_response), 11, "eleven cold entries");
    let cold_output = extract_output(&cold_response).to_string();
    assert!(cold_output.contains("\"kind\":\"subset\""));
    assert!(cold_output.contains("\"subset\":["));

    // A different client, same spec, warm daemon: zero simulations and
    // byte-identical output.
    let mut warm = daemon.connect();
    let warm_response = warm.request(spec);
    assert_eq!(
        simulations(&warm_response),
        0,
        "warm subset: {warm_response}"
    );
    assert_eq!(extract_output(&warm_response), cold_output);

    // The daemon's output byte-matches the offline exhibit pipeline
    // for the same (k, linkage, window, seed).
    let bench = dcbench::Characterizer::new(
        dc_cpu::CpuConfig::westmere_e5645(),
        dc_server::Window::Quick.sim_options(),
        619,
    );
    let offline = dcbench::report::subset_exhibit(&bench, 4, dcbench::stats::Linkage::Complete)
        .to_json("quick", 619);
    assert_eq!(cold_output, offline, "daemon vs offline bytes");

    // Malformed specs: structured bad_request, never a dropped
    // connection, never a panic.
    for bad in [
        "\"verb\":\"subset\",\"k\":0",
        "\"verb\":\"subset\",\"k\":99",
        "\"verb\":\"subset\",\"k\":2.5",
        "\"verb\":\"subset\",\"linkage\":\"ward\"",
        "\"verb\":\"subset\",\"linkage\":4",
        "\"verb\":\"subset\",\"window\":\"slow\"",
        "\"verb\":\"subset\",\"seed\":-2",
    ] {
        let response = warm.request(bad);
        assert!(
            response.contains("\"bad_request\""),
            "spec {bad}: {response}"
        );
    }
    // After the abuse the same connection still answers subsets.
    let again = warm.request(spec);
    assert_eq!(simulations(&again), 0);
    assert_eq!(extract_output(&again), cold_output);
}

#[test]
fn stdio_transport_round_trips_through_the_real_binary() {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_dc-server"))
        .args(["--stdio", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dc-server --stdio");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut round_trip = |line: &str| -> String {
        stdin.write_all(line.as_bytes()).expect("write");
        stdin.write_all(b"\n").expect("write newline");
        stdin.flush().expect("flush");
        let mut buf = String::new();
        reader.read_line(&mut buf).expect("read");
        buf.trim_end_matches('\n').to_string()
    };
    let submit =
        round_trip("{\"id\":1,\"verb\":\"submit\",\"job\":{\"entries\":[\"SVM\"],\"seed\":618}}");
    assert!(submit.contains("\"ok\":true"), "stdio submit: {submit}");
    let job = field_str(&submit, "job").expect("job name");
    let mut done = false;
    for poll in 0..4000u32 {
        let status = round_trip(&format!(
            "{{\"id\":\"poll-{poll}\",\"verb\":\"status\",\"job\":\"{job}\"}}"
        ));
        if field_str(&status, "state").as_deref() == Some("done") {
            done = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(done, "stdio job finishes");
    assert!(round_trip("garbage").contains("\"parse_error\""));
    let bye = round_trip("{\"id\":\"end\",\"verb\":\"shutdown\"}");
    assert!(bye.contains("\"shutting_down\""), "shutdown ack: {bye}");
    drop(stdin);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean exit after shutdown: {status:?}");
}
