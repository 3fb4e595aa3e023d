//! End-to-end tests for the `dc-server` daemon: real TCP connections
//! against an in-process server (every test gets its own listener and
//! executor pool, all sharing this process's memo cache — so each test
//! uses seeds nothing else in the binary touches), plus one subprocess
//! test of the `--stdio` transport against the actual binary.

use dc_server::client::{Client, Reply};
use dc_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

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

    fn connect(&self) -> Client {
        Client::connect(self.addr, "t").expect("connect")
    }
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        self.server.shutdown_listener(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.server.wait();
    }
}

/// Submit and return the assigned job name.
fn submit(conn: &mut Client, job: &str) -> String {
    let reply = conn.submit(job).expect("submit");
    assert!(reply.is_ok(), "submit failed: {}", reply.raw);
    reply
        .result_str("job")
        .expect("job name in submit response")
        .to_string()
}

/// Poll status until the job is terminal; returns the final status.
fn await_terminal(conn: &mut Client, job: &str) -> Reply {
    conn.await_terminal(job, Duration::from_millis(5), |_| {})
        .expect("job reaches a terminal state")
}

/// Send one raw line and read its reply line.
fn round_trip(conn: &mut Client, line: &str) -> String {
    conn.send_line(line).expect("send");
    conn.recv_line().expect("recv")
}

#[test]
fn warm_resubmission_simulates_nothing_and_matches_bytes() {
    let daemon = TestDaemon::start(2, 16);
    let spec = "{\"entries\":[\"Sort\",\"Grep\",\"K-means\"],\"seed\":611}";

    let mut cold = daemon.connect();
    let job = submit(&mut cold, spec);
    let cold_status = await_terminal(&mut cold, &job);
    assert_eq!(cold_status.result_str("state"), Some("done"));
    assert_eq!(
        cold_status.simulations(),
        Some(3),
        "three cold entries simulate"
    );
    let cold_output = cold_status.output().expect("output").to_string();

    // A *different* client connection, same spec: answered entirely
    // from the shared memo cache.
    let mut warm = daemon.connect();
    let job2 = submit(&mut warm, spec);
    assert_ne!(job, job2, "job names are per-submission, never deduped");
    let warm_status = await_terminal(&mut warm, &job2);
    assert_eq!(
        warm_status.simulations(),
        Some(0),
        "warm resubmission: zero simulations"
    );
    assert_eq!(
        warm_status.output(),
        Some(cold_output.as_str()),
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
                    let job = submit(&mut conn, spec);
                    let status = await_terminal(&mut conn, &job);
                    let output = status.output().expect("output").to_string();
                    (output, status.simulations().expect("simulations"))
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
    let job = submit(&mut conn, "{\"entries\":[\"Sort\",\"Grep\"],\"seed\":613}");
    // Stream immediately: replay what exists, follow until job_done.
    let follow = |conn: &mut Client| {
        let mut events = Vec::new();
        let last = conn
            .stream(&job, |frame| {
                events.push(frame.event().expect("frame event").to_string())
            })
            .expect("stream");
        (events, last)
    };
    let (inner_events, final_response) = follow(&mut conn);
    assert!(
        final_response.is_ok(),
        "stream ends ok: {}",
        final_response.raw
    );
    assert_eq!(final_response.result_str("state"), Some("done"));

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
    let (replay, _) = follow(&mut conn);
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
    let busy = submit(&mut conn, "{\"entries\":\"all\",\"seed\":614}");
    let second = submit(&mut conn, "{\"entries\":[\"Sort\"],\"seed\":615}");
    let victim = submit(&mut conn, "{\"entries\":[\"Grep\"],\"seed\":616}");
    let cancel = format!("\"verb\":\"cancel\",\"job\":\"{victim}\"");
    let response = conn.request(&cancel).expect("cancel");
    assert!(response.is_ok(), "cancel queued: {}", response.raw);
    assert_eq!(response.result_str("state"), Some("cancelled"));
    // Cancelling it again is a structured error, not a state change.
    let again = conn.request(&cancel).expect("cancel again");
    assert_eq!(again.error_code(), Some("bad_request"), "{}", again.raw);
    // The cancelled job stays terminal; its siblings still finish.
    let state = |conn: &mut Client, job: &str| {
        let status = await_terminal(conn, job);
        status.result_str("state").map(str::to_string)
    };
    assert_eq!(state(&mut conn, &busy).as_deref(), Some("done"));
    assert_eq!(state(&mut conn, &second).as_deref(), Some("done"));
    assert_eq!(state(&mut conn, &victim).as_deref(), Some("cancelled"));
}

#[test]
fn garbage_never_takes_the_connection_down() {
    let daemon = TestDaemon::start(1, 16);
    let mut conn = daemon.connect();
    assert!(round_trip(&mut conn, "}{ not json").contains("\"parse_error\""));
    assert!(round_trip(&mut conn, "[1,2,3]").contains("\"parse_error\""));
    assert!(round_trip(&mut conn, "{\"id\":\"g1\",\"verb\":\"warp\"}").contains("\"unknown_verb\""));
    assert!(round_trip(
        &mut conn,
        "{\"id\":\"g2\",\"verb\":\"status\",\"job\":\"job-404\"}"
    )
    .contains("\"unknown_job\""));
    let oversized = "x".repeat(dc_server::protocol::MAX_LINE_BYTES + 1);
    assert!(round_trip(&mut conn, &oversized).contains("\"line_too_long\""));
    // After all of that abuse, the same connection still does real work.
    let job = submit(&mut conn, "{\"entries\":[\"HMM\"],\"seed\":617}");
    let status = await_terminal(&mut conn, &job);
    assert_eq!(status.result_str("state"), Some("done"));
}

#[test]
fn subset_verb_round_trips_warm_and_byte_matches_the_offline_exhibit() {
    let daemon = TestDaemon::start(2, 16);
    let spec =
        "\"verb\":\"subset\",\"k\":4,\"linkage\":\"complete\",\"window\":\"quick\",\"seed\":619";

    // Cold daemon: each of the 11 data-analysis workloads simulates.
    let mut cold = daemon.connect();
    let cold_response = cold.request(spec).expect("cold subset");
    assert!(cold_response.is_ok(), "cold: {}", cold_response.raw);
    assert_eq!(cold_response.simulations(), Some(11), "eleven cold entries");
    let cold_output = cold_response.output().expect("output").to_string();
    assert!(cold_output.contains("\"kind\":\"subset\""));
    assert!(cold_output.contains("\"subset\":["));

    // A different client, same spec, warm daemon: zero simulations and
    // byte-identical output.
    let mut warm = daemon.connect();
    let warm_response = warm.request(spec).expect("warm subset");
    assert_eq!(
        warm_response.simulations(),
        Some(0),
        "warm subset: {}",
        warm_response.raw
    );
    assert_eq!(warm_response.output(), Some(cold_output.as_str()));

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
        let response = warm.request(bad).expect("bad subset");
        assert_eq!(
            response.error_code(),
            Some("bad_request"),
            "spec {bad}: {}",
            response.raw
        );
    }
    // After the abuse the same connection still answers subsets.
    let again = warm.request(spec).expect("subset again");
    assert_eq!(again.simulations(), Some(0));
    assert_eq!(again.output(), Some(cold_output.as_str()));
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
    let mut round_trip = |line: &str| -> Reply {
        stdin
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        stdin.flush().expect("flush");
        let mut buf = String::new();
        reader.read_line(&mut buf).expect("read");
        Reply::parse(buf.trim_end_matches('\n').to_string()).expect("reply is JSON")
    };
    let submit =
        round_trip("{\"id\":1,\"verb\":\"submit\",\"job\":{\"entries\":[\"SVM\"],\"seed\":618}}");
    assert!(submit.is_ok(), "stdio submit: {}", submit.raw);
    let job = submit.result_str("job").expect("job name").to_string();
    let mut done = false;
    for poll in 0..4000u32 {
        let status = round_trip(&format!(
            "{{\"id\":\"poll-{poll}\",\"verb\":\"status\",\"job\":\"{job}\"}}"
        ));
        if status.result_str("state") == Some("done") {
            done = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(done, "stdio job finishes");
    assert_eq!(round_trip("garbage").error_code(), Some("parse_error"));
    let bye = round_trip("{\"id\":\"end\",\"verb\":\"shutdown\"}");
    assert_eq!(
        bye.result_str("state"),
        Some("shutting_down"),
        "shutdown ack: {}",
        bye.raw
    );
    drop(stdin);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean exit after shutdown: {status:?}");
}
