//! The daemon's determinism contract, pinned byte for byte: the event
//! log a `stream` replays for a cold job, for the same spec resubmitted
//! warm and for a co-run job, and the `output` bytes of a warm
//! `subset`. Whatever path answers a lookup (a pool worker or the
//! executor thread itself), these bytes must not move.
//!
//! Everything goes through an in-process [`Server`] and
//! [`Server::serve_connection`] on a byte buffer, each test on its own
//! server (so job names start at `job-1`) and with seeds no other test
//! in the workspace uses (so the process-wide memo starts cold on
//! them). No store is attached in this binary, so misses emit no
//! `store_miss` events.

use dc_server::client::Reply;
use dc_server::{Server, ServerConfig};
use std::io::BufReader;

fn server() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        queue_cap: 8,
        ..ServerConfig::default()
    })
}

fn session(server: &Server, input: &str) -> Vec<Reply> {
    let mut reader = BufReader::new(input.as_bytes());
    let mut out: Vec<u8> = Vec::new();
    server.serve_connection(&mut reader, &mut out);
    String::from_utf8(out)
        .expect("responses are utf-8")
        .lines()
        .map(|l| Reply::parse(l.to_string()).expect("every reply line is JSON"))
        .collect()
}

fn stop(server: Server) {
    server.begin_shutdown();
    server.wait();
}

/// Submit `job` as request `s`, then stream the job as request `t` and
/// read its status as request `u`: the stream blocks until the job is
/// done, so no polling is needed.
fn run_job(server: &Server, job: &str, name: &str) -> (Vec<String>, Reply) {
    let replies = session(
        server,
        &format!(
            "{{\"id\":\"s\",\"verb\":\"submit\",\"job\":{job}}}\n\
             {{\"id\":\"t\",\"verb\":\"stream\",\"job\":\"{name}\"}}\n\
             {{\"id\":\"u\",\"verb\":\"status\",\"job\":\"{name}\"}}\n"
        ),
    );
    assert!(replies[0].is_ok(), "submit: {}", replies[0].raw);
    assert_eq!(replies[0].result_str("job"), Some(name));
    let (frames, rest) = replies[1..].split_at(replies.len() - 3);
    let events: Vec<String> = frames
        .iter()
        .map(|f| {
            f.event()
                .expect("a stream frame carries an event")
                .to_string()
        })
        .collect();
    assert!(rest[0].is_ok(), "stream: {}", rest[0].raw);
    assert!(rest[0]
        .raw
        .ends_with(&format!(",\"events\":{}}}}}", events.len())));
    let status = rest[1].clone();
    assert_eq!(status.result_str("state"), Some("done"), "{}", status.raw);
    (events, status)
}

fn lines(pinned: &str) -> Vec<String> {
    pinned.lines().map(str::to_string).collect()
}

const JOB: &str =
    "{\"entries\":[\"Sort\",\"Grep\",\"K-means\"],\"window\":\"quick\",\"seed\":920001}";

const COLD_LOG: &str = r#"{"seq":0,"ts":0,"kind":"job_queued","fields":{"job":"job-1","kind":"characterize","entries":3,"window":"quick","seed":920001,"corun":1,"sampled":false}}
{"seq":1,"ts":0,"kind":"cache_miss","fields":{"entry":"Sort","corun":1}}
{"seq":2,"ts":0,"kind":"cache_miss","fields":{"entry":"Grep","corun":1}}
{"seq":3,"ts":0,"kind":"cache_miss","fields":{"entry":"K-means","corun":1}}
{"seq":4,"ts":0,"kind":"job_done","fields":{"job":"job-1","state":"done","simulations":3}}"#;

const WARM_LOG: &str = r#"{"seq":0,"ts":0,"kind":"job_queued","fields":{"job":"job-2","kind":"characterize","entries":3,"window":"quick","seed":920001,"corun":1,"sampled":false}}
{"seq":1,"ts":0,"kind":"cache_hit","fields":{"entry":"Sort","corun":1}}
{"seq":2,"ts":0,"kind":"cache_hit","fields":{"entry":"Grep","corun":1}}
{"seq":3,"ts":0,"kind":"cache_hit","fields":{"entry":"K-means","corun":1}}
{"seq":4,"ts":0,"kind":"job_done","fields":{"job":"job-2","state":"done","simulations":0}}"#;

#[test]
fn cold_and_warm_job_logs_are_pinned() {
    let server = server();
    let (cold, cold_status) = run_job(&server, JOB, "job-1");
    assert_eq!(cold, lines(COLD_LOG), "cold log:\n{}", cold.join("\n"));
    assert_eq!(cold_status.simulations(), Some(3));
    let (warm, warm_status) = run_job(&server, JOB, "job-2");
    assert_eq!(warm, lines(WARM_LOG), "warm log:\n{}", warm.join("\n"));
    assert_eq!(warm_status.simulations(), Some(0));
    assert_eq!(warm_status.output(), cold_status.output());
    stop(server);
}

const CORUN_JOB: &str =
    "{\"entries\":[\"Sort\",\"Grep\",\"K-means\"],\"window\":\"quick\",\"seed\":920002,\"corun\":2}";

const CORUN_COLD_LOG: &str = r#"{"seq":0,"ts":0,"kind":"job_queued","fields":{"job":"job-1","kind":"characterize","entries":3,"window":"quick","seed":920002,"corun":2,"sampled":false}}
{"seq":1,"ts":0,"kind":"cache_miss","fields":{"entry":"Sort","corun":2}}
{"seq":2,"ts":0,"kind":"cache_miss","fields":{"entry":"Grep","corun":2}}
{"seq":3,"ts":0,"kind":"cache_miss","fields":{"entry":"K-means","corun":2}}
{"seq":4,"ts":0,"kind":"job_done","fields":{"job":"job-1","state":"done","simulations":3}}"#;

const CORUN_WARM_LOG: &str = r#"{"seq":0,"ts":0,"kind":"job_queued","fields":{"job":"job-2","kind":"characterize","entries":3,"window":"quick","seed":920002,"corun":2,"sampled":false}}
{"seq":1,"ts":0,"kind":"cache_hit","fields":{"entry":"Sort","corun":2}}
{"seq":2,"ts":0,"kind":"cache_hit","fields":{"entry":"Grep","corun":2}}
{"seq":3,"ts":0,"kind":"cache_hit","fields":{"entry":"K-means","corun":2}}
{"seq":4,"ts":0,"kind":"job_done","fields":{"job":"job-2","state":"done","simulations":0}}"#;

#[test]
fn corun_job_logs_are_pinned() {
    let server = server();
    let (cold, cold_status) = run_job(&server, CORUN_JOB, "job-1");
    assert_eq!(
        cold,
        lines(CORUN_COLD_LOG),
        "cold log:\n{}",
        cold.join("\n")
    );
    assert_eq!(cold_status.simulations(), Some(3));
    let (warm, warm_status) = run_job(&server, CORUN_JOB, "job-2");
    assert_eq!(
        warm,
        lines(CORUN_WARM_LOG),
        "warm log:\n{}",
        warm.join("\n")
    );
    assert_eq!(warm_status.simulations(), Some(0));
    assert_eq!(warm_status.output(), cold_status.output());
    stop(server);
}

const SUBSET: &str =
    "\"verb\":\"subset\",\"k\":4,\"linkage\":\"average\",\"window\":\"quick\",\"seed\":920003";

const WARM_SUBSET_OUTPUT: &str = concat!(
    r#"{"kind":"subset","window":"quick","seed":920003,"k":4,"linkage":"average","entries":["Naive Bayes","SVM","Grep","WordCount","K-means","Fuzzy K-means","PageRank","Sort","Hive-bench","IBCF","HMM"]"#,
    r#","metrics":["ipc","kernel","ooo_stall","l1i_mpki","itlb_pki","l2_mpki","l3_mpki","l3_hit","dtlb_pki","br_misp"]"#,
    r#","eigenvalues":[5.482596960185408,3.5202169919419366,0.5229205258119742,0.3790625899614584,0.05097863526735042,0.024240602781597776,0.015356957455584843,0.003243871259425381,0.001372531558387854,0.00001033377687937002]"#,
    r#","variance_fraction":[0.5482596960185405,0.3520216991941935,0.05229205258119741,0.03790625899614583,0.00509786352673504,0.002424060278159777,0.0015356957455584838,0.000324387125942538,0.00013725315583878534,0.0000010333776879370016]"#,
    r#","retained":2"#,
    r#","merges":[{"left":4,"right":5,"height":0.22257195027680557,"size":2},{"left":10,"right":11,"height":0.33750992367479327,"size":3},{"left":1,"right":12,"height":0.6215319758545605,"size":4},{"left":3,"right":9,"height":0.7757181767577821,"size":2},{"left":2,"right":14,"height":1.142008163924702,"size":3},{"left":13,"right":15,"height":1.506434803554189,"size":7},{"left":6,"right":8,"height":1.9680622729685706,"size":2},{"left":7,"right":17,"height":2.9579201050133967,"size":3},{"left":16,"right":18,"height":4.5018879100811935,"size":10},{"left":0,"right":19,"height":6.742408489890904,"size":11}]"#,
    r#","clusters":[{"medoid":"Naive Bayes","members":["Naive Bayes"]},{"medoid":"SVM","members":["SVM","Grep","WordCount","K-means","Fuzzy K-means","IBCF","HMM"]},{"medoid":"PageRank","members":["PageRank","Hive-bench"]},{"medoid":"Sort","members":["Sort"]}]"#,
    r#","subset":["Naive Bayes","SVM","PageRank","Sort"]}"#,
);

#[test]
fn warm_subset_output_is_pinned() {
    let server = server();
    let replies = session(
        &server,
        &format!("{{\"id\":1,{SUBSET}}}\n{{\"id\":2,{SUBSET}}}\n"),
    );
    assert_eq!(replies.len(), 2);
    assert!(replies[0].is_ok(), "cold subset: {}", replies[0].raw);
    assert_eq!(replies[0].simulations(), Some(11));
    let warm = &replies[1];
    assert!(warm.is_ok(), "warm subset: {}", warm.raw);
    assert_eq!(warm.simulations(), Some(0));
    let output = warm.output().expect("subset output");
    assert_eq!(output, WARM_SUBSET_OUTPUT, "warm output:\n{output}");
    assert_eq!(replies[0].output(), Some(output));
    stop(server);
}
