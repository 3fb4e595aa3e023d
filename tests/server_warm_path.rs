//! The warm daemon round over real loopback TCP: a `submit` plus a
//! `stream` of a spec the memo already holds costs what the daemon
//! does, not what TCP waits for.
//!
//! A reply written as several small segments meets Nagle's algorithm on
//! the server and delayed ACKs on the client, which parks every warm
//! `stream` for tens of milliseconds. The daemon disables Nagle on
//! accepted sockets and flushes once per reply, so a warm round is a
//! sub-millisecond exchange; the bound below sits far under one
//! delayed-ACK stall and far over any loaded runner's scheduling noise,
//! and it is on the median round, not the total.
//!
//! The test also reads the process-wide metrics registry through the
//! `stats` verb: a warm job answers its lookups on the executor thread,
//! so the pool runs no jobs, and each of the three entries of each
//! round is exactly one memo hit. This file holds one `#[test]` so no
//! other test moves those counters.

use dc_obs::metrics::MetricValue;
use dc_server::client::Client;
use dc_server::{Server, ServerConfig};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const JOB: &str =
    "{\"entries\":[\"Sort\",\"Grep\",\"K-means\"],\"window\":\"quick\",\"seed\":920004}";

const ROUNDS: usize = 21;

fn counter(client: &mut Client, name: &str) -> u64 {
    let reply = client.request("\"verb\":\"stats\"").expect("stats");
    assert!(reply.is_ok(), "stats: {}", reply.raw);
    let snap = reply.metrics().expect("stats carries a snapshot");
    match snap.get(name).map(|m| &m.value) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{name} is not a registered counter: {other:?}"),
    }
}

/// Submit `JOB` and stream it to its end; returns the job's state.
fn round(client: &mut Client) -> String {
    let submitted = client.submit(JOB).expect("submit");
    assert!(submitted.is_ok(), "submit: {}", submitted.raw);
    let job = submitted.result_str("job").expect("job name").to_string();
    let mut frames = 0;
    let done = client.stream(&job, |_| frames += 1).expect("stream");
    assert!(done.is_ok(), "stream: {}", done.raw);
    assert_eq!(frames, 5, "job_queued, three lookups, job_done");
    done.result_str("state").expect("state").to_string()
}

#[test]
fn warm_rounds_take_well_under_a_delayed_ack() {
    let server = Server::start(ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("bound");
    let accept = {
        let server = server.clone();
        std::thread::spawn(move || server.serve_listener(&listener))
    };
    let mut client = Client::connect(addr, "w").expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");

    assert_eq!(round(&mut client), "done", "the warm-up job simulates");
    let pool_jobs = counter(&mut client, "dc_pool_jobs_total");
    let hits = counter(&mut client, "dcbench_cache_hits_total");

    let mut rounds_us: Vec<u128> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            assert_eq!(round(&mut client), "done");
            t.elapsed().as_micros()
        })
        .collect();
    rounds_us.sort_unstable();
    let median_us = rounds_us[ROUNDS / 2];
    assert!(
        median_us < 20_000,
        "median warm round {median_us} µs (sorted rounds: {rounds_us:?})"
    );

    assert_eq!(
        counter(&mut client, "dc_pool_jobs_total"),
        pool_jobs,
        "warm jobs run no pool jobs"
    );
    assert_eq!(
        counter(&mut client, "dcbench_cache_hits_total") - hits,
        3 * ROUNDS as u64,
        "one memo hit per entry per round"
    );

    drop(client);
    server.shutdown_listener(addr);
    accept.join().expect("accept loop exits");
    server.wait();
}
