//! Job timelines: run a real MapReduce job with injected faults under a
//! `dc-obs` recorder and render the task-attempt Gantt chart, then
//! replay a cluster run with a node loss and render its phase timeline.
//!
//! ```text
//! cargo run --release --example job_timeline [-- --jsonl PATH]
//! ```
//!
//! The engine chart uses job-relative wall-clock milliseconds (real
//! scheduling, non-deterministic); the cluster chart uses simulated
//! milliseconds (pure function of its inputs).

use dc_mapreduce::cluster::{simulate_with_failures, ClusterConfig, FailureModel, JobModel};
use dc_mapreduce::engine::{run_job, JobConfig};
use dc_mapreduce::faults::{Fault, FaultPlan, TaskKind};
use dc_obs::gantt::{self, GanttConfig};
use dc_obs::{Recorder, RingBuffer};
use std::io::Write;

fn parse_args() -> Option<String> {
    let mut jsonl = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jsonl" => match args.next() {
                Some(path) => jsonl = Some(path),
                None => die("--jsonl needs a path"),
            },
            other => die(&format!("unknown argument: {other}")),
        }
    }
    jsonl
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: job_timeline [--jsonl PATH]");
    std::process::exit(2);
}

fn dump_jsonl(path: &str, ring: &RingBuffer, cluster_ring: &RingBuffer) {
    let mut file = std::fs::File::create(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    for event in ring.snapshot().iter().chain(cluster_ring.snapshot().iter()) {
        writeln!(file, "{}", event.to_jsonl()).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    }
    println!("wrote events to {path}");
}

fn main() {
    let jsonl = parse_args();

    // ---- A faulted engine run: panic, transient error, straggler ----
    let (recorder, ring) = Recorder::ring(1 << 12);
    let cfg = JobConfig {
        map_tasks: 6,
        reduce_tasks: 2,
        map_slots: 6,
        speculative_lag_ms: 30,
        faults: Some(
            FaultPlan::new(0x0B5)
                .with_fault(TaskKind::Map, 1, 0, Fault::Panic)
                .with_fault(TaskKind::Reduce, 0, 0, Fault::IoError)
                .with_fault(TaskKind::Map, 4, 0, Fault::SlowdownMs(400)),
        ),
        recorder,
        ..Default::default()
    };
    let lines: Vec<String> = (0..96)
        .map(|i| format!("alpha beta w{} w{}", i % 7, i % 11))
        .collect();

    let (_, stats) = run_job(
        lines,
        &cfg,
        |line: String, emit: &mut dyn FnMut(String, u64)| {
            for w in line.split_whitespace() {
                emit(w.to_string(), 1);
            }
        },
        None,
        |k: &String, vs: &[u64]| vec![(k.clone(), vs.iter().sum::<u64>())],
    )
    .expect("faulted job recovers");

    println!("== Task-attempt timeline (wall-clock ms; x=failed, k=killed) ==\n");
    print!(
        "{}",
        gantt::render(&ring.snapshot(), &GanttConfig::default())
    );
    println!(
        "\n{} failed, {} speculative, {} killed attempt(s); \
         reduce input {} records / {} bytes\n",
        stats.failed_attempts,
        stats.speculative_attempts,
        stats.killed_attempts,
        stats.reduce_input_records,
        stats.reduce_input_bytes,
    );

    // ---- A cluster replay with a mid-map node loss ----
    let job = JobModel {
        name: "sort".into(),
        input_gb: 150.0,
        map_cpu_secs_per_gb: 6.0,
        shuffle_ratio: 1.0,
        reduce_cpu_secs_per_gb: 6.0,
        output_ratio: 1.0,
        iterations: 1,
    };
    let failures = FailureModel::single_loss_with_recovery(60.0, 45.0);
    let (cluster_recorder, cluster_ring) = Recorder::ring(256);
    let run = simulate_with_failures(&ClusterConfig::paper(8), &job, &failures, &cluster_recorder);

    println!("== Cluster phase timeline (simulated ms) ==\n");
    let phase_cfg = GanttConfig {
        start_kind: "phase_start",
        end_kind: "phase_end",
        lane_fields: &["phase", "iteration"],
        outcome_field: "outcome",
        width: 60,
    };
    print!("{}", gantt::render(&cluster_ring.snapshot(), &phase_cfg));
    println!(
        "\nmakespan {:.0} s; re-executed {:.0} slave-seconds; \
         re-replicated {:.0} MB after the node loss\n",
        run.makespan_secs, run.reexecuted_work_secs, run.rereplicated_mb,
    );

    if let Some(path) = jsonl {
        dump_jsonl(&path, &ring, &cluster_ring);
    }
}
