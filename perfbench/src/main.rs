//! The dcbench-rs benchmark: three workloads that each load a different
//! layer of the program, measured end to end with tracing off, and a
//! separate traced run that times each layer from the benchmark's own
//! call sites.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_exhibits --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run checks the program's outputs, prints one line per metric
//! with its unit and sample count, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Scratch files go under `.perfbench/` in the working directory; the
//! spans of a traced run are written there when it ends.

mod client;
mod cold;
mod common;
mod daemon;
mod layers;
mod sampled;
mod stats;

use common::Span;
use layers::{Ledger, Replay};
use stats::{Summary, Tally};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["cold_exhibits", "sampled_sweep", "warm_daemon"];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    /// The master seed the program receives, derived from `seed`.
    pub master: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch root inside the working directory.
    pub root: PathBuf,
}

impl Ctx {
    /// Write a traced pass's pool spans, one JSON object per line.
    pub fn write_spans(&self, workload: &str, spans: &[Span]) -> std::io::Result<()> {
        let mut out = String::new();
        for s in spans {
            out.push_str(&format!(
                "{{\"name\":\"pool.item\",\"parent\":\"pass\",\"worker\":{},\"start_us\":{},\"end_us\":{}}}\n",
                s.worker,
                s.start * 1e6,
                s.end * 1e6
            ));
        }
        std::fs::write(self.root.join(format!("spans-{workload}.jsonl")), out)
    }

    /// Write a traced session's request spans, one JSON object per line.
    pub fn write_request_spans(
        &self,
        workload: &str,
        session: &client::Session,
    ) -> std::io::Result<()> {
        let mut out = String::new();
        for r in &session.reqs {
            out.push_str(&format!(
                "{{\"name\":\"request.{}\",\"parent\":\"session\",\"client\":{},\"start_us\":{},\"end_us\":{},\"ok\":{}}}\n",
                client::VERBS[r.verb],
                r.client,
                r.at * 1e6,
                r.at * 1e6 + r.us,
                r.ok
            ));
        }
        std::fs::write(self.root.join(format!("spans-{workload}.jsonl")), out)
    }
}

/// The end-to-end metrics of an untraced run.
pub struct EndToEnd {
    pub setup: Summary,
    pub sim_mops: Summary,
    /// Requests completed per second: protocol requests for the daemon;
    /// the median pass rate for the simulating workloads (one pass is
    /// the one request a user makes of them).
    pub req_per_s: f64,
    /// Requests the rate counts.
    pub requests: usize,
    /// µs from asking for a result to having it: one pass, or one job's
    /// `submit`+`stream`+`status` round on the daemon.
    pub result_p50: Summary,
    pub tally: Tally,
}

impl EndToEnd {
    /// Metrics of a workload made of whole passes, each simulating
    /// `uops` µops.
    pub fn from_passes(setups: &[f64], walls: &[f64], uops: u64, tally: Tally) -> EndToEnd {
        let rates: Vec<f64> = walls.iter().map(|w| uops as f64 / w / 1e6).collect();
        let passes: Vec<f64> = walls.iter().map(|w| 1.0 / w).collect();
        let lat: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
        EndToEnd {
            setup: Summary::of(setups),
            sim_mops: Summary::of(&rates),
            req_per_s: Summary::of(&passes).median,
            requests: walls.len(),
            result_p50: Summary::of(&lat),
            tally,
        }
    }
}

/// What a run reports.
pub struct Outcome {
    correct: bool,
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
}

impl Outcome {
    pub fn end_to_end(e: EndToEnd, correct: bool, mut lines: Vec<String>) -> Outcome {
        let metrics = vec![
            ("setup_s", e.setup.median, "s"),
            ("sim_mops", e.sim_mops.median, "Mop/s"),
            ("req_per_s", e.req_per_s, "1/s"),
            ("result_p50_us", e.result_p50.median, "us"),
            ("ok_frac", e.tally.ok_frac(), "frac"),
        ];
        let counts = [
            e.setup.n,
            e.sim_mops.n,
            e.requests,
            e.result_p50.n,
            e.tally.attempted as usize,
        ];
        for ((name, value, unit), n) in metrics.iter().zip(counts) {
            lines.push(format!("{name} = {value} {unit} (n={n})"));
        }
        lines.push(format!(
            "fail_frac = {} ({} of {} operations failed)",
            e.tally.fail_frac(),
            e.tally.failed,
            e.tally.attempted
        ));
        Outcome {
            correct,
            tally: e.tally,
            metrics,
            lines,
        }
    }

    pub fn traced(ledger: Ledger, correct: bool, tally: Tally, mut lines: Vec<String>) -> Outcome {
        let metrics = match ledger.metrics() {
            Ok(m) => m,
            Err(missing) => panic!("the ledger is missing {missing:?}"),
        };
        lines.extend(ledger.notes);
        for (name, value, unit) in &metrics {
            lines.push(format!("{name} = {value} {unit}"));
        }
        Outcome {
            correct,
            tally,
            metrics,
            lines,
        }
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct,
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            out.push_str(&format!(
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        out
    }
}

/// The per-layer costs of the replay probes.
pub fn ledger_from_replay(ledger: &mut Ledger, r: &Replay, chip_s: f64, chip_uops: u64) {
    let per = |s: f64, n: f64| if n > 0.0 { s * 1e9 / n } else { 0.0 };
    ledger.set(
        "trace.synth_ns_per_uop",
        per(r.synth_s, r.synth_uops as f64),
    );
    ledger.set("cpu.core_ns_per_uop", per(r.core_s, r.core_uops as f64));
    ledger.set("cpu.core_ns_per_sim_cycle", per(r.core_s, r.core_cycles));
    ledger.set("cpu.chip_ns_per_uop", per(chip_s, chip_uops as f64));
    ledger.set(
        "cpu.sampled_ns_per_uop",
        per(r.sampled_s, r.sampled_uops as f64),
    );
    ledger.set("cpu.hier_ns_per_uop", per(r.hier_s, r.hier_uops as f64));
    ledger.set("sampled.ipc_err_pct", r.ipc_err * 100.0);
    ledger.set("sampled.mpki_err_pct", r.mpki_err * 100.0);
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let root = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("perfbench: cannot create {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        master: common::master_seed(seed),
        seconds,
        trace,
        root,
    };
    eprintln!(
        "perfbench: {workload} seed {seed} (master seed {}) for {seconds}s, trace {}, pool width {}",
        ctx.master,
        u8::from(trace),
        dcbench::pool::jobs()
    );
    let outcome = match workload.as_str() {
        "cold_exhibits" => cold::run(&ctx),
        "sampled_sweep" => sampled::run(&ctx),
        _ => daemon::run(&ctx),
    };
    match outcome {
        Ok(o) => {
            let mut stdout = std::io::stdout().lock();
            for line in &o.lines {
                let _ = writeln!(stdout, "{line}");
            }
            let _ = writeln!(stdout, "{}", o.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            ExitCode::FAILURE
        }
    }
}
