//! The per-layer ledger of a traced run.
//!
//! Spans are taken at the benchmark's own call sites, around calls into
//! each layer's public functions; the program itself is not
//! instrumented. Layers that interleave inside one program call (trace
//! synthesis feeding the pipeline, for example) are timed by replaying
//! the workload's own inputs through each layer alone.

use crate::client::{self, Daemon, Mix, Session, Stop, VERBS};
use crate::common::{corun_seed, entry_seed, secs, Cell};
use crate::stats::{median, percentile};
use dc_cpu::branch::BranchPredictor;
use dc_cpu::cache::Hierarchy;
use dc_cpu::tlb::Mmu;
use dc_cpu::{Chip, Core, PerfCounts, SimOptions};
use dc_perfmon::Metrics;
use dc_server::protocol::{event_frame, ok_response, parse_request, RequestId};
use dc_store::{Record, Store, StoreKey};
use dc_trace::{MicroOp, OpKind, SyntheticTrace};
use dcbench::profiles::profile;
use dcbench::{cache, Characterizer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric with its unit, in reporting order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.synth_ns_per_uop", "ns"),
    ("cpu.core_ns_per_uop", "ns"),
    ("cpu.core_ns_per_sim_cycle", "ns"),
    ("cpu.chip_ns_per_uop", "ns"),
    ("cpu.sampled_ns_per_uop", "ns"),
    ("cpu.hier_ns_per_uop", "ns"),
    ("cpu.sim_instructions", "count"),
    ("cpu.sim_cycles", "count"),
    ("cpu.phase_uops.ramp", "count"),
    ("cpu.phase_uops.detail", "count"),
    ("cpu.phase_uops.ffwd", "count"),
    ("sampled.ipc_err_pct", "%"),
    ("sampled.mpki_err_pct", "%"),
    ("pool.busy_frac", "frac"),
    ("pool.tail_ms", "ms"),
    ("cache.lookup_us", "us"),
    ("cache.sim_runs", "count"),
    ("cache.hits", "count"),
    ("cache.store_hits", "count"),
    ("store.append_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("store.write_errors", "count"),
    ("proto.parse_ns", "ns"),
    ("proto.render_ns", "ns"),
    ("server.submit_us.p50", "us"),
    ("server.submit_us.p90", "us"),
    ("server.stream_us.p50", "us"),
    ("server.stream_us.p90", "us"),
    ("server.status_us.p50", "us"),
    ("server.status_us.p90", "us"),
    ("server.stats_us.p50", "us"),
    ("server.subset_us.p50", "us"),
    ("server.req_p99_us", "us"),
    ("server.queue_wait_us.p50", "us"),
    ("server.queue_wait_us.p90", "us"),
    ("server.service_us.p50", "us"),
    ("server.service_us.p90", "us"),
    ("server.transport_us", "us"),
    ("stats.subset_us", "us"),
    ("trace.overhead_frac", "frac"),
    ("layers.sum_frac", "frac"),
    ("mem.peak_rss_mb", "MB"),
];

/// Named per-layer values, plus the notes that explain them.
#[derive(Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` for every per-layer metric, or the names
    /// this ledger is missing.
    pub fn metrics(&self) -> Result<Vec<(&'static str, f64, &'static str)>, Vec<&'static str>> {
        let missing: Vec<&'static str> = PER_LAYER
            .iter()
            .filter(|(n, _)| !self.values.contains_key(n))
            .map(|(n, _)| *n)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok(PER_LAYER
            .iter()
            .map(|(n, u)| (*n, self.values[n], *u))
            .collect())
    }

    /// Record the cache and store counters accumulated since the last
    /// `cache::clear` (or registry reset).
    pub fn cache_counts(&mut self) {
        self.set("cache.sim_runs", cache::sim_invocations() as f64);
        self.set("cache.hits", cache::cache_hits() as f64);
        self.set("cache.store_hits", cache::store_hits() as f64);
        self.set("store.write_errors", cache::store_write_errors() as f64);
    }

    /// Record the sampled-simulation phase µops retired since `before`.
    pub fn phase_uops(&mut self, before: [u64; 3]) {
        let now = phase_counters();
        for (i, name) in [
            "cpu.phase_uops.ramp",
            "cpu.phase_uops.detail",
            "cpu.phase_uops.ffwd",
        ]
        .into_iter()
        .enumerate()
        {
            self.set(name, (now[i] - before[i]) as f64);
        }
    }

    /// Record the simulated instruction and cycle totals of `counts`.
    pub fn sim_totals<'a>(&mut self, counts: impl IntoIterator<Item = &'a PerfCounts>) {
        let (mut instr, mut cycles) = (0u64, 0u64);
        for c in counts {
            instr += c.instructions;
            cycles += c.cycles;
        }
        self.set("cpu.sim_instructions", instr as f64);
        self.set("cpu.sim_cycles", cycles as f64);
    }
}

/// `dc_sim_phase_instructions_total{phase=ramp|detail|ffwd}`.
pub fn phase_counters() -> [u64; 3] {
    let reg = dc_obs::metrics::global();
    ["ramp", "detail", "ffwd"].map(|p| {
        reg.counter("dc_sim_phase_instructions_total", &[("phase", p)])
            .value()
    })
}

/// µops synthesized beyond the window, so a replay never runs dry
/// while the pipeline still holds in-flight µops.
const REPLAY_MARGIN: u64 = 1 << 14;

/// What replaying the workload's cells through each layer alone cost.
#[derive(Default)]
pub struct Replay {
    pub synth_s: f64,
    pub synth_uops: u64,
    pub core_s: f64,
    pub core_uops: u64,
    pub core_cycles: f64,
    pub sampled_s: f64,
    pub sampled_uops: u64,
    pub hier_s: f64,
    pub hier_uops: u64,
    pub ipc_err: f64,
    pub mpki_err: f64,
    /// Cells whose replay disagreed with the counters the program
    /// measured for them.
    pub mismatches: u64,
}

/// Relative error with the 0.1 floor the `sampled-validation` tool uses.
pub fn rel_err(sampled: f64, exact: f64) -> f64 {
    (sampled - exact).abs() / exact.abs().max(0.1)
}

/// Worst IPC and worst L2/L3 MPKI relative error of `sampled` against
/// `exact`.
pub fn sampling_error(sampled: &PerfCounts, exact: &PerfCounts) -> (f64, f64) {
    let s = Metrics::from_counts("s", sampled);
    let e = Metrics::from_counts("e", exact);
    (
        rel_err(s.ipc, e.ipc),
        rel_err(s.l2_mpki, e.l2_mpki).max(rel_err(s.l3_mpki, e.l3_mpki)),
    )
}

fn synthesize(cell: &Cell, seed: u64) -> Vec<MicroOp> {
    let n = cell.opts.warmup_ops + cell.opts.max_ops + REPLAY_MARGIN;
    SyntheticTrace::new(&profile(cell.id), seed)
        .take(n as usize)
        .collect()
}

/// Replay each solo cell through synthesis alone, the exact pipeline,
/// the sampled pipeline and the bare cache/TLB/predictor hierarchy.
/// `measured[i]` is what the program reported for `cells[i]`.
pub fn replay(cells: &[Cell], measured: &[PerfCounts]) -> Replay {
    let mut r = Replay::default();
    for (cell, want) in cells.iter().zip(measured) {
        let exact_opts = SimOptions {
            sample: None,
            ..cell.opts
        };
        let sampled_opts = crate::common::sampled(exact_opts);
        let t = Instant::now();
        let ops = black_box(synthesize(cell, entry_seed(cell.master, cell.id)));
        r.synth_s += secs(t);
        r.synth_uops += ops.len() as u64;

        let t = Instant::now();
        let exact = Core::new(cell.cfg.clone()).run(ops.iter().copied(), &exact_opts);
        r.core_s += secs(t);
        let uops = exact_opts.warmup_ops + exact.instructions;
        r.core_uops += uops;
        // Warm-up cycles are not counted; extrapolate them at the
        // measured window's CPI.
        r.core_cycles += exact.cycles as f64 * uops as f64 / exact.instructions.max(1) as f64;

        let t = Instant::now();
        let sampled = Core::new(cell.cfg.clone()).run(ops.iter().copied(), &sampled_opts);
        r.sampled_s += secs(t);
        r.sampled_uops += sampled_opts.warmup_ops + sampled.instructions;

        let n = (exact_opts.warmup_ops + exact_opts.max_ops) as usize;
        let t = Instant::now();
        black_box(drive_hierarchy(&cell.cfg, &ops[..n.min(ops.len())]));
        r.hier_s += secs(t);
        r.hier_uops += n as u64;

        let (ipc, mpki) = sampling_error(&sampled, &exact);
        r.ipc_err = r.ipc_err.max(ipc);
        r.mpki_err = r.mpki_err.max(mpki);
        let replayed = if cell.opts.sample.is_some() {
            sampled
        } else {
            exact
        };
        if replayed != *want {
            r.mismatches += 1;
        }
    }
    r
}

/// Drive the replay's fetch, data and branch events straight through
/// the public hierarchy, MMU and predictor: functional warming with no
/// pipeline around it. Returns the mispredictions (kept live).
fn drive_hierarchy(cfg: &dc_cpu::CpuConfig, ops: &[MicroOp]) -> u64 {
    let mut hier = Hierarchy::new(cfg);
    let mut mmu = Mmu::new(cfg);
    let mut bp = BranchPredictor::new(cfg);
    let line_shift = cfg.l1i.line_bytes.trailing_zeros();
    let mut last_line = u64::MAX;
    let mut mispredicts = 0u64;
    for (now, op) in ops.iter().enumerate() {
        let now = now as u64;
        let line = op.pc >> line_shift;
        if line != last_line {
            last_line = line;
            black_box(mmu.translate_inst(op.pc));
            black_box(hier.fetch_inst(op.pc, now));
        }
        match op.kind {
            OpKind::Branch { taken, target } => {
                mispredicts += u64::from(!bp.predict_and_train(op.pc, taken, target));
            }
            OpKind::Load { addr, .. } | OpKind::Store { addr, .. } => {
                black_box(mmu.translate_data(addr));
                black_box(hier.access_data(addr, now));
            }
            _ => {}
        }
    }
    mispredicts
}

/// Replay co-run cells through `Chip::run`: `(seconds, µops,
/// mismatches)`. `measured[i]` is what the program reported, if it ran
/// the cell.
pub fn chip(cells: &[Cell], measured: Option<&[Vec<PerfCounts>]>) -> (f64, u64, u64) {
    let (mut s, mut uops, mut bad) = (0.0, 0u64, 0u64);
    for (i, cell) in cells.iter().enumerate() {
        let traces: Vec<Vec<MicroOp>> = (0..cell.corun)
            .map(|k| synthesize(cell, corun_seed(cell.master, cell.id, k)))
            .collect();
        let t = Instant::now();
        let counts = Chip::new(cell.cfg.clone(), cell.corun).run(
            traces.iter().map(|ops| ops.iter().copied()).collect(),
            &cell.opts,
        );
        s += secs(t);
        uops += cell.uops(&counts);
        if measured.is_some_and(|m| m[i] != counts) {
            bad += 1;
        }
    }
    (s, uops, bad)
}

/// The store record the program writes for `cell`.
pub fn record(cell: &Cell, counts: &[PerfCounts]) -> Record {
    Record {
        key: StoreKey {
            entry: cell.id.name().to_string(),
            cfg_hash: cell.cfg.stable_hash(),
            max_ops: cell.opts.max_ops,
            warmup_ops: cell.opts.warmup_ops,
            seed: entry_seed(cell.master, cell.id),
            corun: cell.corun as u32,
            sample: cell.opts.sample.map(|p| (p.detail_ops, p.ffwd_ops)),
        },
        counts: counts.to_vec(),
    }
}

/// Append the records of a pass to a fresh store (`store.append_ms`,
/// total), then recover it through `cache::attach_store`
/// (`store.recover_ms`). Leaves the memo holding exactly those records.
/// Returns the records that did not come back.
pub fn store(ledger: &mut Ledger, path: &Path, records: &[Record]) -> std::io::Result<u64> {
    let _ = std::fs::remove_file(path);
    let (mut log, _) = Store::open(path)?;
    let t = Instant::now();
    for r in records {
        log.append(r)?;
    }
    ledger.set("store.append_ms", secs(t) * 1e3);
    drop(log);
    cache::clear();
    let t = Instant::now();
    let report = cache::attach_store(path, &dc_obs::Recorder::disabled())?;
    ledger.set("store.recover_ms", secs(t) * 1e3);
    cache::detach_store();
    Ok((records.len() as u64).saturating_sub(report.loaded as u64))
}

/// Median µs of a warm `Characterizer::run` over `cells` (memo hits).
pub fn lookups(ledger: &mut Ledger, cells: &[Cell]) {
    let mut us = Vec::new();
    for cell in cells.iter().filter(|c| c.corun == 1) {
        let h = cell.harness();
        for _ in 0..20 {
            let t = Instant::now();
            black_box(h.run(cell.id));
            us.push(secs(t) * 1e6);
        }
    }
    ledger.set("cache.lookup_us", median(&us).unwrap_or(0.0));
}

/// Median µs of a warm `report::subset_exhibit` for `harness`.
pub fn subset(ledger: &mut Ledger, harness: &Characterizer) -> f64 {
    let mut us = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        black_box(dcbench::report::subset_exhibit(
            harness,
            4,
            dcbench::stats::Linkage::Average,
        ));
        us.push(secs(t) * 1e6);
    }
    let m = median(&us).unwrap_or(0.0);
    ledger.set("stats.subset_us", m);
    m
}

/// Median ns to parse one of the workload's request lines and to
/// render one of its reply lines (`ok_response` for status results,
/// `event_frame` for stream frames).
pub fn protocol(
    ledger: &mut Ledger,
    lines: &[String],
    results: &[String],
    events: &[dc_obs::Event],
) {
    const REPS: usize = 50;
    let mut parse = Vec::new();
    for _ in 0..REPS {
        for line in lines {
            let t = Instant::now();
            let _ = black_box(parse_request(black_box(line)));
            parse.push(secs(t) * 1e9);
        }
    }
    let id = RequestId::Str("c0-1".into());
    let mut render = Vec::new();
    for _ in 0..REPS {
        for r in results {
            let t = Instant::now();
            black_box(ok_response(&id, black_box(r)));
            render.push(secs(t) * 1e9);
        }
        for ev in events {
            let t = Instant::now();
            black_box(event_frame(&id, black_box(ev)));
            render.push(secs(t) * 1e9);
        }
    }
    ledger.set("proto.parse_ns", median(&parse).unwrap_or(0.0));
    ledger.set("proto.render_ns", median(&render).unwrap_or(0.0));
}

/// A percentile that has at least ten samples beyond it; with fewer,
/// the largest sample, and a note saying so.
fn tail(ledger: &mut Ledger, what: &str, samples: &[f64], pct: f64) -> f64 {
    percentile(samples, pct).unwrap_or_else(|| {
        ledger.notes.push(format!(
            "{what}: {} samples leave fewer than 10 beyond p{pct}; reporting the largest",
            samples.len()
        ));
        samples.iter().copied().fold(0.0, f64::max)
    })
}

/// Per-verb client latencies, the daemon's own queue-wait and service
/// histograms (through `stats`) and the transport share of a stream.
pub fn server(ledger: &mut Ledger, session: &Session, daemon: &Daemon) -> std::io::Result<()> {
    let by_verb = |v: usize| -> Vec<f64> {
        session
            .reqs
            .iter()
            .filter(|r| r.verb == v)
            .map(|r| r.us)
            .collect()
    };
    let names = [
        ("server.submit_us.p50", "server.submit_us.p90"),
        ("server.stream_us.p50", "server.stream_us.p90"),
        ("server.status_us.p50", "server.status_us.p90"),
        ("server.stats_us.p50", ""),
        ("server.subset_us.p50", ""),
    ];
    for (v, (p50, p90)) in names.into_iter().enumerate() {
        let us = by_verb(v);
        ledger.set(p50, median(&us).unwrap_or(0.0));
        if !p90.is_empty() {
            let t = tail(ledger, VERBS[v], &us, 90.0);
            ledger.set(p90, t);
        }
        ledger
            .notes
            .push(format!("server.{}_us: n={}", VERBS[v], us.len()));
    }
    let all: Vec<f64> = session.reqs.iter().map(|r| r.us).collect();
    let p99 = tail(ledger, "requests", &all, 99.0);
    ledger.set("server.req_p99_us", p99);
    let (qw50, qw90, _, _) = client::daemon_histogram(daemon.addr(), "dc_server_queue_wait_us")?;
    let (sv50, sv90, _, n) = client::daemon_histogram(daemon.addr(), "dc_server_service_time_us")?;
    ledger.set("server.queue_wait_us.p50", qw50);
    ledger.set("server.queue_wait_us.p90", qw90);
    ledger.set("server.service_us.p50", sv50);
    ledger.set("server.service_us.p90", sv90);
    ledger.notes.push(format!(
        "daemon histograms: n={n} jobs (log2-bucket upper bounds)"
    ));
    ledger.set(
        "server.transport_us",
        ledger.get("server.stream_us.p50") - qw50 - sv50,
    );
    Ok(())
}

/// The daemon probe every traced run makes: a fixed-size session of
/// the workload's own jobs against an in-process daemon sharing the
/// warm memo, then the per-verb, protocol and subset numbers.
pub fn serve_probe(
    ledger: &mut Ledger,
    mix: &Mix,
    seed: u64,
    subset_harness: &Characterizer,
) -> std::io::Result<Session> {
    let daemon = Daemon::start(dcbench::pool::jobs())?;
    let session = client::run_session(
        daemon.addr(),
        mix,
        seed,
        CLIENTS,
        Stop::After(PROBE_ACTIONS),
    );
    let res = server(ledger, &session, &daemon);
    daemon.stop();
    res?;
    subset(ledger, subset_harness);
    Ok(session)
}

/// Closed-loop clients: one per core of the 2-core reference box.
pub const CLIENTS: usize = 2;

/// Actions per client in a fixed-size session: enough that every job
/// verb has p90 and all requests together have p99 with ten samples
/// beyond.
pub const PROBE_ACTIONS: usize = 200;
