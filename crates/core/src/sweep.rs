//! Microarchitectural sensitivity sweeps (Exhibit SW).
//!
//! The paper measures the eleven data-analysis workloads on one fixed
//! Westmere configuration (Table III), but its architectural claims —
//! L2-pressure dominance, low ILP utilization, regular branch behavior
//! — are claims about how the metrics *move* as the machine changes.
//! The follow-up work ("Understanding Big Data Analytic Workloads on
//! Modern Processors", "Characterizing and Subsetting Big Data
//! Workloads") studies exactly those sensitivities. This module is the
//! sweep engine behind them:
//!
//! * a [`SweepAxis`] names one machine knob (L3 capacity, ROB entries,
//!   RS entries, predictor history bits, prefetch on/off) plus the grid
//!   of values to visit, each validated through the fallible
//!   `CpuConfig::try_with_*` builders at expansion time;
//! * [`run`] expands the grid into curves — one workload along one
//!   axis — and fans out **one job per curve** across [`crate::pool`]
//!   workers. The per-entry trace seed depends only on the master seed
//!   and the entry id — **not** on the swept configuration — so every
//!   point of a curve executes the identical instruction stream, and a
//!   job synthesizes that stream once for all its points
//!   ([`dc_cpu::simulate_configs`]): one core per point reads a shared
//!   window that holds only the µops between the slowest and the
//!   fastest core, at most one chunk plus one fast-forward burst
//!   (~225 k µops of 32 bytes, ~7 MB). Results are bit-identical to
//!   per-cell runs and to the sequential reference order at any
//!   `DCBENCH_JOBS` width;
//! * every cell goes through the memoizing counter cache
//!   ([`crate::cache`], keyed on `CpuConfig::stable_hash`): a job looks
//!   each of its cells up and simulates only the missing ones, and each
//!   miss is one counted simulation and one store record. The distinct
//!   `(workload, config)` cells are deduplicated before the fan-out —
//!   the base machine sits on every default axis, and the first curve
//!   containing a cell owns it — so the simulation count is the number
//!   of distinct cells at any worker count, and regenerating the
//!   exhibit from a warm cache costs lookups only;
//! * with a recorder attached to the harness, one `sweep_point` event
//!   per grid cell plus one `sweep_axis` summary per axis are emitted
//!   **after** the parallel phase, on the caller thread, in fixed
//!   (axis, point, workload) order — so the JSONL artifact is
//!   byte-deterministic run to run at any worker count.

use crate::characterize::Characterizer;
use crate::pool;
use crate::registry::BenchmarkId;
use dc_cpu::{ConfigError, CpuConfig, PerfCounts};
use dc_obs::{Recorder, Value};
use dc_perfmon::Metrics;
use std::collections::{HashMap, HashSet};

/// Which machine knob a sweep axis varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxisKind {
    /// Last-level cache capacity in bytes (`try_with_l3_bytes`).
    L3Bytes,
    /// Re-order buffer entries (`try_with_rob_entries`).
    RobEntries,
    /// Reservation-station entries (`try_with_rs_entries`).
    RsEntries,
    /// Branch-predictor global-history bits (`try_with_predictor_bits`;
    /// 0 = static not-taken).
    PredictorBits,
    /// L2 stream prefetcher on/off (`with_prefetch`; 0 = off, 1 = on).
    Prefetch,
}

impl AxisKind {
    /// Stable identifier used in event fields and exhibit titles.
    pub fn name(&self) -> &'static str {
        match self {
            AxisKind::L3Bytes => "l3_bytes",
            AxisKind::RobEntries => "rob_entries",
            AxisKind::RsEntries => "rs_entries",
            AxisKind::PredictorBits => "predictor_bits",
            AxisKind::Prefetch => "prefetch",
        }
    }

    /// Human axis description for exhibit titles.
    pub fn title(&self) -> &'static str {
        match self {
            AxisKind::L3Bytes => "L3 capacity",
            AxisKind::RobEntries => "ROB entries",
            AxisKind::RsEntries => "RS entries",
            AxisKind::PredictorBits => "predictor history bits",
            AxisKind::Prefetch => "L2 prefetcher",
        }
    }

    /// Column label for one grid value of this axis.
    pub fn label(&self, value: u64) -> String {
        match self {
            AxisKind::L3Bytes => {
                if value >= 1 << 20 && value.is_multiple_of(1 << 20) {
                    format!("{}M", value >> 20)
                } else {
                    format!("{}K", value >> 10)
                }
            }
            AxisKind::Prefetch => (if value == 0 { "off" } else { "on" }).to_string(),
            _ => value.to_string(),
        }
    }
}

/// One sweep axis: a knob plus the ordered grid of values to visit.
///
/// Grids must be non-empty and strictly increasing — the order the
/// monotonicity properties in `tests/sweep_properties.rs` are stated
/// in. Values are validated against the base machine when the axis is
/// expanded ([`SweepAxis::configs`]), through the same fallible
/// builders callers use directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepAxis {
    kind: AxisKind,
    points: Vec<u64>,
}

impl SweepAxis {
    fn new(kind: AxisKind, points: Vec<u64>) -> Self {
        assert!(!points.is_empty(), "a sweep axis needs at least one point");
        assert!(
            points.windows(2).all(|w| w[0] < w[1]),
            "sweep grid must be strictly increasing: {points:?}"
        );
        SweepAxis { kind, points }
    }

    /// An L3-capacity axis over `bytes` (each a whole number of sets).
    pub fn l3_bytes(bytes: Vec<u64>) -> Self {
        SweepAxis::new(AxisKind::L3Bytes, bytes)
    }

    /// A ROB-size axis over `entries`.
    pub fn rob_entries(entries: Vec<u64>) -> Self {
        SweepAxis::new(AxisKind::RobEntries, entries)
    }

    /// An RS-size axis over `entries`.
    pub fn rs_entries(entries: Vec<u64>) -> Self {
        SweepAxis::new(AxisKind::RsEntries, entries)
    }

    /// A predictor-history axis over `bits` (0 = static not-taken).
    pub fn predictor_bits(bits: Vec<u64>) -> Self {
        SweepAxis::new(AxisKind::PredictorBits, bits)
    }

    /// The prefetcher off/on axis.
    pub fn prefetch() -> Self {
        SweepAxis::new(AxisKind::Prefetch, vec![0, 1])
    }

    /// The knob this axis varies.
    pub fn kind(&self) -> AxisKind {
        self.kind
    }

    /// The grid values, in sweep order.
    pub fn points(&self) -> &[u64] {
        &self.points
    }

    /// Column labels for the grid.
    pub fn labels(&self) -> Vec<String> {
        self.points.iter().map(|&v| self.kind.label(v)).collect()
    }

    /// Apply one grid value to the base machine.
    pub fn apply(&self, base: &CpuConfig, value: u64) -> Result<CpuConfig, ConfigError> {
        let base = base.clone();
        match self.kind {
            AxisKind::L3Bytes => base.try_with_l3_bytes(value),
            AxisKind::RobEntries => base.try_with_rob_entries(value as u32),
            AxisKind::RsEntries => base.try_with_rs_entries(value as u32),
            AxisKind::PredictorBits => base.try_with_predictor_bits(value as u32),
            AxisKind::Prefetch => Ok(base.with_prefetch(value != 0)),
        }
    }

    /// Expand the axis into one full machine description per point.
    pub fn configs(&self, base: &CpuConfig) -> Result<Vec<CpuConfig>, ConfigError> {
        self.points.iter().map(|&v| self.apply(base, v)).collect()
    }

    /// The default grid for each axis: the paper's Table III value
    /// bracketed both ways, so every curve crosses the measured
    /// machine.
    pub fn default_axes() -> Vec<SweepAxis> {
        vec![
            SweepAxis::l3_bytes(vec![1536 << 10, 3 << 20, 6 << 20, 12 << 20, 24 << 20]),
            SweepAxis::rob_entries(vec![32, 64, 128, 256]),
            SweepAxis::rs_entries(vec![12, 24, 36, 72]),
            SweepAxis::predictor_bits(vec![0, 4, 8, 12]),
            SweepAxis::prefetch(),
        ]
    }

    /// A reduced grid (two points per axis, three axes) for smoke runs
    /// and CI determinism checks.
    pub fn reduced_axes() -> Vec<SweepAxis> {
        vec![
            SweepAxis::l3_bytes(vec![6 << 20, 12 << 20]),
            SweepAxis::rob_entries(vec![64, 128]),
            SweepAxis::predictor_bits(vec![0, 12]),
        ]
    }
}

/// One workload's curve along one axis: the measured counter block and
/// derived metric row at every grid point, in axis order.
#[derive(Debug, Clone)]
pub struct WorkloadCurve {
    /// The workload swept.
    pub id: BenchmarkId,
    /// Raw counter block per grid point (the monotonicity properties
    /// are stated on these).
    pub counts: Vec<PerfCounts>,
    /// Derived metric row per grid point.
    pub metrics: Vec<Metrics>,
}

/// The full result of sweeping a set of workloads along one axis.
#[derive(Debug, Clone)]
pub struct AxisSweep {
    /// The knob varied.
    pub kind: AxisKind,
    /// Grid values, in sweep order.
    pub values: Vec<u64>,
    /// Column labels for the grid.
    pub labels: Vec<String>,
    /// One curve per swept workload, in input order.
    pub curves: Vec<WorkloadCurve>,
}

/// Sweep `ids` along every axis in `axes` against `bench`'s machine,
/// window and seed.
///
/// Each distinct `(workload, config)` cell belongs to the first curve
/// (axis-major, then workload) that contains it; each curve with cells
/// of its own is one job over [`crate::pool::jobs`] workers. A job reads
/// its cells from the process-wide counter cache under each config's
/// `stable_hash` key and simulates the missing ones together on one
/// synthesized trace. Results are reassembled in `(axis, point,
/// workload)` order, so output is bit-identical to per-cell runs and to
/// the sequential reference at any worker count.
///
/// With a recorder attached to `bench`, `sweep_point` / `sweep_axis`
/// events are emitted after the parallel phase in that same fixed
/// order (`ts` is 0 throughout — sweep events live in the host's
/// logical time, like the cache telemetry; ordering comes from `seq`).
///
/// Returns the first [`ConfigError`] if any grid value is invalid for
/// the base machine; no simulation runs in that case.
pub fn run(
    bench: &Characterizer,
    ids: &[BenchmarkId],
    axes: &[SweepAxis],
) -> Result<Vec<AxisSweep>, ConfigError> {
    // Expand and validate the whole grid before simulating anything.
    let expanded: Vec<Vec<CpuConfig>> = axes
        .iter()
        .map(|axis| axis.configs(bench.config()))
        .collect::<Result<_, _>>()?;

    // One job per curve (axis × workload), holding the curve's points
    // whose (workload, config) cell no earlier curve holds: the base
    // machine sits on every default axis, and only its first curve
    // simulates it. Workers measure through a recorder-less clone so no
    // event reaches the sink from a nondeterministic thread interleaving.
    let quiet = bench.clone().with_recorder(Recorder::disabled());
    let mut owned = HashSet::new();
    let mut jobs: Vec<(BenchmarkId, Vec<CpuConfig>)> = Vec::new();
    for configs in &expanded {
        for &id in ids {
            let cells: Vec<CpuConfig> = configs
                .iter()
                .filter(|cfg| owned.insert((id, cfg.stable_hash())))
                .cloned()
                .collect();
            if !cells.is_empty() {
                jobs.push((id, cells));
            }
        }
    }
    let filled = pool::parallel_map(jobs, move |_, (id, cfgs)| {
        let counts = quiet.raw_counts_across(id, &cfgs);
        let cells = cfgs.iter().map(move |cfg| (id, cfg.stable_hash()));
        cells.zip(counts).collect::<Vec<_>>()
    });
    let blocks: HashMap<(BenchmarkId, u64), PerfCounts> = filled.into_iter().flatten().collect();

    // Reassemble in (axis, point, workload) order.
    let mut sweeps = Vec::with_capacity(axes.len());
    for (axis, configs) in axes.iter().zip(&expanded) {
        let mut curves: Vec<WorkloadCurve> = ids
            .iter()
            .map(|&id| WorkloadCurve {
                id,
                counts: Vec::with_capacity(configs.len()),
                metrics: Vec::with_capacity(configs.len()),
            })
            .collect();
        for cfg in configs {
            let hash = cfg.stable_hash();
            for curve in curves.iter_mut() {
                let counts = blocks[&(curve.id, hash)];
                curve
                    .metrics
                    .push(Metrics::from_counts(curve.id.name(), &counts));
                curve.counts.push(counts);
            }
        }
        sweeps.push(AxisSweep {
            kind: axis.kind,
            values: axis.points.clone(),
            labels: axis.labels(),
            curves,
        });
    }

    emit_sweep_events(bench.recorder(), &sweeps);
    Ok(sweeps)
}

/// Emit the deterministic event stream for an already-computed sweep:
/// per axis, one `sweep_point` per (point, workload) cell in grid
/// order, then the `sweep_axis` summary.
fn emit_sweep_events(recorder: &Recorder, sweeps: &[AxisSweep]) {
    if !recorder.is_enabled() {
        return;
    }
    for sweep in sweeps {
        for (p, label) in sweep.labels.iter().enumerate() {
            for curve in &sweep.curves {
                let m = &curve.metrics[p];
                let c = &curve.counts[p];
                recorder.emit(
                    0,
                    "sweep_point",
                    vec![
                        ("axis", Value::str(sweep.kind.name())),
                        ("point", Value::str(label.clone())),
                        ("value", Value::U64(sweep.values[p])),
                        ("workload", Value::str(curve.id.name())),
                        ("ipc", Value::F64(m.ipc)),
                        ("l2_mpki", Value::F64(m.l2_mpki)),
                        ("l3_mpki", Value::F64(m.l3_mpki)),
                        ("l3_misses", Value::U64(c.l3_misses)),
                        ("misp_ratio", Value::F64(m.branch_misprediction)),
                        ("instructions", Value::U64(m.instructions)),
                    ],
                );
            }
        }
        recorder.emit(
            0,
            "sweep_axis",
            vec![
                ("axis", Value::str(sweep.kind.name())),
                ("points", Value::U64(sweep.values.len() as u64)),
                ("workloads", Value::U64(sweep.curves.len() as u64)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_cpu::core::SimOptions;

    fn harness() -> Characterizer {
        Characterizer::new(
            CpuConfig::westmere_e5645(),
            SimOptions::exact(30_000, 10_000),
            0x53EE_2013,
        )
    }

    #[test]
    fn axis_labels_and_names() {
        let l3 = SweepAxis::l3_bytes(vec![1536 << 10, 12 << 20]);
        assert_eq!(l3.labels(), vec!["1536K", "12M"]);
        assert_eq!(l3.kind().name(), "l3_bytes");
        let pf = SweepAxis::prefetch();
        assert_eq!(pf.labels(), vec!["off", "on"]);
        assert_eq!(
            SweepAxis::rob_entries(vec![32, 64]).labels(),
            vec!["32", "64"]
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_grid_is_rejected() {
        let _ = SweepAxis::rob_entries(vec![64, 32]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_grid_is_rejected() {
        let _ = SweepAxis::l3_bytes(Vec::new());
    }

    #[test]
    fn invalid_grid_value_surfaces_the_config_error() {
        let bench = harness();
        // 1000 bytes is not a whole number of L3 sets.
        let err = run(
            &bench,
            &[BenchmarkId::Sort],
            &[SweepAxis::l3_bytes(vec![1000])],
        )
        .unwrap_err();
        assert_eq!(err.param, "l3.size_bytes");
    }

    #[test]
    fn grid_shape_and_baseline_point_match_plain_runs() {
        let bench = harness();
        let axes = [SweepAxis::l3_bytes(vec![6 << 20, 12 << 20])];
        let ids = [BenchmarkId::Sort, BenchmarkId::Grep];
        let sweeps = run(&bench, &ids, &axes).expect("valid grid");
        assert_eq!(sweeps.len(), 1);
        let sweep = &sweeps[0];
        assert_eq!(sweep.curves.len(), 2);
        for (curve, &id) in sweep.curves.iter().zip(&ids) {
            assert_eq!(curve.id, id);
            assert_eq!(curve.counts.len(), 2);
            assert_eq!(curve.metrics.len(), 2);
            // The 12 MB point *is* the paper's machine: identical to a
            // plain (unswept) run of the same harness.
            assert_eq!(curve.counts[1], bench.raw_counts(id), "{id:?}");
        }
    }

    #[test]
    fn rob_32_sweep_point_runs_on_exact_capacity_rings() {
        // The SoA backend rings are allocated at exactly the configured
        // capacity (no pow2 rounding, no slack slot), so the smallest
        // grid point in the default ROB axis exercises a 32-entry ring
        // end to end. Regression test for the flat-array refactor: the
        // window must still complete, with the shrunken ROB visible as
        // added stall pressure, and the baseline point bit-identical to
        // the unswept machine.
        let bench = harness();
        let sweeps = run(
            &bench,
            &[BenchmarkId::Sort],
            &[SweepAxis::rob_entries(vec![32, 128])],
        )
        .expect("valid grid");
        let curve = &sweeps[0].curves[0];
        let (small, base) = (&curve.counts[0], &curve.counts[1]);
        assert!(
            small.instructions >= 30_000,
            "the measured window must complete at ROB=32"
        );
        assert!(
            small.cycles > base.cycles,
            "a quarter-size ROB cannot be as fast as the full one"
        );
        assert!(
            small.rob_full_stall_cycles > base.rob_full_stall_cycles,
            "the shrunken ring must surface as ROB-full stalls"
        );
        assert_eq!(
            *base,
            bench.raw_counts(BenchmarkId::Sort),
            "the 128-entry point is the paper's machine"
        );
    }

    #[test]
    fn sampled_sweeps_flow_through_the_grid() {
        // A sampled harness sweeps exactly like an exact one — same
        // grid shape, same baseline identity — with every point keyed
        // separately from its exact twin in the shared cache.
        let exact = harness();
        let sampled = harness().with_sampling(5_000, 10_000);
        let axes = [SweepAxis::l3_bytes(vec![6 << 20, 12 << 20])];
        let s = run(&sampled, &[BenchmarkId::Grep], &axes).expect("valid grid");
        let e = run(&exact, &[BenchmarkId::Grep], &axes).expect("valid grid");
        let (sc, ec) = (&s[0].curves[0], &e[0].curves[0]);
        assert_eq!(sc.counts.len(), 2);
        assert_eq!(
            sc.counts[1],
            sampled.raw_counts(BenchmarkId::Grep),
            "baseline point matches the unswept sampled run"
        );
        assert_ne!(
            sc.counts[1], ec.counts[1],
            "sampled and exact grids must not share cache entries"
        );
    }

    #[test]
    fn sweep_events_are_emitted_in_grid_order() {
        let (recorder, ring) = dc_obs::Recorder::ring(1 << 10);
        let bench = harness().with_recorder(recorder);
        let axes = [SweepAxis::predictor_bits(vec![0, 12])];
        let ids = [BenchmarkId::Sort, BenchmarkId::WordCount];
        run(&bench, &ids, &axes).expect("valid grid");
        let events = ring.snapshot();
        let points: Vec<(String, String)> = events
            .iter()
            .filter(|e| e.kind == "sweep_point")
            .map(|e| {
                (
                    e.field("point").and_then(Value::as_str).unwrap().to_owned(),
                    e.field("workload")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_owned(),
                )
            })
            .collect();
        assert_eq!(
            points,
            vec![
                ("0".to_owned(), "Sort".to_owned()),
                ("0".to_owned(), "WordCount".to_owned()),
                ("12".to_owned(), "Sort".to_owned()),
                ("12".to_owned(), "WordCount".to_owned()),
            ]
        );
        let summaries = events.iter().filter(|e| e.kind == "sweep_axis").count();
        assert_eq!(summaries, 1);
    }
}
