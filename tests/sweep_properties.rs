//! Property-based invariants of the sensitivity-sweep subsystem.
//!
//! The sweep engine's whole premise is that every point of a curve
//! executes the identical instruction stream (trace seeds depend only
//! on the master seed and the entry, never on the swept config). That
//! makes architectural monotonicity laws testable: on a fixed trace, a
//! bigger last-level cache must not miss more, and a predictor with
//! more history must not mispredict more. These must hold for **all
//! eleven** data-analysis workloads, not just the golden config — and
//! the interval-series conservation law (deltas telescope bit-for-bit
//! to the aggregate) must survive at every swept machine, too.

use dc_cpu::core::SimOptions;
use dc_cpu::CpuConfig;
use dcbench::registry::BenchmarkId;
use dcbench::sweep::{self, AxisSweep, SweepAxis};
use dcbench::Characterizer;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Fixed master seed for the whole suite: the properties are stated
/// per-trace, so the trace must be pinned while the machine varies.
const SEED: u64 = 0x5EED_5EED;

/// A test-sized measurement window. Big enough that every workload's
/// working set exercises the L3 and the predictor tables past warmup,
/// small enough that the full (workload × point) grid stays in tier-1
/// budget.
fn harness() -> Characterizer {
    Characterizer::new(
        CpuConfig::westmere_e5645(),
        SimOptions::exact(120_000, 40_000),
        SEED,
    )
}

fn da_ids() -> Vec<BenchmarkId> {
    BenchmarkId::data_analysis().to_vec()
}

/// The L3 axis swept once, shared by every proptest case (results are
/// also memoized process-wide by the counter cache).
fn l3_sweep() -> &'static AxisSweep {
    static SWEEP: OnceLock<AxisSweep> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let axes = [SweepAxis::l3_bytes(vec![
            1536 << 10,
            3 << 20,
            6 << 20,
            12 << 20,
            24 << 20,
        ])];
        sweep::run(&harness(), &da_ids(), &axes)
            .expect("valid grid")
            .remove(0)
    })
}

/// The predictor-history axis swept once, shared by every case.
///
/// Grid note: between neighboring mid-range history lengths (4 vs 8
/// vs 12 bits) mispredictions sit on a noisy plateau — longer history
/// both sharpens and aliases the gshare tables, so a step of a few
/// bits can move a workload either way by a fraction of a percent.
/// The architectural law is about the *ends* of the axis: no history
/// (static not-taken) must be far worse than short history, which must
/// not beat the full 20-bit predictor with its largest table. Those
/// are the grid points the property is stated on.
fn predictor_sweep() -> &'static AxisSweep {
    static SWEEP: OnceLock<AxisSweep> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let axes = [SweepAxis::predictor_bits(vec![0, 4, 20])];
        sweep::run(&harness(), &da_ids(), &axes)
            .expect("valid grid")
            .remove(0)
    })
}

proptest! {
    /// On a fixed trace, growing the L3 never increases L3 misses —
    /// for every data-analysis workload at every step of the axis.
    #[test]
    fn l3_misses_monotone_in_l3_capacity(w in 0usize..11) {
        let sweep = l3_sweep();
        let curve = &sweep.curves[w];
        for (i, pair) in curve.counts.windows(2).enumerate() {
            prop_assert!(
                pair[1].l3_misses <= pair[0].l3_misses,
                "{}: L3 misses rose {} -> {} between {} and {}",
                curve.id.name(),
                pair[0].l3_misses,
                pair[1].l3_misses,
                sweep.labels[i],
                sweep.labels[i + 1],
            );
        }
        // The instruction stream really was identical at every point.
        for c in &curve.counts[1..] {
            prop_assert_eq!(c.instructions, curve.counts[0].instructions);
        }
    }

    /// On a fixed trace, more predictor history never mispredicts more
    /// — for every data-analysis workload at every step of the axis.
    #[test]
    fn misprediction_monotone_in_predictor_bits(w in 0usize..11) {
        let sweep = predictor_sweep();
        let curve = &sweep.curves[w];
        for (i, pair) in curve.counts.windows(2).enumerate() {
            prop_assert!(
                pair[1].branch_mispredicts <= pair[0].branch_mispredicts,
                "{}: mispredictions rose {} -> {} between {} and {} history bits",
                curve.id.name(),
                pair[0].branch_mispredicts,
                pair[1].branch_mispredicts,
                sweep.labels[i],
                sweep.labels[i + 1],
            );
        }
    }

    /// Interval-sample deltas telescope bit-for-bit to the aggregate at
    /// *every* swept machine, not just the golden config: the interval
    /// recorder may not assume anything about the geometry under it.
    #[test]
    fn sampling_conserves_at_swept_points(
        w in 0usize..11,
        point in 0usize..4,
        every_kcycles in 2u64..40,
    ) {
        let axis = SweepAxis::predictor_bits(vec![0, 4, 8, 12]);
        let cfg = axis
            .apply(harness().config(), axis.points()[point])
            .expect("valid grid value");
        let bench = harness().with_config(cfg);
        let id = da_ids()[w];
        let run = bench.raw_intervals(id, every_kcycles * 1000);
        prop_assert_eq!(run.summed(), run.aggregate, "{}", id.name());
        prop_assert_eq!(run.aggregate, bench.raw_counts(id), "{}", id.name());
    }
}
