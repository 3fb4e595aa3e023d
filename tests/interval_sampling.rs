//! Interval PMU series through the characterizer: observation-only
//! recording, telescoping deltas, deterministic event streams, and the
//! Exhibit PH pipeline end to end (its JSONL pinned byte for byte in
//! `golden_exhibit_ph.jsonl`) — plus the SMARTS sampled-mode
//! conservation laws (what the extrapolation may and may not move) and
//! the sampling-off bit-identity pin against the pre-refactor goldens.

use dc_cpu::{core::SimOptions, CpuConfig};
use dc_obs::{Recorder, SharedBuf, Value};
use dcbench::{report, BenchmarkId, Characterizer};
use proptest::prelude::*;

/// Small windows so the full 11-workload exhibit stays fast in CI.
fn harness() -> Characterizer {
    Characterizer::new(
        CpuConfig::westmere_e5645(),
        SimOptions::exact(60_000, 20_000),
        0x5A3D_2013,
    )
}

const EVERY: u64 = 20_000;

#[test]
fn sampling_with_recorder_disabled_changes_no_counters() {
    let c = harness();
    for id in [BenchmarkId::Sort, BenchmarkId::Grep, BenchmarkId::KMeans] {
        let run = c.raw_intervals(id, EVERY);
        // The interval run's aggregate equals the plain simulation of the
        // same (entry, config, window, seed) bit-for-bit…
        assert_eq!(run.aggregate, c.raw_counts(id), "{id:?} aggregate");
        // …and the interval deltas telescope back to it exactly.
        assert_eq!(run.summed(), run.aggregate, "{id:?} telescoping");
    }
}

#[test]
fn sampled_metrics_mirror_the_raw_series() {
    let c = harness();
    let raw = c.raw_intervals(BenchmarkId::Sort, EVERY);
    let derived = c.run_intervals(BenchmarkId::Sort, EVERY);
    assert_eq!(derived.name, BenchmarkId::Sort.name());
    assert_eq!(derived.every_cycles, EVERY);
    assert_eq!(derived.aggregate, raw.aggregate);
    assert_eq!(derived.intervals.len(), raw.samples.len());
    for (iv, s) in derived.intervals.iter().zip(&raw.samples) {
        assert_eq!(iv.start_cycle, s.start_cycle);
        assert_eq!(iv.end_cycle, s.end_cycle);
        assert_eq!(iv.instructions, s.counts.instructions);
        assert!((iv.ipc - s.counts.ipc()).abs() < 1e-12);
        assert!((iv.l2_mpki - s.counts.l2_mpki()).abs() < 1e-12);
    }
}

#[test]
fn phase_exhibit_covers_all_eleven_data_analysis_workloads() {
    let c = harness();
    let figures = report::phase_exhibit(&c, EVERY);
    let ids = BenchmarkId::data_analysis();
    assert_eq!(figures.len(), ids.len());
    assert_eq!(figures.len(), 11, "the paper's eleven DA workloads");
    for (figure, id) in figures.iter().zip(ids) {
        assert_eq!(figure.id, "Exhibit PH");
        assert!(
            figure.title.contains(id.name()),
            "figure order follows workload order: {} vs {:?}",
            figure.title,
            id
        );
        assert_eq!(figure.columns.len(), 5);
        assert!(!figure.rows.is_empty());
        let rendered = figure.render();
        assert!(rendered.contains("Exhibit PH"));
    }
}

#[test]
fn recorder_captures_interval_events_in_workload_order() {
    let (recorder, ring) = Recorder::ring(1 << 14);
    let c = harness().with_recorder(recorder);
    let figures = report::phase_exhibit(&c, EVERY);
    let events = ring.snapshot();

    let summaries: Vec<String> = events
        .iter()
        .filter(|e| e.kind == "workload_sampled")
        .filter_map(|e| e.field("workload").and_then(Value::as_str))
        .map(str::to_owned)
        .collect();
    let expected: Vec<String> = BenchmarkId::data_analysis()
        .iter()
        .map(|id| id.name().to_owned())
        .collect();
    assert_eq!(summaries, expected, "one summary per workload, in order");

    let interval_events = events
        .iter()
        .filter(|e| e.kind == "interval_sample")
        .count();
    let figure_rows: usize = figures.iter().map(|f| f.rows.len()).sum();
    assert_eq!(interval_events, figure_rows, "one event per exhibit row");

    // Events within a workload are in interval order, timestamped at
    // the interval close (simulated cycles).
    let sort_ts: Vec<u64> = events
        .iter()
        .filter(|e| {
            e.kind == "interval_sample"
                && e.field("workload").and_then(Value::as_str) == Some(BenchmarkId::Sort.name())
        })
        .map(|e| e.ts)
        .collect();
    assert!(!sort_ts.is_empty());
    assert!(sort_ts.windows(2).all(|w| w[0] < w[1]));
}

/// Relative error of a derived metric, with a small absolute floor so
/// near-zero denominators don't manufacture huge ratios.
fn rel_err(sampled: f64, exact: f64) -> f64 {
    (sampled - exact).abs() / exact.abs().max(0.1)
}

/// SMARTS sampled-mode conservation laws across **all eleven**
/// data-analysis workloads at the quick window:
///
/// * instructions agree with the exact run to within one retire group
///   (both modes overshoot `max_ops` by at most `retire_width - 1`);
/// * loads, stores and branches are counted in both the detailed and
///   the fast-forward phases, so they conserve tightly — the residue is
///   the in-flight overhang at burst boundaries, not an extrapolation;
/// * L2/L3 MPKI are within the documented 5% bound — misses are event
///   counts over the (identical) access stream, not extrapolations;
/// * derived IPC is within 8% here: cycle counters *are* extrapolated,
///   and their error is sampling variance against workload phase
///   structure, shrinking with the number of detailed bursts. The
///   quick window fits only ~5 bursts of the default plan; the
///   `sampled-validation` CI job enforces the tight documented bounds
///   (≤ 3% IPC, ≤ 5% MPKI) at the full window, which fits ~12.
#[test]
fn smarts_conservation_laws_hold_for_all_eleven_da_workloads() {
    let exact = Characterizer::quick();
    let sampled = Characterizer::quick_sampled();
    for &id in BenchmarkId::data_analysis() {
        let e = exact.raw_counts(id);
        let s = sampled.raw_counts(id);
        assert!(
            e.instructions.abs_diff(s.instructions) <= 8,
            "{id:?}: instructions {} (exact) vs {} (sampled)",
            e.instructions,
            s.instructions
        );
        for (name, ev, sv) in [
            ("loads", e.loads, s.loads),
            ("stores", e.stores, s.stores),
            ("branches", e.branches, s.branches),
        ] {
            let err = rel_err(sv as f64, ev as f64);
            assert!(
                err <= 0.002,
                "{id:?}: {name} drifted {err:.4} ({ev} exact vs {sv} sampled)"
            );
        }
        let (em, sm) = (exact.run(id), sampled.run(id));
        assert!(
            rel_err(sm.ipc, em.ipc) <= 0.08,
            "{id:?}: IPC error {:.4} exceeds the documented quick-window 8% bound ({} vs {})",
            rel_err(sm.ipc, em.ipc),
            em.ipc,
            sm.ipc
        );
        for (name, ev, sv) in [
            ("l2_mpki", em.l2_mpki, sm.l2_mpki),
            ("l3_mpki", em.l3_mpki, sm.l3_mpki),
        ] {
            assert!(
                rel_err(sv, ev) <= 0.05,
                "{id:?}: {name} error {:.4} exceeds the documented 5% bound ({ev} vs {sv})",
                rel_err(sv, ev)
            );
        }
    }
}

/// Cycle/instruction pins captured from the pre-SoA pipeline at
/// `SimOptions::quick()`, seed 2013 — the same values
/// `tests/golden_counts.rs` pins as full counter blocks.
const GOLDEN_PINS: [(BenchmarkId, u64, u64); 3] = [
    (BenchmarkId::Sort, 539_620, 199_999),
    (BenchmarkId::MediaStreaming, 574_726, 199_998),
    (BenchmarkId::HpccStream, 415_437, 200_001),
];

proptest! {
    /// Sampling **off** is the exact pre-refactor simulation, whatever
    /// plan was configured before it was turned off: clearing the plan
    /// must leave no residue in the options, and the SoA pipeline must
    /// reproduce the pre-refactor golden numbers bit-for-bit.
    #[test]
    fn sampling_off_reproduces_pre_refactor_goldens(
        e in 0usize..3,
        detail in 1_000u64..50_000,
        ffwd in 1_000u64..100_000,
    ) {
        let (id, cycles, instructions) = GOLDEN_PINS[e];
        let mut opts = SimOptions::quick().with_sampling(detail, ffwd);
        opts.sample = None;
        prop_assert!(!opts.is_sampled());
        let c = Characterizer::new(CpuConfig::westmere_e5645(), opts, 2013);
        let got = c.raw_counts(id);
        prop_assert_eq!(got.cycles, cycles, "{:?} cycles drifted", id);
        prop_assert_eq!(got.instructions, instructions, "{:?} instructions drifted", id);
    }

    /// A plan whose detailed interval covers the whole window never
    /// fast-forwards, so it *is* the exact simulation — the
    /// extrapolation ratio degenerates to exactly 1.
    #[test]
    fn plan_that_never_fast_forwards_is_bit_identical_to_exact(
        w in 0usize..11,
        detail_scale in 1u64..4,
    ) {
        let id = BenchmarkId::data_analysis()[w];
        let opts = SimOptions::exact(60_000, 20_000);
        let exact = Characterizer::new(CpuConfig::westmere_e5645(), opts, 0x5A3D_2013);
        let sampled = exact.clone().with_sampling(detail_scale * 100_000, 1);
        prop_assert_eq!(sampled.raw_counts(id), exact.raw_counts(id));
    }
}

/// The Exhibit PH event stream of [`harness`] at [`EVERY`], as
/// `same_seed_runs_produce_byte_identical_jsonl` records it.
const GOLDEN_EXHIBIT_PH: &[u8] = include_bytes!("golden_exhibit_ph.jsonl");

#[test]
fn same_seed_runs_produce_byte_identical_jsonl() {
    let run_once = || {
        let buf = SharedBuf::default();
        let recorder = Recorder::jsonl(buf.clone());
        let c = harness().with_recorder(recorder.clone());
        let _ = report::phase_exhibit(&c, EVERY);
        recorder.flush();
        buf.contents()
    };
    let a = run_once();
    let b = run_once();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed phase exhibits must serialize identically");
    // Pinned byte for byte: every interval closes on the same cycle
    // with the same deltas as when the pin was captured.
    assert!(
        a == GOLDEN_EXHIBIT_PH,
        "Exhibit PH JSONL drifted from tests/golden_exhibit_ph.jsonl"
    );

    // And every line is a self-contained JSON object.
    let text = String::from_utf8(a).expect("utf-8 jsonl");
    for line in text.lines() {
        assert!(line.starts_with("{\"seq\":"), "line shape: {line}");
        assert!(line.ends_with("}}"), "line shape: {line}");
    }
}
