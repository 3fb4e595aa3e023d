//! Interval PMU series: counter snapshots every N simulated cycles.
//!
//! The paper's methodology is `perf stat` over a whole run — one
//! aggregate block per workload. Its successor work (Jia et al., 2015)
//! stresses that data-analysis workloads move through *phases* (map,
//! shuffle, reduce; scan vs. aggregate) with distinct micro-
//! architectural behavior, the thing `perf stat -I <ms>` shows on real
//! hardware. This module is the simulated equivalent: while the chip's
//! lockstep loop steps a `Pipeline`, an `IntervalRecorder` snapshots
//! the counter block every `every_cycles` simulated cycles and keeps the
//! per-interval *deltas*. ("Sampled" elsewhere in the crate means SMARTS
//! sampling, [`crate::core::SamplePlan`]; the two never mix.)
//!
//! Two invariants make the series trustworthy:
//!
//! * **Observation only.** Recording reads pipeline/hierarchy statistics
//!   and never writes simulator state, so a recorded run's aggregate is
//!   bit-identical to the plain run of the same trace.
//! * **Telescoping.** Interval `k`'s delta is `snapshot(k) −
//!   snapshot(k−1)`; the final partial interval tops the series up to
//!   the aggregate. Accumulating every delta therefore reproduces the
//!   aggregate **exactly**, field for field — there is no second
//!   accounting path that could drift.
//!
//! Timestamps (`start_cycle`/`end_cycle`) are **simulated cycles
//! relative to the warm-up boundary** — the measured window's own
//! clock, never wall time — so the series is deterministic for a given
//! (trace, config, window, seed).

use crate::branch::BranchPredictor;
use crate::cache::PrivateHierarchy;
use crate::core::Pipeline;
use crate::counters::PerfCounts;
use crate::tlb::Mmu;

/// One interval of a recorded run: the counter *deltas* accumulated in
/// `start_cycle..end_cycle` (cycles since the warm-up boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalSample {
    /// Position in the series (0-based).
    pub index: usize,
    /// Measured-window cycle at which the interval opened.
    pub start_cycle: u64,
    /// Measured-window cycle at which the interval closed.
    pub end_cycle: u64,
    /// Events observed within the interval (deltas, not cumulative).
    pub counts: PerfCounts,
}

/// The result of an interval run: the per-interval series plus the
/// aggregate block (bit-identical to the plain run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalRun {
    /// The interval length, in simulated cycles.
    pub every_cycles: u64,
    /// Whole-window counters, exactly as the plain run reports.
    pub aggregate: PerfCounts,
    /// Per-interval deltas; the last interval is usually partial.
    pub samples: Vec<IntervalSample>,
}

impl IntervalRun {
    /// Accumulate every interval delta: equals
    /// [`IntervalRun::aggregate`] bit-for-bit, by construction.
    pub fn summed(&self) -> PerfCounts {
        let mut total = PerfCounts::default();
        for s in &self.samples {
            total.accumulate(&s.counts);
        }
        total
    }
}

/// Collects one pipeline's interval series. The lockstep loop steps the
/// pipeline; the recorder only reads.
#[derive(Debug)]
pub(crate) struct IntervalRecorder {
    every: u64,
    /// Next *global* cycle to snapshot at.
    next_at: u64,
    /// The pipeline has not yet crossed its warm-up boundary.
    warm: bool,
    /// The previous snapshot (cumulative), the subtrahend of the next
    /// delta. Its `cycles` field doubles as the interval start.
    prev: PerfCounts,
    samples: Vec<IntervalSample>,
}

impl IntervalRecorder {
    /// A recorder for `pipe`, before its first step.
    pub(crate) fn new(every_cycles: u64, pipe: &Pipeline) -> Self {
        assert!(every_cycles > 0, "interval length must be positive");
        IntervalRecorder {
            every: every_cycles,
            next_at: every_cycles,
            warm: pipe.in_warmup(),
            prev: PerfCounts::default(),
            samples: Vec::new(),
        }
    }

    /// Next global cycle at which a snapshot fires; the loop fences
    /// its idle skip here so every interval closes at exactly the cycle
    /// the per-cycle loop would close it.
    pub(crate) fn next_at(&self) -> u64 {
        self.next_at
    }

    /// Called after every step of the pipeline at global `cycle`. At the
    /// warm-up boundary the pipeline reset its statistics, so the
    /// warm-up samples are dropped and the interval clock restarts
    /// there; on any cycle but the last, a snapshot is taken once the
    /// clock reaches the next boundary.
    pub(crate) fn after_step(
        &mut self,
        cycle: u64,
        finished: bool,
        pipe: &Pipeline,
        hier: &PrivateHierarchy,
        mmu: &Mmu,
        bp: &BranchPredictor,
    ) {
        if self.warm && !pipe.in_warmup() {
            self.warm = false;
            self.samples.clear();
            self.prev = PerfCounts::default();
            self.next_at = pipe.cycle_base().saturating_add(self.every);
        }
        if finished || cycle < self.next_at {
            return;
        }
        let snap = pipe.snapshot(cycle, hier, mmu, bp);
        self.push_delta(snap);
        self.next_at = self.next_at.saturating_add(self.every);
    }

    /// Close the series with the final (usually partial) interval up
    /// to the aggregate block.
    pub(crate) fn finish(mut self, aggregate: PerfCounts) -> IntervalRun {
        if self.samples.is_empty() || aggregate != self.prev {
            self.push_delta(aggregate);
        }
        IntervalRun {
            every_cycles: self.every,
            aggregate,
            samples: self.samples,
        }
    }

    fn push_delta(&mut self, snap: PerfCounts) {
        let counts = snap.delta_since(&self.prev);
        self.samples.push(IntervalSample {
            index: self.samples.len(),
            start_cycle: self.prev.cycles,
            end_cycle: snap.cycles,
            counts,
        });
        self.prev = snap;
    }
}

#[cfg(test)]
mod tests {
    use crate::chip::Chip;
    use crate::config::CpuConfig;
    use crate::core::{Core, SimOptions};
    use dc_trace::profile::{AccessPattern, WorkloadProfile};
    use dc_trace::SyntheticTrace;

    fn profile() -> WorkloadProfile {
        WorkloadProfile::builder("intervals")
            .region(4 << 20, 1.0, AccessPattern::Random)
            .build()
            .expect("valid test profile")
    }

    fn opts() -> SimOptions {
        SimOptions::exact(60_000, 10_000)
    }

    #[test]
    fn deltas_sum_to_aggregate_bit_for_bit() {
        let cfg = CpuConfig::westmere_e5645();
        let run = Core::new(cfg).run_intervals(SyntheticTrace::new(&profile(), 7), &opts(), 10_000);
        assert!(
            run.samples.len() > 1,
            "window should span several intervals"
        );
        assert_eq!(run.summed(), run.aggregate);
    }

    #[test]
    fn sampling_does_not_perturb_the_aggregate() {
        let cfg = CpuConfig::westmere_e5645();
        let plain = Core::new(cfg.clone()).run(SyntheticTrace::new(&profile(), 7), &opts());
        for every in [1, 977, 10_000, u64::MAX] {
            let recorded = Core::new(cfg.clone()).run_intervals(
                SyntheticTrace::new(&profile(), 7),
                &opts(),
                every,
            );
            assert_eq!(recorded.aggregate, plain, "every={every}");
            assert_eq!(recorded.summed(), plain, "every={every}");
        }
    }

    #[test]
    fn intervals_are_contiguous_and_cover_the_window() {
        let cfg = CpuConfig::westmere_e5645();
        let run = Core::new(cfg).run_intervals(SyntheticTrace::new(&profile(), 3), &opts(), 7_500);
        assert_eq!(run.samples[0].start_cycle, 0);
        for w in run.samples.windows(2) {
            assert_eq!(w[0].end_cycle, w[1].start_cycle);
        }
        for (i, s) in run.samples.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.counts.cycles, s.end_cycle - s.start_cycle);
            assert!(s.end_cycle > s.start_cycle);
        }
        let last = run.samples.last().expect("nonempty");
        assert_eq!(last.end_cycle, run.aggregate.cycles);
        // Full interior intervals span exactly the interval length.
        for s in &run.samples[..run.samples.len() - 1] {
            assert_eq!(s.counts.cycles, 7_500);
        }
    }

    #[test]
    fn oversized_interval_yields_one_sample() {
        let cfg = CpuConfig::westmere_e5645();
        let run =
            Core::new(cfg).run_intervals(SyntheticTrace::new(&profile(), 5), &opts(), u64::MAX);
        assert_eq!(run.samples.len(), 1);
        assert_eq!(run.samples[0].counts, run.aggregate);
        assert_eq!(run.samples[0].start_cycle, 0);
        assert_eq!(run.samples[0].end_cycle, run.aggregate.cycles);
    }

    #[test]
    fn trace_draining_inside_warmup_still_telescopes() {
        let cfg = CpuConfig::westmere_e5645();
        let short = SimOptions::exact(1_000_000, 1_000_000);
        let run = Core::new(cfg.clone()).run_intervals(
            SyntheticTrace::new(&profile(), 9).take(20_000),
            &short,
            5_000,
        );
        let plain = Core::new(cfg).run(SyntheticTrace::new(&profile(), 9).take(20_000), &short);
        assert_eq!(run.aggregate, plain);
        assert_eq!(run.summed(), run.aggregate);
        assert!(run.samples.len() > 1);
    }

    #[test]
    fn chip_sampling_matches_chip_run_per_core() {
        let cfg = CpuConfig::westmere_e5645();
        let traces = |n: u64| {
            (0..n)
                .map(|k| SyntheticTrace::new(&profile(), 11 + k))
                .collect::<Vec<_>>()
        };
        let plain = Chip::new(cfg.clone(), 3).run(traces(3), &opts());
        let recorded = Chip::new(cfg.clone(), 3).run_intervals(traces(3), &opts(), 9_000);
        assert_eq!(recorded.len(), 3);
        for (core, (s, p)) in recorded.iter().zip(&plain).enumerate() {
            assert_eq!(s.aggregate, *p, "core {core} aggregate");
            assert_eq!(s.summed(), *p, "core {core} telescoping");
            assert!(s.samples.len() > 1, "core {core} series");
        }
    }

    #[test]
    #[should_panic(expected = "interval length must be positive")]
    fn zero_interval_panics() {
        let cfg = CpuConfig::westmere_e5645();
        Core::new(cfg).run_intervals(SyntheticTrace::new(&profile(), 1), &opts(), 0);
    }

    #[test]
    #[should_panic(expected = "exact (non-SMARTS) run")]
    fn smarts_run_panics() {
        let cfg = CpuConfig::westmere_e5645();
        let smarts = opts().with_sampling(5_000, 20_000);
        Core::new(cfg).run_intervals(SyntheticTrace::new(&profile(), 1), &smarts, 10_000);
    }
}
