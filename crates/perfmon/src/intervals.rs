//! The `perf stat -I`-shaped view: derived metrics per counter
//! interval.
//!
//! `dc-cpu`'s [`IntervalRun`] carries raw per-interval counter deltas;
//! this module derives the per-interval rates the phase exhibits plot —
//! IPC, L2/L3 MPKI, branch MPKI — exactly the way `perf stat -I <ms>`
//! prints rates per interval on real hardware. Ratios are computed
//! *within* each interval (from its deltas), so a phase shift shows up
//! undiluted instead of being averaged into the whole-window mean.

use dc_cpu::{IntervalRun, IntervalSample, PerfCounts};

/// Derived rates for one counter interval.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalMetrics {
    /// Position in the series (0-based).
    pub index: usize,
    /// Measured-window cycle at which the interval opened.
    pub start_cycle: u64,
    /// Measured-window cycle at which the interval closed.
    pub end_cycle: u64,
    /// Instructions retired within the interval.
    pub instructions: u64,
    /// Instructions per cycle within the interval.
    pub ipc: f64,
    /// L2 misses per thousand instructions within the interval.
    pub l2_mpki: f64,
    /// L3 misses per thousand instructions within the interval.
    pub l3_mpki: f64,
    /// Branch mispredictions per thousand instructions within the
    /// interval.
    pub branch_mpki: f64,
}

impl IntervalMetrics {
    /// Derive one interval's rates from its counter deltas.
    pub fn from_sample(s: &IntervalSample) -> Self {
        IntervalMetrics {
            index: s.index,
            start_cycle: s.start_cycle,
            end_cycle: s.end_cycle,
            instructions: s.counts.instructions,
            ipc: s.counts.ipc(),
            l2_mpki: s.counts.l2_mpki(),
            l3_mpki: s.counts.l3_mpki(),
            branch_mpki: s.counts.branch_mpki(),
        }
    }
}

/// A workload's interval series plus its whole-window aggregate: the
/// data behind one Exhibit PH panel.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSeries {
    /// Workload name.
    pub name: String,
    /// Interval length, in simulated cycles.
    pub every_cycles: u64,
    /// Aggregate counters for the whole measured window (bit-identical
    /// to the plain run).
    pub aggregate: PerfCounts,
    /// Per-interval derived rates, in time order.
    pub intervals: Vec<IntervalMetrics>,
}

impl IntervalSeries {
    /// Derive the interval series from an interval run.
    pub fn from_run(name: impl Into<String>, run: &IntervalRun) -> Self {
        IntervalSeries {
            name: name.into(),
            every_cycles: run.every_cycles,
            aggregate: run.aggregate,
            intervals: run
                .samples
                .iter()
                .map(IntervalMetrics::from_sample)
                .collect(),
        }
    }

    /// Peak-to-trough IPC spread across intervals — a scalar "how much
    /// phase behavior" signal (0 for a single-interval series).
    pub fn ipc_spread(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for iv in &self.intervals {
            lo = lo.min(iv.ipc);
            hi = hi.max(iv.ipc);
        }
        if self.intervals.is_empty() {
            0.0
        } else {
            hi - lo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> IntervalRun {
        let mk = |cycles, instructions, l2, l3, mis| PerfCounts {
            cycles,
            instructions,
            l2_misses: l2,
            l3_misses: l3,
            branch_mispredicts: mis,
            ..PerfCounts::default()
        };
        let a = mk(1_000, 2_000, 4, 1, 2);
        let b = mk(1_000, 500, 30, 20, 1);
        let mut aggregate = a;
        aggregate.accumulate(&b);
        IntervalRun {
            every_cycles: 1_000,
            aggregate,
            samples: vec![
                IntervalSample {
                    index: 0,
                    start_cycle: 0,
                    end_cycle: 1_000,
                    counts: a,
                },
                IntervalSample {
                    index: 1,
                    start_cycle: 1_000,
                    end_cycle: 2_000,
                    counts: b,
                },
            ],
        }
    }

    #[test]
    fn per_interval_rates_come_from_the_interval_deltas() {
        let m = IntervalSeries::from_run("sort", &run());
        assert_eq!(m.name, "sort");
        assert_eq!(m.intervals.len(), 2);
        assert!((m.intervals[0].ipc - 2.0).abs() < 1e-12);
        assert!((m.intervals[1].ipc - 0.5).abs() < 1e-12);
        assert!((m.intervals[0].l2_mpki - 2.0).abs() < 1e-12);
        assert!((m.intervals[1].l2_mpki - 60.0).abs() < 1e-12);
        assert!((m.intervals[1].l3_mpki - 40.0).abs() < 1e-12);
        assert!((m.intervals[0].branch_mpki - 1.0).abs() < 1e-12);
        // The aggregate's IPC is the blended mean, not either phase's.
        assert!((m.aggregate.ipc() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn ipc_spread_measures_phase_contrast() {
        let m = IntervalSeries::from_run("sort", &run());
        assert!((m.ipc_spread() - 1.5).abs() < 1e-12);
        let flat = IntervalSeries {
            intervals: Vec::new(),
            ..m
        };
        assert_eq!(flat.ipc_spread(), 0.0);
    }
}
