//! Summaries of repeated measurements and the failure tally.
//!
//! A timing is reported as a median plus, where the sample supports it,
//! a higher percentile; a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a tail figure is never one
//! or two lucky outliers. Every summary carries its sample count.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even
/// count). `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => {
            let hi = v.swap_remove(n / 2);
            Some((v[n / 2 - 1] + hi) / 2.0)
        }
    }
}

/// Nearest-rank `pct`-th percentile (0 < `pct` < 100), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    assert!(
        pct > 0.0 && pct < 100.0,
        "percentile must be inside (0, 100)"
    );
    let v = sorted(samples);
    let n = v.len();
    // 1-based nearest rank: the smallest rank covering pct% of samples.
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and sample count of one timed quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// How many samples it summarises.
    pub n: usize,
}

impl Summary {
    /// Summarise a non-empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            median: median(samples).expect("a summary needs at least one sample"),
            n: samples.len(),
        }
    }
}

/// Attempted and failed operations. An operation is one simulated
/// entry or cell, one request or one store append; an error reply, a
/// refused or dropped request and an output mismatch all count as
/// failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn record_many(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Operations that succeeded, as a share of those attempted.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.fail_frac()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 leaves exactly ten samples beyond: reportable.
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        // With 999 samples rank 990 leaves nine beyond: refused.
        assert_eq!(percentile(&samples[..999], 99.0), None);
        // p90 of 100 samples leaves exactly ten beyond.
        assert_eq!(percentile(&samples[..100], 90.0), Some(90.0));
        assert_eq!(percentile(&samples[..99], 90.0), None);
        // The median of a small sample is refused as a percentile but
        // available through `median`.
        assert_eq!(percentile(&samples[..15], 50.0), None);
        assert_eq!(median(&samples[..15]), Some(8.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 90.0), Some(180.0));
    }

    #[test]
    fn summary_reports_its_sample_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn refused_and_errored_requests_count_as_failed() {
        let mut t = Tally::default();
        t.record(true); // answered ok
        t.record(false); // error reply, e.g. queue_full
        t.record(false); // connection dropped before the reply
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.fail_frac(), 0.5);
        assert_eq!(t.ok_frac(), 0.5);
        t.record_many(28, 1); // a pass's store appends, one lost
        assert_eq!(
            t,
            Tally {
                attempted: 32,
                failed: 3
            }
        );
        assert_eq!(Tally::default().fail_frac(), 0.0);
        // A failure count can never exceed what was attempted.
        let mut capped = Tally::default();
        capped.record_many(2, 5);
        assert_eq!(capped.failed, 2);
    }
}
