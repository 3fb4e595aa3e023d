//! Property-based laws of the metrics histogram.
//!
//! Two invariants carry the determinism contract:
//!
//! 1. **Quantile bounds bracket the truth**: for any stream and any
//!    quantile, the exact rank-order statistic lies inside
//!    `quantile_bounds`, and the reported upper bound never understates
//!    it (it is the SLO-safe direction).
//! 2. **Growth is monotone**: inserting another observation never
//!    decreases count, sum, max, any bucket count, or any cumulative
//!    bucket count.

use dc_obs::metrics::{bucket_index, HistogramSnapshot, Registry};
use proptest::prelude::*;

fn hist_of(values: &[u64]) -> HistogramSnapshot {
    let reg = Registry::new();
    let h = reg.histogram("h", &[]);
    for &v in values {
        h.observe(v);
    }
    h.snapshot()
}

/// Values spanning every interesting scale: all of bucket 0/1, small
/// powers of two, and the giant end of the u64 line.
struct MixedScale;

impl Strategy for MixedScale {
    type Value = u64;
    fn sample(&self, rng: &mut TestRng) -> u64 {
        match rng.below(4) {
            0 => rng.below(16),
            1 => 16 + rng.below(4080),
            2 => 1u64 << rng.below(64),
            _ => rng.next_u64(),
        }
    }
}

fn value() -> MixedScale {
    MixedScale
}

proptest! {
    /// Law 1: the true rank statistic sits inside the reported bounds
    /// for every standard quantile.
    #[test]
    fn quantile_bounds_bracket_true_quantile(
        values in proptest::collection::vec(value(), 1..300),
        which in 0usize..5,
    ) {
        const QUANTILES: [(u64, u64); 5] = [(1, 2), (9, 10), (99, 100), (1, 100), (1, 1)];
        let (num, den) = QUANTILES[which];
        let snap = hist_of(&values);
        let mut values = values;
        values.sort_unstable();
        let rank = (num as u128 * values.len() as u128).div_ceil(den as u128) as usize;
        let truth = values[rank - 1];
        let (lo, hi) = snap.quantile_bounds(num, den);
        prop_assert!(lo <= truth && truth <= hi,
            "true q{num}/{den}={truth} outside [{lo}, {hi}]");
        // The two edges belong to one bucket (after min/max clamping).
        prop_assert!(bucket_index(lo) == bucket_index(hi)
            || (lo >= snap.min && hi <= snap.max));
        prop_assert!(snap.quantile_upper(num, den) >= truth);
    }

    /// Law 2: one more observation moves every aggregate the right way.
    #[test]
    fn growth_is_monotone(
        values in proptest::collection::vec(value(), 0..200),
        extra in value(),
    ) {
        let before = hist_of(&values);
        let mut grown = values.clone();
        grown.push(extra);
        let after = hist_of(&grown);

        prop_assert_eq!(after.count, before.count + 1);
        prop_assert!(after.sum >= before.sum);
        prop_assert!(after.max >= before.max);
        prop_assert!(after.min <= before.min || before.count == 0);
        // Sparse bucket counts never shrink…
        for &(upper, n) in &before.buckets {
            let grown_n = after
                .buckets
                .iter()
                .find(|&&(u, _)| u == upper)
                .map(|&(_, n)| n)
                .unwrap_or(0);
            prop_assert!(grown_n >= n, "bucket {upper} shrank");
        }
        // …and exactly one cumulative tail grows by exactly one.
        let cum = |s: &HistogramSnapshot, edge: u64| -> u64 {
            s.buckets.iter().filter(|&&(u, _)| u <= edge).map(|&(_, n)| n).sum()
        };
        for &(upper, _) in &after.buckets {
            let delta = cum(&after, upper) - cum(&before, upper);
            prop_assert!(delta <= 1);
            if upper >= extra {
                prop_assert_eq!(delta, 1, "edge {upper} should cover {extra}");
            }
        }
    }

    /// JSON and text exposition are pure functions of the stream.
    #[test]
    fn exposition_is_deterministic(values in proptest::collection::vec(value(), 0..100)) {
        let build = || {
            let reg = Registry::new();
            let h = reg.histogram("h_us", &[("kind", "wait")]);
            for &v in &values {
                h.observe(v);
            }
            reg.snapshot()
        };
        prop_assert_eq!(build().to_json(), build().to_json());
        prop_assert_eq!(build().render_text(), build().render_text());
    }
}
