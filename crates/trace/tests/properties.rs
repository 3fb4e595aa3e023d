//! Property-based invariants of the trace layer.

use dc_trace::profile::{AccessPattern, DataRegion, InstMix, WorkloadProfile};
use dc_trace::rng::{Geometric, SplitMix64, Zipf};
use dc_trace::synth::SyntheticTrace;
use proptest::prelude::*;

proptest! {
    /// Any valid profile synthesizes any number of ops deterministically.
    #[test]
    fn synthesis_is_total_and_deterministic(
        seed in 0u64..1000,
        code_kib in 4u64..512,
        region_kib in 1u64..4096,
        load in 0.05f64..0.4,
        n in 1usize..4000,
    ) {
        let profile = WorkloadProfile::builder("prop")
            .code_footprint_kib(code_kib)
            .data(vec![DataRegion::new(region_kib << 10, 1.0, AccessPattern::Random)])
            .mix(InstMix { load, ..InstMix::default() })
            .build()
            .expect("valid profile");
        let a: Vec<_> = SyntheticTrace::new(&profile, seed).take(n).collect();
        let b: Vec<_> = SyntheticTrace::new(&profile, seed).take(n).collect();
        prop_assert_eq!(a.len(), n);
        prop_assert_eq!(a, b);
    }

    /// Every synthesized memory address falls inside a declared region
    /// (user-mode profiles only touch user data space).
    #[test]
    fn addresses_stay_in_declared_regions(
        seed in 0u64..500,
        bytes in 1u64..(1 << 22),
    ) {
        let bytes = bytes.max(64);
        let profile = WorkloadProfile::builder("bounds")
            .data(vec![DataRegion::new(bytes, 1.0, AccessPattern::Random)])
            .build()
            .expect("valid");
        for op in SyntheticTrace::new(&profile, seed).take(3000) {
            if let Some(addr) = op.kind.mem_addr() {
                let off = addr - dc_trace::synth::USER_DATA_BASE;
                prop_assert!(off < bytes, "offset {off} outside region of {bytes}");
            }
        }
    }

    /// Dep distances never exceed the documented window.
    #[test]
    fn dep_distances_bounded(seed in 0u64..200) {
        let profile = WorkloadProfile::builder("dep")
            .dep(0.9, 20.0)
            .build()
            .expect("valid");
        for op in SyntheticTrace::new(&profile, seed).take(5000) {
            prop_assert!(op.dep_dist <= 64);
        }
    }

    /// Zipf sampling is always within range and rank-0 never loses to the
    /// tail over a large sample (for skewed exponents).
    #[test]
    fn zipf_in_range_and_skewed(n in 2usize..500, seed in 0u64..100) {
        let zipf = Zipf::new(n, 1.0);
        let mut rng = SplitMix64::new(seed);
        let mut first = 0u32;
        let mut last = 0u32;
        for _ in 0..2000 {
            let s = zipf.sample(&mut rng);
            prop_assert!(s < n);
            if s == 0 { first += 1; }
            if s == n - 1 { last += 1; }
        }
        prop_assert!(first >= last);
    }

    /// Geometric samples have roughly the configured mean.
    #[test]
    fn geometric_mean_tracks(mean in 0.5f64..20.0, seed in 0u64..50) {
        let g = Geometric::with_mean(mean);
        let mut rng = SplitMix64::new(seed);
        let total: u64 = (0..20_000).map(|_| g.sample(&mut rng)).sum();
        let got = total as f64 / 20_000.0;
        prop_assert!((got - mean).abs() < mean * 0.2 + 0.2, "got {got} want {mean}");
    }

    /// Kernel fraction is realised within tolerance for any setting.
    #[test]
    fn kernel_fraction_realised(frac in 0.05f64..0.6) {
        let profile = WorkloadProfile::builder("k")
            .kernel_fraction(frac)
            .build()
            .expect("valid");
        let kernel = SyntheticTrace::new(&profile, 9)
            .take(300_000)
            .filter(|o| o.mode == dc_trace::Mode::Kernel)
            .count();
        let got = kernel as f64 / 300_000.0;
        prop_assert!((got - frac).abs() < 0.05, "got {got} want {frac}");
    }
}
