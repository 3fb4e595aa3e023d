//! Performance-counter state: every event the paper reads, in raw form.
//!
//! `dc-perfmon` layers the event catalogue and derived metrics on top;
//! this struct is what the core fills in during simulation.

/// Raw event counts collected by one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounts {
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Retired µops (instructions in the paper's PKI denominators).
    pub instructions: u64,
    /// Retired user-mode µops.
    pub user_instructions: u64,
    /// Retired kernel-mode µops.
    pub kernel_instructions: u64,

    /// Cycles rename made zero progress because the decode queue was
    /// empty (front-end / instruction-fetch stall).
    pub fetch_stall_cycles: u64,
    /// Cycles rename was blocked by a RAT hazard.
    pub rat_stall_cycles: u64,
    /// Cycles rename was blocked because the RS was full.
    pub rs_full_stall_cycles: u64,
    /// Cycles rename was blocked because the ROB was full.
    pub rob_full_stall_cycles: u64,
    /// Cycles rename was blocked because the load buffer was full.
    pub load_buf_stall_cycles: u64,
    /// Cycles rename was blocked because the store buffer was full.
    pub store_buf_stall_cycles: u64,

    /// L1-I demand accesses.
    pub l1i_accesses: u64,
    /// L1-I demand misses.
    pub l1i_misses: u64,
    /// ITLB translations.
    pub itlb_accesses: u64,
    /// ITLB first-level misses.
    pub itlb_misses: u64,
    /// Completed page walks caused by ITLB misses.
    pub itlb_walks: u64,

    /// L1-D demand accesses.
    pub l1d_accesses: u64,
    /// L1-D demand misses.
    pub l1d_misses: u64,
    /// DTLB translations.
    pub dtlb_accesses: u64,
    /// DTLB first-level misses.
    pub dtlb_misses: u64,
    /// Completed page walks caused by DTLB misses.
    pub dtlb_walks: u64,

    /// Unified L2 demand accesses.
    pub l2_accesses: u64,
    /// Unified L2 demand misses.
    pub l2_misses: u64,
    /// L3 demand accesses.
    pub l3_accesses: u64,
    /// L3 demand misses.
    pub l3_misses: u64,
    /// Prefetch lines issued by the L2 streamer.
    pub prefetches: u64,

    /// Retired branch instructions.
    pub branches: u64,
    /// Mispredicted branches.
    pub branch_mispredicts: u64,

    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
}

impl PerfCounts {
    /// Add every event from `other` into `self` (chip-level
    /// aggregation across cores; `cycles` sums like the rest, so
    /// divide by the core count for wall-clock-style cycle figures).
    pub fn accumulate(&mut self, other: &PerfCounts) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.user_instructions += other.user_instructions;
        self.kernel_instructions += other.kernel_instructions;
        self.fetch_stall_cycles += other.fetch_stall_cycles;
        self.rat_stall_cycles += other.rat_stall_cycles;
        self.rs_full_stall_cycles += other.rs_full_stall_cycles;
        self.rob_full_stall_cycles += other.rob_full_stall_cycles;
        self.load_buf_stall_cycles += other.load_buf_stall_cycles;
        self.store_buf_stall_cycles += other.store_buf_stall_cycles;
        self.l1i_accesses += other.l1i_accesses;
        self.l1i_misses += other.l1i_misses;
        self.itlb_accesses += other.itlb_accesses;
        self.itlb_misses += other.itlb_misses;
        self.itlb_walks += other.itlb_walks;
        self.l1d_accesses += other.l1d_accesses;
        self.l1d_misses += other.l1d_misses;
        self.dtlb_accesses += other.dtlb_accesses;
        self.dtlb_misses += other.dtlb_misses;
        self.dtlb_walks += other.dtlb_walks;
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
        self.l3_accesses += other.l3_accesses;
        self.l3_misses += other.l3_misses;
        self.prefetches += other.prefetches;
        self.branches += other.branches;
        self.branch_mispredicts += other.branch_mispredicts;
        self.loads += other.loads;
        self.stores += other.stores;
    }

    /// Event-wise difference `self - earlier`, for interval series:
    /// `earlier` is a snapshot of the same monotonically counting block
    /// taken previously, so every field of `self` is `>=` its
    /// counterpart. Deltas over consecutive snapshots telescope —
    /// summing them with [`PerfCounts::accumulate`] reproduces the
    /// final block bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter of `earlier` exceeds
    /// `self`'s (i.e. the arguments are not snapshots of one run in
    /// chronological order).
    pub fn delta_since(&self, earlier: &PerfCounts) -> PerfCounts {
        PerfCounts {
            cycles: self.cycles - earlier.cycles,
            instructions: self.instructions - earlier.instructions,
            user_instructions: self.user_instructions - earlier.user_instructions,
            kernel_instructions: self.kernel_instructions - earlier.kernel_instructions,
            fetch_stall_cycles: self.fetch_stall_cycles - earlier.fetch_stall_cycles,
            rat_stall_cycles: self.rat_stall_cycles - earlier.rat_stall_cycles,
            rs_full_stall_cycles: self.rs_full_stall_cycles - earlier.rs_full_stall_cycles,
            rob_full_stall_cycles: self.rob_full_stall_cycles - earlier.rob_full_stall_cycles,
            load_buf_stall_cycles: self.load_buf_stall_cycles - earlier.load_buf_stall_cycles,
            store_buf_stall_cycles: self.store_buf_stall_cycles - earlier.store_buf_stall_cycles,
            l1i_accesses: self.l1i_accesses - earlier.l1i_accesses,
            l1i_misses: self.l1i_misses - earlier.l1i_misses,
            itlb_accesses: self.itlb_accesses - earlier.itlb_accesses,
            itlb_misses: self.itlb_misses - earlier.itlb_misses,
            itlb_walks: self.itlb_walks - earlier.itlb_walks,
            l1d_accesses: self.l1d_accesses - earlier.l1d_accesses,
            l1d_misses: self.l1d_misses - earlier.l1d_misses,
            dtlb_accesses: self.dtlb_accesses - earlier.dtlb_accesses,
            dtlb_misses: self.dtlb_misses - earlier.dtlb_misses,
            dtlb_walks: self.dtlb_walks - earlier.dtlb_walks,
            l2_accesses: self.l2_accesses - earlier.l2_accesses,
            l2_misses: self.l2_misses - earlier.l2_misses,
            l3_accesses: self.l3_accesses - earlier.l3_accesses,
            l3_misses: self.l3_misses - earlier.l3_misses,
            prefetches: self.prefetches - earlier.prefetches,
            branches: self.branches - earlier.branches,
            branch_mispredicts: self.branch_mispredicts - earlier.branch_mispredicts,
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    fn pki(&self, count: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            count as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L1 instruction-cache misses per thousand instructions (Figure 7).
    pub fn l1i_mpki(&self) -> f64 {
        self.pki(self.l1i_misses)
    }

    /// ITLB-miss-caused completed page walks per thousand instructions
    /// (Figure 8).
    pub fn itlb_walk_pki(&self) -> f64 {
        self.pki(self.itlb_walks)
    }

    /// L2 misses per thousand instructions (Figure 9).
    pub fn l2_mpki(&self) -> f64 {
        self.pki(self.l2_misses)
    }

    /// L3 misses per thousand instructions (the shared-cache pressure
    /// metric of Exhibit CO; rises as co-runners contend for the L3).
    pub fn l3_mpki(&self) -> f64 {
        self.pki(self.l3_misses)
    }

    /// Branch mispredictions per thousand instructions (the
    /// phase-exhibit series; the per-branch ratio is
    /// [`PerfCounts::branch_misprediction_ratio`]).
    pub fn branch_mpki(&self) -> f64 {
        self.pki(self.branch_mispredicts)
    }

    /// Ratio of L2 misses satisfied by the L3 (Figure 10, Equation 1).
    pub fn l3_hit_ratio_of_l2_misses(&self) -> f64 {
        if self.l2_misses == 0 {
            0.0
        } else {
            (self.l2_misses.saturating_sub(self.l3_misses)) as f64 / self.l2_misses as f64
        }
    }

    /// DTLB-miss-caused completed page walks per thousand instructions
    /// (Figure 11).
    pub fn dtlb_walk_pki(&self) -> f64 {
        self.pki(self.dtlb_walks)
    }

    /// Branch misprediction ratio (Figure 12).
    pub fn branch_misprediction_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branches as f64
        }
    }

    /// Kernel-mode instruction fraction (Figure 4).
    pub fn kernel_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.kernel_instructions as f64 / self.instructions as f64
        }
    }

    /// Total attributed stall cycles (the paper's normalization base for
    /// Figure 6).
    pub fn total_stall_cycles(&self) -> u64 {
        self.fetch_stall_cycles
            + self.rat_stall_cycles
            + self.rs_full_stall_cycles
            + self.rob_full_stall_cycles
            + self.load_buf_stall_cycles
            + self.store_buf_stall_cycles
    }

    /// Normalized stall breakdown in the paper's Figure 6 order:
    /// `[fetch, rat, load, rs, store, rob]`. Sums to 1 when any stalls
    /// occurred.
    pub fn stall_breakdown(&self) -> [f64; 6] {
        let total = self.total_stall_cycles();
        if total == 0 {
            return [0.0; 6];
        }
        let t = total as f64;
        [
            self.fetch_stall_cycles as f64 / t,
            self.rat_stall_cycles as f64 / t,
            self.load_buf_stall_cycles as f64 / t,
            self.rs_full_stall_cycles as f64 / t,
            self.store_buf_stall_cycles as f64 / t,
            self.rob_full_stall_cycles as f64 / t,
        ]
    }

    /// Share of stalls occurring in the out-of-order part of the pipeline
    /// (RS + ROB + load + store buffers) — the paper's headline contrast
    /// between data-analysis (≈57 %) and service (≈27 %) workloads.
    pub fn ooo_stall_share(&self) -> f64 {
        let total = self.total_stall_cycles();
        if total == 0 {
            return 0.0;
        }
        (self.rs_full_stall_cycles
            + self.rob_full_stall_cycles
            + self.load_buf_stall_cycles
            + self.store_buf_stall_cycles) as f64
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfCounts {
        PerfCounts {
            cycles: 2000,
            instructions: 1000,
            user_instructions: 900,
            kernel_instructions: 100,
            fetch_stall_cycles: 100,
            rat_stall_cycles: 50,
            rs_full_stall_cycles: 200,
            rob_full_stall_cycles: 100,
            load_buf_stall_cycles: 30,
            store_buf_stall_cycles: 20,
            l1i_misses: 23,
            l2_misses: 11,
            l3_misses: 2,
            itlb_walks: 1,
            dtlb_walks: 3,
            branches: 160,
            branch_mispredicts: 4,
            ..PerfCounts::default()
        }
    }

    #[test]
    fn derived_ratios() {
        let c = sample();
        assert!((c.ipc() - 0.5).abs() < 1e-12);
        assert!((c.cpi() - 2.0).abs() < 1e-12);
        assert!((c.l1i_mpki() - 23.0).abs() < 1e-12);
        assert!((c.l2_mpki() - 11.0).abs() < 1e-12);
        assert!((c.l3_hit_ratio_of_l2_misses() - 9.0 / 11.0).abs() < 1e-12);
        assert!((c.dtlb_walk_pki() - 3.0).abs() < 1e-12);
        assert!((c.itlb_walk_pki() - 1.0).abs() < 1e-12);
        assert!((c.branch_misprediction_ratio() - 0.025).abs() < 1e-12);
        assert!((c.kernel_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn stall_breakdown_sums_to_one() {
        let c = sample();
        let b = c.stall_breakdown();
        let sum: f64 = b.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((c.ooo_stall_share() - 350.0 / 500.0).abs() < 1e-12);
    }

    /// Every field nonzero and distinct, written as a full struct
    /// literal (no `..Default::default()`): adding a counter field
    /// without teaching `accumulate`/`delta_since` about it fails to
    /// compile here.
    fn every_field() -> PerfCounts {
        PerfCounts {
            cycles: 1,
            instructions: 2,
            user_instructions: 3,
            kernel_instructions: 4,
            fetch_stall_cycles: 5,
            rat_stall_cycles: 6,
            rs_full_stall_cycles: 7,
            rob_full_stall_cycles: 8,
            load_buf_stall_cycles: 9,
            store_buf_stall_cycles: 10,
            l1i_accesses: 11,
            l1i_misses: 12,
            itlb_accesses: 13,
            itlb_misses: 14,
            itlb_walks: 15,
            l1d_accesses: 16,
            l1d_misses: 17,
            dtlb_accesses: 18,
            dtlb_misses: 19,
            dtlb_walks: 20,
            l2_accesses: 21,
            l2_misses: 22,
            l3_accesses: 23,
            l3_misses: 24,
            prefetches: 25,
            branches: 26,
            branch_mispredicts: 27,
            loads: 28,
            stores: 29,
        }
    }

    #[test]
    fn delta_since_inverts_accumulate_on_every_field() {
        let earlier = sample();
        let step = every_field();
        let mut later = earlier;
        later.accumulate(&step);
        assert_eq!(later.delta_since(&earlier), step);
        assert_eq!(later.delta_since(&later), PerfCounts::default());
        // And deltas re-accumulate to the final block (telescoping).
        let mut rebuilt = earlier;
        rebuilt.accumulate(&later.delta_since(&earlier));
        assert_eq!(rebuilt, later);
    }

    #[test]
    fn branch_mpki_is_mispredicts_per_kilo_instruction() {
        let c = PerfCounts {
            instructions: 4000,
            branch_mispredicts: 6,
            ..PerfCounts::default()
        };
        assert!((c.branch_mpki() - 1.5).abs() < 1e-12);
        assert_eq!(PerfCounts::default().branch_mpki(), 0.0);
    }

    #[test]
    fn zero_counts_are_safe() {
        let c = PerfCounts::default();
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.cpi(), 0.0);
        assert_eq!(c.l1i_mpki(), 0.0);
        assert_eq!(c.l3_hit_ratio_of_l2_misses(), 0.0);
        assert_eq!(c.branch_misprediction_ratio(), 0.0);
        assert_eq!(c.stall_breakdown(), [0.0; 6]);
        assert_eq!(c.ooo_stall_share(), 0.0);
    }
}
