//! The hardware-event catalogue.
//!
//! Each [`PerfEvent`] variant is documented with the Westmere event the
//! paper collected (Intel SDM Vol. 3 appendix, e.g. `INST_RETIRED.ANY_P`)
//! and [`PerfEvent::extract`] maps it onto its [`dc_cpu::PerfCounts`]
//! field.

use dc_cpu::PerfCounts;

/// One measurable hardware event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PerfEvent {
    /// `INST_RETIRED.ANY_P` — retired instructions.
    InstructionsRetired,
    /// `CPU_CLK_UNHALTED.THREAD_P` — core cycles.
    UnhaltedCycles,
    /// `L1I.MISSES` — L1 instruction-cache misses.
    L1iMisses,
    /// `L1I.READS` — L1 instruction-cache reads.
    L1iReads,
    /// `ITLB_MISSES.ANY` — first-level ITLB misses.
    ItlbMisses,
    /// `ITLB_MISSES.WALK_COMPLETED` — completed page walks from ITLB misses.
    ItlbWalksCompleted,
    /// `L1D.REPL` — L1 data-cache misses (line replacements).
    L1dMisses,
    /// `DTLB_MISSES.ANY` — first-level DTLB misses.
    DtlbMisses,
    /// `DTLB_MISSES.WALK_COMPLETED` — completed page walks from DTLB misses.
    DtlbWalksCompleted,
    /// `L2_RQSTS.REFERENCES` — L2 demand accesses.
    L2References,
    /// `L2_RQSTS.MISS` — L2 demand misses.
    L2Misses,
    /// `LONGEST_LAT_CACHE.REFERENCE` — L3 references.
    L3References,
    /// `LONGEST_LAT_CACHE.MISS` — L3 misses.
    L3Misses,
    /// `BR_INST_RETIRED.ALL_BRANCHES` — retired branches.
    BranchesRetired,
    /// `BR_MISP_RETIRED.ALL_BRANCHES` — mispredicted branches.
    BranchesMispredicted,
    /// `ILD_STALL.IQ_FULL` class — instruction-fetch stall cycles.
    FetchStallCycles,
    /// `RAT_STALLS.ANY` — register-allocation-table stall cycles.
    RatStallCycles,
    /// `RESOURCE_STALLS.RS_FULL` — reservation-station-full stall cycles.
    RsFullStallCycles,
    /// `RESOURCE_STALLS.ROB_FULL` — re-order-buffer-full stall cycles.
    RobFullStallCycles,
    /// `RESOURCE_STALLS.LOAD` — load-buffer-full stall cycles.
    LoadBufferStallCycles,
    /// `RESOURCE_STALLS.STORE` — store-buffer-full stall cycles.
    StoreBufferStallCycles,
    /// `MEM_INST_RETIRED.LOADS` — retired loads.
    LoadsRetired,
    /// `MEM_INST_RETIRED.STORES` — retired stores.
    StoresRetired,
    /// Retired kernel-mode instructions (ring-0 filter on `INST_RETIRED`).
    KernelInstructions,
    /// Retired user-mode instructions (ring-3 filter on `INST_RETIRED`).
    UserInstructions,
}

impl PerfEvent {
    /// Extract this event's value from a simulated counter block.
    pub fn extract(self, c: &PerfCounts) -> u64 {
        use PerfEvent::*;
        match self {
            InstructionsRetired => c.instructions,
            UnhaltedCycles => c.cycles,
            L1iMisses => c.l1i_misses,
            L1iReads => c.l1i_accesses,
            ItlbMisses => c.itlb_misses,
            ItlbWalksCompleted => c.itlb_walks,
            L1dMisses => c.l1d_misses,
            DtlbMisses => c.dtlb_misses,
            DtlbWalksCompleted => c.dtlb_walks,
            L2References => c.l2_accesses,
            L2Misses => c.l2_misses,
            L3References => c.l3_accesses,
            L3Misses => c.l3_misses,
            BranchesRetired => c.branches,
            BranchesMispredicted => c.branch_mispredicts,
            FetchStallCycles => c.fetch_stall_cycles,
            RatStallCycles => c.rat_stall_cycles,
            RsFullStallCycles => c.rs_full_stall_cycles,
            RobFullStallCycles => c.rob_full_stall_cycles,
            LoadBufferStallCycles => c.load_buf_stall_cycles,
            StoreBufferStallCycles => c.store_buf_stall_cycles,
            LoadsRetired => c.loads,
            StoresRetired => c.stores,
            KernelInstructions => c.kernel_instructions,
            UserInstructions => c.user_instructions,
        }
    }

    /// The full set of events the characterization methodology collects.
    pub fn all() -> &'static [PerfEvent] {
        use PerfEvent::*;
        &[
            InstructionsRetired,
            UnhaltedCycles,
            L1iMisses,
            L1iReads,
            ItlbMisses,
            ItlbWalksCompleted,
            L1dMisses,
            DtlbMisses,
            DtlbWalksCompleted,
            L2References,
            L2Misses,
            L3References,
            L3Misses,
            BranchesRetired,
            BranchesMispredicted,
            FetchStallCycles,
            RatStallCycles,
            RsFullStallCycles,
            RobFullStallCycles,
            LoadBufferStallCycles,
            StoreBufferStallCycles,
            LoadsRetired,
            StoresRetired,
            KernelInstructions,
            UserInstructions,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_about_twenty_events() {
        // The paper: "We collect about 20 events".
        assert!(PerfEvent::all().len() >= 20);
    }

    #[test]
    fn extract_pulls_matching_fields() {
        let c = PerfCounts {
            instructions: 7,
            cycles: 9,
            l2_misses: 3,
            dtlb_walks: 2,
            ..Default::default()
        };
        assert_eq!(PerfEvent::InstructionsRetired.extract(&c), 7);
        assert_eq!(PerfEvent::UnhaltedCycles.extract(&c), 9);
        assert_eq!(PerfEvent::L2Misses.extract(&c), 3);
        assert_eq!(PerfEvent::DtlbWalksCompleted.extract(&c), 2);
    }

    #[test]
    fn all_events_extract_without_panic() {
        let c = PerfCounts::default();
        for e in PerfEvent::all() {
            assert_eq!(e.extract(&c), 0);
        }
    }
}
