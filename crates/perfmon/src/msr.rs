//! Model-specific-register model of the PMU.
//!
//! A Westmere core exposes four programmable counters. Software writes an
//! event select + umask into `IA32_PERFEVTSELx` and reads accumulated
//! counts from `IA32_PMCx`. [`Pmu`] mirrors that: [`Pmu::program`] writes
//! a select register, [`Pmu::observe`] accumulates a simulation's counter
//! block into every programmed PMC, and [`Pmu::read`] returns a PMC value
//! — the same program/collect/read flow the paper drives through `perf`.

use crate::events::PerfEvent;
use dc_cpu::PerfCounts;

/// Number of programmable counters per Westmere core.
pub const NUM_COUNTERS: usize = 4;

/// One `IA32_PERFEVTSELx` register's decoded contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSelect {
    /// Event-select code (bits 0-7).
    pub event_code: u8,
    /// Unit mask (bits 8-15).
    pub umask: u8,
    /// Counter enabled (bit 22).
    pub enabled: bool,
    /// The catalogue event this selection corresponds to.
    pub event: PerfEvent,
}

/// The per-core performance-monitoring unit.
#[derive(Debug, Clone, Default)]
pub struct Pmu {
    selects: [Option<EventSelect>; NUM_COUNTERS],
    pmcs: [u64; NUM_COUNTERS],
}

impl Pmu {
    /// A PMU with all counters disabled.
    pub fn new() -> Self {
        Pmu::default()
    }

    /// Program counter `idx` to count `event`.
    ///
    /// # Panics
    /// Panics if `idx >= NUM_COUNTERS` (hardware has exactly four).
    pub fn program(&mut self, idx: usize, event: PerfEvent) {
        assert!(
            idx < NUM_COUNTERS,
            "Westmere exposes {NUM_COUNTERS} counters"
        );
        self.selects[idx] = Some(EventSelect {
            event_code: event.event_code(),
            umask: event.umask(),
            enabled: true,
            event,
        });
        self.pmcs[idx] = 0;
    }

    /// Disable counter `idx` (keeps its accumulated value readable).
    pub fn disable(&mut self, idx: usize) {
        if let Some(sel) = self.selects.get_mut(idx).and_then(|s| s.as_mut()) {
            sel.enabled = false;
        }
    }

    /// Accumulate a simulation interval's counts into every enabled PMC.
    pub fn observe(&mut self, counts: &PerfCounts) {
        for (sel, pmc) in self.selects.iter().zip(self.pmcs.iter_mut()) {
            if let Some(sel) = sel {
                if sel.enabled {
                    *pmc += sel.event.extract(counts);
                }
            }
        }
    }

    /// Read `IA32_PMCx`.
    ///
    /// # Panics
    /// Panics if `idx >= NUM_COUNTERS`.
    pub fn read(&self, idx: usize) -> u64 {
        assert!(idx < NUM_COUNTERS);
        self.pmcs[idx]
    }

    /// The currently programmed selection for counter `idx`, if any.
    pub fn selection(&self, idx: usize) -> Option<EventSelect> {
        self.selects.get(idx).copied().flatten()
    }

    /// Zero all PMCs (selections stay programmed).
    pub fn clear(&mut self) {
        self.pmcs = [0; NUM_COUNTERS];
    }
}

/// Collect every catalogue event from a counter block by multiplexing the
/// four hardware counters across groups, as `perf stat` does when more
/// events are requested than counters exist.
pub fn collect_all(counts: &PerfCounts) -> Vec<(PerfEvent, u64)> {
    let mut out = Vec::new();
    for group in PerfEvent::all().chunks(NUM_COUNTERS) {
        let mut pmu = Pmu::new();
        for (i, &e) in group.iter().enumerate() {
            pmu.program(i, e);
        }
        pmu.observe(counts);
        for (i, &e) in group.iter().enumerate() {
            out.push((e, pmu.read(i)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counts() -> PerfCounts {
        PerfCounts {
            instructions: 1_000,
            cycles: 1_500,
            l2_misses: 12,
            branches: 160,
            branch_mispredicts: 4,
            ..Default::default()
        }
    }

    #[test]
    fn program_observe_read() {
        let mut pmu = Pmu::new();
        pmu.program(0, PerfEvent::InstructionsRetired);
        pmu.program(3, PerfEvent::L2Misses);
        pmu.observe(&sample_counts());
        assert_eq!(pmu.read(0), 1_000);
        assert_eq!(pmu.read(3), 12);
        assert_eq!(pmu.read(1), 0, "unprogrammed counter stays zero");
    }

    #[test]
    fn observe_accumulates_across_intervals() {
        let mut pmu = Pmu::new();
        pmu.program(0, PerfEvent::UnhaltedCycles);
        pmu.observe(&sample_counts());
        pmu.observe(&sample_counts());
        assert_eq!(pmu.read(0), 3_000);
    }

    #[test]
    fn disable_stops_counting() {
        let mut pmu = Pmu::new();
        pmu.program(0, PerfEvent::BranchesRetired);
        pmu.observe(&sample_counts());
        pmu.disable(0);
        pmu.observe(&sample_counts());
        assert_eq!(pmu.read(0), 160);
    }

    #[test]
    #[should_panic]
    fn programming_fifth_counter_panics() {
        Pmu::new().program(4, PerfEvent::UnhaltedCycles);
    }

    #[test]
    fn clear_zeroes_pmcs_but_keeps_selection() {
        let mut pmu = Pmu::new();
        pmu.program(0, PerfEvent::InstructionsRetired);
        pmu.observe(&sample_counts());
        pmu.clear();
        assert_eq!(pmu.read(0), 0);
        assert!(pmu.selection(0).is_some());
        pmu.observe(&sample_counts());
        assert_eq!(pmu.read(0), 1_000);
    }

    #[test]
    fn collect_all_multiplexes_every_event() {
        let counts = sample_counts();
        let all = collect_all(&counts);
        assert_eq!(all.len(), PerfEvent::all().len());
        let get = |e: PerfEvent| all.iter().find(|(x, _)| *x == e).unwrap().1;
        assert_eq!(get(PerfEvent::InstructionsRetired), 1_000);
        assert_eq!(get(PerfEvent::BranchesMispredicted), 4);
    }
}
