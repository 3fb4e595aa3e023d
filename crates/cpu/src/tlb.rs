//! Two-level TLB with a shared second level and page-walk accounting.
//!
//! Matches the paper's machine: 64-entry 4-way first-level I and D TLBs
//! and a 512-entry 4-way second-level TLB shared between instruction and
//! data translations (so heavy data paging evicts instruction entries —
//! the interaction behind Figure 8's service-workload walk rates).
//! Every level is true LRU, its sets kept in recency order like the
//! caches' sets.

use crate::cache::touch_mru;
use crate::config::{CpuConfig, TlbConfig};

/// One set-associative TLB level (LRU).
#[derive(Debug, Clone)]
pub struct TlbLevel {
    sets: usize,
    assoc: usize,
    /// `sets - 1` when the set count is a power of two: the set index
    /// becomes a mask instead of a 64-bit modulo on the hot path.
    set_mask: u64,
    sets_pow2: bool,
    /// `tags[set * assoc + way]`, most recently used way first.
    tags: Vec<u64>,
}

impl TlbLevel {
    /// Build a level from its geometry.
    pub fn new(cfg: &TlbConfig) -> Self {
        let assoc = cfg.assoc.max(1) as usize;
        let sets = (cfg.entries as usize / assoc).max(1);
        TlbLevel {
            sets,
            assoc,
            set_mask: sets as u64 - 1,
            sets_pow2: sets.is_power_of_two(),
            tags: vec![u64::MAX; sets * assoc],
        }
    }

    /// Access a page number; `true` on hit. Misses allocate.
    #[inline]
    pub fn access(&mut self, page: u64) -> bool {
        let set = if self.sets_pow2 {
            (page & self.set_mask) as usize
        } else {
            (page % self.sets as u64) as usize
        };
        let base = set * self.assoc;
        touch_mru(&mut self.tags[base..base + self.assoc], page)
    }
}

/// Outcome of a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// First-level TLB hit (free).
    L1Hit,
    /// Second-level (shared) TLB hit.
    StlbHit,
    /// Full page walk completed.
    Walk,
}

/// Statistics for one translation side (instruction or data).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations requested.
    pub accesses: u64,
    /// First-level misses.
    pub l1_misses: u64,
    /// Completed page walks (second-level misses).
    pub walks: u64,
}

/// The full MMU: split L1 TLBs, shared second level, walk latencies.
#[derive(Debug, Clone)]
pub struct Mmu {
    itlb: TlbLevel,
    dtlb: TlbLevel,
    stlb: TlbLevel,
    page_shift: u32,
    stlb_latency: u32,
    walk_latency: u32,
    /// Instruction-side statistics.
    pub istats: TlbStats,
    /// Data-side statistics.
    pub dstats: TlbStats,
}

impl Mmu {
    /// Build the MMU from a machine config.
    pub fn new(cfg: &CpuConfig) -> Self {
        Mmu {
            itlb: TlbLevel::new(&cfg.itlb),
            dtlb: TlbLevel::new(&cfg.dtlb),
            stlb: TlbLevel::new(&cfg.stlb),
            page_shift: cfg.page_bytes.trailing_zeros(),
            stlb_latency: cfg.mem.stlb_hit,
            walk_latency: cfg.mem.page_walk,
            istats: TlbStats::default(),
            dstats: TlbStats::default(),
        }
    }

    /// Translate an instruction address: `(outcome, latency)`.
    pub fn translate_inst(&mut self, addr: u64) -> (TlbOutcome, u32) {
        let page = addr >> self.page_shift;
        self.istats.accesses += 1;
        if self.itlb.access(page) {
            return (TlbOutcome::L1Hit, 0);
        }
        self.istats.l1_misses += 1;
        if self.stlb.access(page) {
            return (TlbOutcome::StlbHit, self.stlb_latency);
        }
        self.istats.walks += 1;
        (TlbOutcome::Walk, self.walk_latency)
    }

    /// Translate a data address: `(outcome, latency)`.
    pub fn translate_data(&mut self, addr: u64) -> (TlbOutcome, u32) {
        let page = addr >> self.page_shift;
        self.dstats.accesses += 1;
        if self.dtlb.access(page) {
            return (TlbOutcome::L1Hit, 0);
        }
        self.dstats.l1_misses += 1;
        if self.stlb.access(page) {
            return (TlbOutcome::StlbHit, self.stlb_latency);
        }
        self.dstats.walks += 1;
        (TlbOutcome::Walk, self.walk_latency)
    }

    /// Reset statistics, keeping TLB contents (post-warm-up).
    pub fn reset_stats(&mut self) {
        self.istats = TlbStats::default();
        self.dstats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::{crowded_tag, StampLru};
    use crate::config::CpuConfig;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn recency_order_matches_stamp_lru(pages in collection::vec(0u64..u64::MAX, 1..600)) {
            let base = CpuConfig::westmere_e5645();
            let odd = TlbConfig { entries: 96, assoc: 4 };
            let one_way = TlbConfig { entries: 32, assoc: 1 };
            for cfg in [base.dtlb, base.stlb, odd, one_way] {
                let (assoc, sets) = (cfg.assoc as usize, (cfg.entries / cfg.assoc) as usize);
                let mut tlb = TlbLevel::new(&cfg);
                let mut oracle = StampLru::new(sets, assoc);
                for (i, &x) in pages.iter().enumerate() {
                    let page = crowded_tag(x, sets, assoc);
                    let want = oracle.touch((page % sets as u64) as usize, page);
                    prop_assert_eq!(tlb.access(page), want, "access {} of {:?}", i, cfg);
                }
            }
        }
    }

    #[test]
    fn repeated_translation_hits_l1() {
        let mut m = Mmu::new(&CpuConfig::westmere_e5645());
        let (o1, l1) = m.translate_data(0x1000);
        assert_eq!(o1, TlbOutcome::Walk);
        assert!(l1 >= 30);
        let (o2, l2) = m.translate_data(0x1008);
        assert_eq!(o2, TlbOutcome::L1Hit);
        assert_eq!(l2, 0);
        assert_eq!(m.dstats.walks, 1);
        assert_eq!(m.dstats.accesses, 2);
    }

    #[test]
    fn stlb_catches_l1_overflow() {
        let mut m = Mmu::new(&CpuConfig::westmere_e5645());
        // Touch 256 pages (1 MiB): overflows 64-entry DTLB, fits 512-entry STLB.
        for i in 0..256u64 {
            m.translate_data(i * 4096);
        }
        let walks_after_first = m.dstats.walks;
        assert_eq!(walks_after_first, 256, "first touch always walks");
        for i in 0..256u64 {
            m.translate_data(i * 4096);
        }
        assert_eq!(m.dstats.walks, 256, "second sweep never walks (STLB)");
        assert!(m.dstats.l1_misses > 256, "DTLB keeps missing");
    }

    #[test]
    fn big_footprint_keeps_walking() {
        let mut m = Mmu::new(&CpuConfig::westmere_e5645());
        for round in 0..3 {
            for i in 0..4096u64 {
                m.translate_data(i * 4096); // 16 MiB of pages, > STLB reach
            }
            if round == 0 {
                assert_eq!(m.dstats.walks, 4096);
            }
        }
        assert!(m.dstats.walks > 10_000, "STLB cannot hold 4096 pages");
    }

    #[test]
    fn instruction_and_data_share_stlb() {
        let mut m = Mmu::new(&CpuConfig::westmere_e5645());
        // Prime STLB with an instruction page, then miss DTLB on it: the
        // shared level must hit.
        m.translate_inst(0x40_0000);
        // Evict the DTLB? Page not in DTLB yet, so data access misses L1
        // but hits the shared level.
        let (o, _) = m.translate_data(0x40_0000);
        assert_eq!(o, TlbOutcome::StlbHit);
        assert_eq!(m.dstats.walks, 0);
    }

    #[test]
    fn data_pressure_evicts_instruction_stlb_entries() {
        let mut m = Mmu::new(&CpuConfig::westmere_e5645());
        m.translate_inst(0x40_0000);
        // Flood the shared TLB with 8192 data pages.
        for i in 0..8192u64 {
            m.translate_data(0x1000_0000 + i * 4096);
        }
        // Instruction page should have been evicted from both levels…
        // it may also have been evicted from the ITLB by nothing (ITLB is
        // untouched), so force an L1 miss by flooding ITLB too.
        for i in 1..128u64 {
            m.translate_inst(0x40_0000 + i * 4096);
        }
        let walks_before = m.istats.walks;
        m.translate_inst(0x40_0000);
        assert_eq!(
            m.istats.walks,
            walks_before + 1,
            "shared-TLB eviction causes a walk"
        );
    }

    #[test]
    fn reset_keeps_contents() {
        let mut m = Mmu::new(&CpuConfig::westmere_e5645());
        m.translate_data(0x5000);
        m.reset_stats();
        assert_eq!(m.dstats.accesses, 0);
        let (o, _) = m.translate_data(0x5008);
        assert_eq!(o, TlbOutcome::L1Hit);
    }
}
