//! Set-associative caches and the three-level hierarchy.
//!
//! True LRU within a set, write-allocate, and an optional L2 stream
//! prefetcher (Westmere's DCU/L2 streamer class): demand misses that form
//! an ascending line stream trigger prefetches of the next few lines into
//! L2 and L3. Prefetch fills are tracked separately so demand-miss
//! counters match what hardware counters report. Each set keeps its ways
//! in recency order: a hit moves its way to the front and a miss drops
//! the last way, so LRU needs no use stamps and no victim search.
//!
//! Ownership mirrors the E5645 die: [`PrivateHierarchy`] holds the
//! structures each core owns alone (split L1s, unified L2, the stream
//! prefetcher, and this core's share of the L3 demand statistics), while
//! [`SharedL3`] holds what the whole chip contends for (the 12 MB L3 and
//! the DRAM channel). [`Hierarchy`] composes one of each for the
//! single-core [`Core`](crate::core::Core) path; [`Chip`](crate::chip::Chip)
//! points N private hierarchies at one shared level.

use crate::config::{CacheConfig, CpuConfig, PrefetchConfig};

/// One set-associative, true-LRU cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    assoc: usize,
    line_shift: u32,
    /// `sets - 1` when the set count is a power of two (the common
    /// case); lets the hot set-index computation be a mask instead of
    /// a 64-bit modulo. The L3's 12288 sets take the modulo path.
    set_mask: u64,
    sets_pow2: bool,
    /// `tags[set * assoc + way]`, most recently used way first;
    /// `u64::MAX` = invalid (invalid ways always sit at the tail).
    tags: Vec<u64>,
    /// Demand accesses.
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
}

impl Cache {
    /// Build a cache from its geometry.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        let assoc = cfg.assoc as usize;
        Cache {
            sets,
            assoc,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            sets_pow2: sets.is_power_of_two(),
            tags: vec![u64::MAX; sets * assoc],
            accesses: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if self.sets_pow2 {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets as u64) as usize
        }
    }

    /// Demand access to byte address `addr`; returns `true` on hit.
    /// Misses allocate the line (LRU victim).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let hit = self.touch_line(addr >> self.line_shift);
        if !hit {
            self.misses += 1;
        }
        hit
    }

    /// Fill without counting stats (prefetch). Returns `true` if the line
    /// was already present.
    pub fn fill(&mut self, addr: u64) -> bool {
        self.touch_line(addr >> self.line_shift)
    }

    /// Probe without allocating or counting; `true` if present.
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = self.set_of(line);
        let base = set * self.assoc;
        self.tags[base..base + self.assoc].contains(&line)
    }

    #[inline]
    fn touch_line(&mut self, line: u64) -> bool {
        let base = self.set_of(line) * self.assoc;
        touch_mru(&mut self.tags[base..base + self.assoc], line)
    }

    /// Demand miss ratio so far.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Reset statistics (cache contents are kept — used after warm-up).
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }
}

/// Touch `tag` in one set whose `ways` are in recency order (most recent
/// first, invalid `u64::MAX` ways at the tail); returns `true` on a hit.
/// A hit moves the way to the front; a miss drops the last way (an
/// invalid one while the set has room, else the least recently used)
/// and inserts `tag` at the front. This is exactly true LRU: the same
/// hits, misses and evictions as per-way use stamps with the oldest
/// stamp evicted.
#[inline]
pub(crate) fn touch_mru(ways: &mut [u64], tag: u64) -> bool {
    // One pass that searches and shifts at once: each way takes the tag
    // of the way before it, until the way `tag` was found in.
    let mut carry = tag;
    for way in ways {
        let t = std::mem::replace(way, carry);
        if t == tag {
            return true;
        }
        carry = t;
    }
    false
}

/// Ascending-stream prefetcher, Intel-streamer style.
///
/// Streams are tracked per 4 KiB page region with a confidence counter:
/// a slot is allocated on the first demand line in a page, and only
/// after a second *ascending* line in the same region does it start
/// prefetching (then following the stream across page boundaries).
/// Random traffic inside hot pages almost never ascends consistently,
/// so it cannot create junk streams that pollute the L2 or burn memory
/// bandwidth.
#[derive(Debug, Clone)]
struct StreamTable {
    /// Page currently tracked per slot (`u64::MAX` = free).
    page: Vec<u64>,
    /// Next expected line per slot.
    next_line: Vec<u64>,
    /// Consecutive ascending matches per slot.
    confidence: Vec<u8>,
    /// Last-match stamp per slot (LRU victim selection).
    last_match: Vec<u64>,
    clock: u64,
    depth: u32,
}

/// Lines per 4 KiB tracking region.
const LINES_PER_PAGE: u64 = 64;

impl StreamTable {
    fn new(cfg: &PrefetchConfig) -> Self {
        let slots = cfg.streams.max(1) as usize;
        StreamTable {
            page: vec![u64::MAX; slots],
            next_line: vec![0; slots],
            confidence: vec![0; slots],
            last_match: vec![0; slots],
            clock: 0,
            depth: cfg.depth,
        }
    }

    /// Observe a demand line; return how many lines ahead to prefetch
    /// (0 = no confident stream match).
    fn observe(&mut self, line: u64) -> u32 {
        self.clock += 1;
        let page = line / LINES_PER_PAGE;
        for i in 0..self.page.len() {
            if self.page[i] == u64::MAX {
                continue;
            }
            let same_region = page == self.page[i] || page == self.page[i] + 1;
            if !same_region {
                continue;
            }
            self.last_match[i] = self.clock;
            if line == self.next_line[i] || line == self.next_line[i] + 1 {
                // The stream advances (one-line jitter allowed), possibly
                // into the next page.
                self.page[i] = page;
                self.next_line[i] = line + 1;
                self.confidence[i] = self.confidence[i].saturating_add(1);
                return if self.confidence[i] >= 2 {
                    self.depth
                } else {
                    0
                };
            }
            if line < self.next_line[i] {
                // Re-miss of an already-streamed line (evicted from L1 by
                // unrelated traffic): benign, leave the stream alone.
                return 0;
            }
            // Jump ahead within the region: resync without judging.
            self.next_line[i] = line + 1;
            self.page[i] = page;
            return 0;
        }
        // Allocate the least-recently-matched slot for this page.
        let victim = (0..self.page.len())
            .min_by_key(|&i| self.last_match[i])
            .expect("slots exist");
        self.page[victim] = page;
        self.next_line[victim] = line + 1;
        self.confidence[victim] = 1;
        self.last_match[victim] = self.clock;
        0
    }
}

/// Where a memory access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    /// First-level cache (L1-I or L1-D depending on the access).
    L1,
    /// Unified private L2.
    L2,
    /// Shared last-level cache.
    L3,
    /// Main memory.
    Memory,
}

/// The chip-shared memory system: the last-level cache plus the DRAM
/// channel every core's misses queue on.
///
/// Holds no per-core statistics — demand accesses and misses are
/// attributed by the [`PrivateHierarchy`] that issued them, the way
/// per-core PMU events attribute LLC traffic on real hardware. The
/// embedded [`Cache`]'s own counters accumulate chip-wide totals and are
/// never read by the simulation.
#[derive(Debug, Clone)]
pub struct SharedL3 {
    /// The shared last-level cache.
    pub l3: Cache,
    lat_l3: u32,
    lat_mem: u32,
    /// Minimum cycles between line transfers from memory (the channel is
    /// shared: co-running cores queue on the same slots).
    mem_line_gap: u64,
    /// Cycle at which the memory channel is next free.
    next_mem_slot: u64,
}

impl SharedL3 {
    /// Build the shared level from a machine config.
    pub fn new(cfg: &CpuConfig) -> Self {
        SharedL3 {
            l3: Cache::new(&cfg.l3),
            lat_l3: cfg.l3.latency,
            lat_mem: cfg.mem.memory,
            mem_line_gap: u64::from(cfg.mem.line_gap),
            next_mem_slot: 0,
        }
    }

    /// Whether the memory channel already has a deep backlog at `now`.
    fn channel_saturated(&self, now: u64) -> bool {
        self.next_mem_slot.saturating_sub(now) >= 4 * self.mem_line_gap
    }

    /// Charge one line transfer on the memory channel at time `now`;
    /// returns the queueing delay in cycles.
    ///
    /// The controller queue is bounded (MSHR-limited): outstanding
    /// transfers never book the channel more than a few line slots into
    /// the future, so oversubscription throttles bandwidth consumers
    /// without starving later demand requests behind an unbounded queue.
    fn charge_memory(&mut self, now: u64) -> u64 {
        let delay = self.next_mem_slot.saturating_sub(now);
        let horizon = now + 6 * self.mem_line_gap;
        self.next_mem_slot = (self.next_mem_slot.max(now) + self.mem_line_gap).min(horizon);
        delay
    }

    /// The earliest cycle at which the channel backlog has drained
    /// below the saturation threshold. Fast-forward paces its synthetic
    /// clock past this point before each op: on the detailed machine a
    /// saturated channel stalls retire, which advances time — without
    /// mirroring that feedback, the synthetic clock would sit inside a
    /// permanently-saturated channel and drop prefetches the detailed
    /// run would have issued.
    pub(crate) fn channel_relief(&self) -> u64 {
        self.next_mem_slot.saturating_sub(4 * self.mem_line_gap)
    }

    /// Re-anchor the channel backlog after a functional fast-forward
    /// burst advanced a synthetic clock to `virtual_now` while the
    /// global clock stayed at `now`: the backlog (bounded by the
    /// controller horizon) is preserved relative to the real clock, so
    /// resumed detailed execution sees neither a phantom idle channel
    /// nor bookings stranded far in the future.
    pub(crate) fn rewind_channel(&mut self, virtual_now: u64, now: u64) {
        let backlog = self.next_mem_slot.saturating_sub(virtual_now);
        self.next_mem_slot = self.next_mem_slot.min(now + backlog);
    }

    /// Reset the embedded cache's chip-wide counters, keeping contents.
    pub fn reset_stats(&mut self) {
        self.l3.reset_stats();
    }
}

/// The structures one core owns alone: split L1s, unified L2, the L2
/// stream prefetcher, and this core's attribution counters for traffic
/// it sends to the shared level.
#[derive(Debug, Clone)]
pub struct PrivateHierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    streams: StreamTable,
    prefetch_enabled: bool,
    line_bytes: u64,
    lat_l1: u32,
    lat_l2: u32,
    /// Physical-address salt applied to every shared-L3/DRAM address:
    /// co-running tasks execute identical virtual working sets, but each
    /// process is backed by its own physical pages, so their lines index
    /// distinct L3 sets and contend for capacity instead of aliasing.
    salt: u64,
    /// Prefetch lines issued by this core.
    pub prefetches: u64,
    /// Demand L3 accesses issued by this core (its L2 demand misses).
    pub l3_accesses: u64,
    /// Demand L3 misses suffered by this core.
    pub l3_misses: u64,
}

impl PrivateHierarchy {
    /// Build one core's private hierarchy (no address salt: core 0 of a
    /// chip, or a standalone core, sees raw addresses).
    pub fn new(cfg: &CpuConfig) -> Self {
        PrivateHierarchy::with_salt(cfg, 0)
    }

    /// Build a private hierarchy whose shared-level traffic is offset by
    /// `salt` (distinct physical backing per co-running core).
    pub fn with_salt(cfg: &CpuConfig, salt: u64) -> Self {
        PrivateHierarchy {
            l1i: Cache::new(&cfg.l1i),
            l1d: Cache::new(&cfg.l1d),
            l2: Cache::new(&cfg.l2),
            streams: StreamTable::new(&cfg.prefetch),
            prefetch_enabled: cfg.prefetch.enabled,
            line_bytes: u64::from(cfg.l2.line_bytes),
            lat_l1: cfg.l1d.latency,
            lat_l2: cfg.l2.latency,
            salt,
            prefetches: 0,
            l3_accesses: 0,
            l3_misses: 0,
        }
    }

    #[inline]
    fn salted(&self, addr: u64) -> u64 {
        // Kernel addresses sit near the top of the address space, so the
        // offset must wrap rather than saturate.
        addr.wrapping_add(self.salt)
    }

    /// Demand L3 access with per-core attribution.
    fn l3_access(&mut self, shared: &mut SharedL3, addr: u64) -> bool {
        self.l3_accesses += 1;
        let hit = shared.l3.access(self.salted(addr));
        if !hit {
            self.l3_misses += 1;
        }
        hit
    }

    /// Instruction fetch of `addr` at cycle `now`: `(level, latency)`.
    ///
    /// On a miss, the front end's next-line prefetcher also fills
    /// `addr + line` (sequential code fetch is essentially free on real
    /// machines).
    pub fn fetch_inst(&mut self, shared: &mut SharedL3, addr: u64, now: u64) -> (MemLevel, u32) {
        if self.l1i.access(addr) {
            return (MemLevel::L1, 0); // hit latency hidden by pipelining
        }
        let out = self.beyond_l1(shared, addr, now);
        if self.prefetch_enabled {
            let next = addr + self.line_bytes;
            let next_salted = self.salted(next);
            let in_l3 = shared.l3.probe(next_salted);
            if in_l3 || !shared.channel_saturated(now) {
                self.prefetches += 1;
                if !in_l3 {
                    shared.charge_memory(now);
                }
                self.l1i.fill(next);
                self.l2.fill(next);
                shared.l3.fill(next_salted);
            }
        }
        out
    }

    /// Data access of `addr` at cycle `now` (loads and store-drains):
    /// `(level, latency)`.
    pub fn access_data(&mut self, shared: &mut SharedL3, addr: u64, now: u64) -> (MemLevel, u32) {
        if self.l1d.access(addr) {
            return (MemLevel::L1, self.lat_l1);
        }
        let (lvl, lat) = self.beyond_l1(shared, addr, now);
        (lvl, lat + self.lat_l1)
    }

    fn beyond_l1(&mut self, shared: &mut SharedL3, addr: u64, now: u64) -> (MemLevel, u32) {
        let line = addr / self.line_bytes;
        let l2_hit = self.l2.access(addr);
        if self.prefetch_enabled {
            let ahead = self.streams.observe(line);
            for i in 1..=ahead {
                let pf = addr + u64::from(i) * self.line_bytes;
                // Prefetches are dropped when the memory channel is
                // saturated: demand requests keep priority, so heavy
                // streams degrade to demand misses once bandwidth-bound.
                if !shared.l3.probe(self.salted(pf)) {
                    if shared.channel_saturated(now) {
                        continue;
                    }
                    shared.charge_memory(now);
                }
                self.prefetches += 1;
                self.l2.fill(pf);
                shared.l3.fill(self.salted(pf));
            }
        }
        if l2_hit {
            return (MemLevel::L2, self.lat_l2);
        }
        if self.l3_access(shared, addr) {
            return (MemLevel::L3, shared.lat_l3);
        }
        let queue = shared.charge_memory(now);
        (MemLevel::Memory, shared.lat_mem + queue as u32)
    }

    /// Reset this core's statistics (after warm-up), keeping contents.
    /// The shared level is untouched: other cores' warm-up boundaries
    /// are their own.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.prefetches = 0;
        self.l3_accesses = 0;
        self.l3_misses = 0;
    }
}

/// Three-level hierarchy for a standalone core: one private hierarchy
/// composed with its own (uncontended) shared level.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// The core-private structures (L1s, L2, prefetcher, attribution).
    pub private: PrivateHierarchy,
    /// The L3 + DRAM channel, exclusive to this core here.
    pub shared: SharedL3,
}

impl Hierarchy {
    /// Build the hierarchy from a machine config.
    pub fn new(cfg: &CpuConfig) -> Self {
        Hierarchy {
            private: PrivateHierarchy::new(cfg),
            shared: SharedL3::new(cfg),
        }
    }

    /// Instruction fetch of `addr` at cycle `now`: `(level, latency)`.
    pub fn fetch_inst(&mut self, addr: u64, now: u64) -> (MemLevel, u32) {
        self.private.fetch_inst(&mut self.shared, addr, now)
    }

    /// Data access of `addr` at cycle `now` (loads and store-drains):
    /// `(level, latency)`.
    pub fn access_data(&mut self, addr: u64, now: u64) -> (MemLevel, u32) {
        self.private.access_data(&mut self.shared, addr, now)
    }

    /// Reset all statistics (after warm-up), keeping contents.
    pub fn reset_stats(&mut self) {
        self.private.reset_stats();
        self.shared.reset_stats();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use proptest::prelude::*;

    /// Stamp LRU, the way sets were kept before recency order: each way
    /// carries the clock of its last touch, and a miss fills the first
    /// invalid way or else evicts the oldest stamp. The oracle
    /// [`touch_mru`] sets must match hit for hit.
    pub(crate) struct StampLru {
        assoc: usize,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
    }

    impl StampLru {
        pub(crate) fn new(sets: usize, assoc: usize) -> Self {
            StampLru {
                assoc,
                tags: vec![u64::MAX; sets * assoc],
                stamps: vec![0; sets * assoc],
                clock: 0,
            }
        }

        /// Touch `tag` in `set`; `true` on a hit. Misses allocate.
        pub(crate) fn touch(&mut self, set: usize, tag: u64) -> bool {
            self.clock += 1;
            let base = set * self.assoc;
            let ways = &self.tags[base..base + self.assoc];
            if let Some(w) = ways.iter().position(|&t| t == tag) {
                self.stamps[base + w] = self.clock;
                return true;
            }
            let mut victim = 0;
            let mut oldest = u64::MAX;
            for w in 0..self.assoc {
                if self.tags[base + w] == u64::MAX {
                    victim = w;
                    break;
                }
                if self.stamps[base + w] < oldest {
                    oldest = self.stamps[base + w];
                    victim = w;
                }
            }
            self.tags[base + victim] = tag;
            self.stamps[base + victim] = self.clock;
            false
        }

        pub(crate) fn probe(&self, set: usize, tag: u64) -> bool {
            let base = set * self.assoc;
            self.tags[base..base + self.assoc].contains(&tag)
        }
    }

    /// A tag from one random draw that lands in one of three sets (the
    /// first two and the last) and collides with up to `3 * assoc`
    /// others there, so sets fill, hit and evict often.
    pub(crate) fn crowded_tag(x: u64, sets: usize, assoc: usize) -> u64 {
        let set = [0, 1 % sets, sets - 1][(x >> 8) as usize % 3] as u64;
        set + ((x >> 16) % (3 * assoc as u64)) * sets as u64
    }

    proptest! {
        #[test]
        fn recency_order_matches_stamp_lru(ops in collection::vec(0u64..u64::MAX, 1..600)) {
            let base = CpuConfig::westmere_e5645();
            let one_way = CacheConfig { assoc: 1, ..base.l1d };
            assert_eq!(base.l3.sets(), 12288, "the L3's modulo geometry");
            for cfg in [base.l1d, base.l3, one_way] {
                let (sets, assoc) = (cfg.sets(), cfg.assoc as usize);
                let mut cache = Cache::new(&cfg);
                let mut oracle = StampLru::new(sets, assoc);
                let mut misses = 0;
                for (i, &x) in ops.iter().enumerate() {
                    let line = crowded_tag(x, sets, assoc);
                    let set = (line % sets as u64) as usize;
                    let addr = (line << 6) | (x & 63);
                    match x % 3 {
                        0 => {
                            let hit = oracle.touch(set, line);
                            misses += u64::from(!hit);
                            prop_assert_eq!(cache.access(addr), hit, "access {}", i);
                        }
                        1 => {
                            let hit = oracle.touch(set, line);
                            prop_assert_eq!(cache.fill(addr), hit, "fill {}", i);
                        }
                        _ => {
                            let hit = oracle.probe(set, line);
                            prop_assert_eq!(cache.probe(addr), hit, "probe {}", i);
                        }
                    }
                }
                prop_assert_eq!(cache.misses, misses);
            }
        }
    }

    fn tiny() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        }
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(&tiny());
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x108)); // same line
        assert_eq!(c.accesses, 3);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1024B / 64B / 2-way = 8 sets. Lines mapping to set 0: 0, 8, 16…
        let mut c = Cache::new(&tiny());
        let line = |i: u64| i * 8 * 64; // all map to set 0
        assert!(!c.access(line(0)));
        assert!(!c.access(line(1)));
        assert!(c.access(line(0))); // refresh 0; LRU is 1
        assert!(!c.access(line(2))); // evicts 1
        assert!(c.access(line(0)));
        assert!(!c.access(line(1))); // 1 was evicted
    }

    #[test]
    fn fill_does_not_count_stats() {
        let mut c = Cache::new(&tiny());
        c.fill(0x40);
        assert_eq!(c.accesses, 0);
        assert!(c.access(0x40));
        assert_eq!(c.misses, 0);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let c0 = Cache::new(&tiny());
        assert!(!c0.probe(0x40));
        let mut c = Cache::new(&tiny());
        c.access(0x40);
        assert!(c.probe(0x40));
        assert_eq!(c.accesses, 1);
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = Cache::new(&tiny());
        // 64 distinct lines (4 KiB) round-robin in a 1 KiB cache.
        for round in 0..10 {
            for i in 0..64u64 {
                let hit = c.access(i * 64);
                if round > 0 {
                    assert!(!hit, "capacity thrash must keep missing");
                }
            }
        }
        assert!(c.miss_ratio() > 0.99);
    }

    #[test]
    fn hierarchy_miss_path_and_inclusion() {
        let mut h = Hierarchy::new(&CpuConfig::westmere_e5645().with_prefetch(false));
        let (lvl, lat) = h.access_data(0x1234_5678, 0);
        assert_eq!(lvl, MemLevel::Memory);
        assert!(lat >= 200);
        let (lvl2, _) = h.access_data(0x1234_5678, 0);
        assert_eq!(lvl2, MemLevel::L1);
    }

    #[test]
    fn l2_feeds_l1_misses() {
        let mut h = Hierarchy::new(&CpuConfig::westmere_e5645().with_prefetch(false));
        // Touch 64 KiB of lines: fits L2 (256K) not L1D (32K).
        for i in 0..1024u64 {
            h.access_data(i * 64, 0);
        }
        let (l1_misses, l2_misses) = (h.private.l1d.misses, h.private.l2.misses);
        // Second sweep: L1 thrash continues, L2 absorbs everything.
        for i in 0..1024u64 {
            h.access_data(i * 64, 0);
        }
        assert!(h.private.l1d.misses > l1_misses, "L1 keeps missing");
        assert_eq!(h.private.l2.misses, l2_misses, "L2 fully captures the set");
    }

    #[test]
    fn prefetcher_hides_streaming_l2_misses() {
        let mut on = Hierarchy::new(&CpuConfig::westmere_e5645());
        let mut off = Hierarchy::new(&CpuConfig::westmere_e5645().with_prefetch(false));
        for i in 0..200_000u64 {
            let a = i * 64; // pure ascending stream, 12.8 MB > L3
                            // One line every ~40 cycles: within channel bandwidth.
            on.access_data(a, i * 40);
            off.access_data(a, i * 40);
        }
        assert!(on.private.prefetches > 0);
        assert!(
            (on.private.l2.misses as f64) < 0.25 * off.private.l2.misses as f64,
            "streamer should absorb most sequential demand misses: on={} off={}",
            on.private.l2.misses,
            off.private.l2.misses
        );
    }

    #[test]
    fn prefetcher_ignores_random_streams() {
        let mut h = Hierarchy::new(&CpuConfig::westmere_e5645());
        let mut x = 12345u64;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.access_data((x >> 16) % (256 << 20), 0);
        }
        // Random traffic should not trigger meaningful prefetching.
        assert!(
            h.private.prefetches < 5_000,
            "prefetches={}",
            h.private.prefetches
        );
    }

    #[test]
    fn fetch_inst_uses_l1i() {
        let mut h = Hierarchy::new(&CpuConfig::westmere_e5645());
        h.fetch_inst(0x40_0000, 0);
        assert_eq!(h.private.l1i.accesses, 1);
        assert_eq!(h.private.l1d.accesses, 0);
        let (lvl, lat) = h.fetch_inst(0x40_0000, 0);
        assert_eq!(lvl, MemLevel::L1);
        assert_eq!(lat, 0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = Hierarchy::new(&CpuConfig::westmere_e5645());
        h.access_data(0x8000, 0);
        h.reset_stats();
        assert_eq!(h.private.l1d.accesses, 0);
        let (lvl, _) = h.access_data(0x8000, 0);
        assert_eq!(lvl, MemLevel::L1, "contents preserved across reset");
    }
}
