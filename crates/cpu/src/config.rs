//! Machine configuration.
//!
//! [`CpuConfig::westmere_e5645`] reproduces Table III of the paper: the
//! Intel Xeon E5645 (Westmere-EP) machine the authors measured. All
//! geometry and latency parameters are exposed so the benchmark harness
//! can run the ablation studies the paper's recommendations imply (LLC
//! capacity, predictor simplification, ROB/RS sizing).

use std::fmt;

/// A rejected machine-description parameter: which knob, what value,
/// and why the geometry cannot be built from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The builder/parameter that rejected its input.
    pub param: &'static str,
    /// The offending value, rendered.
    pub value: String,
    /// Why it is invalid.
    pub reason: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}: {} ({})",
            self.param, self.value, self.reason
        )
    }
}

impl std::error::Error for ConfigError {}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access latency in cycles (hit latency at this level).
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / u64::from(self.line_bytes) / u64::from(self.assoc)).max(1) as usize
    }
}

/// Geometry of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: u32,
    /// Associativity.
    pub assoc: u32,
}

/// Out-of-order engine geometry and penalties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreConfig {
    /// Fetch width (µops per cycle delivered by the front end).
    pub fetch_width: u32,
    /// Rename/dispatch width.
    pub rename_width: u32,
    /// Retire width.
    pub retire_width: u32,
    /// Decode-queue capacity between fetch and rename.
    pub decode_queue: u32,
    /// Re-order buffer entries.
    pub rob_entries: u32,
    /// Reservation-station entries.
    pub rs_entries: u32,
    /// Load-buffer entries.
    pub load_buffer: u32,
    /// Store-buffer entries.
    pub store_buffer: u32,
    /// Branch misprediction (pipeline redirect) penalty in cycles.
    pub mispredict_penalty: u32,
    /// Cycles a RAT (partial-register / read-port) hazard blocks rename.
    pub rat_hazard_penalty: u32,
}

/// Execution latencies by functional class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecLatencies {
    /// Simple integer ALU.
    pub int_alu: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// Divide.
    pub div: u32,
    /// FP add/mul.
    pub fp_alu: u32,
}

/// Memory-system latencies beyond the cache-hit latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemLatencies {
    /// Main-memory access latency in cycles.
    pub memory: u32,
    /// Completed page-walk latency in cycles.
    pub page_walk: u32,
    /// Second-level (shared) TLB hit latency in cycles.
    pub stlb_hit: u32,
    /// Minimum cycles between line transfers from memory: the per-core
    /// DRAM bandwidth share when all cores are loaded (as in the paper's
    /// fully-subscribed cluster nodes).
    pub line_gap: u32,
}

/// Stream-prefetcher configuration (L2 prefetcher, as on Westmere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetchConfig {
    /// Enable the prefetcher.
    pub enabled: bool,
    /// Number of concurrently tracked streams.
    pub streams: u32,
    /// Lines fetched ahead on a stream hit.
    pub depth: u32,
}

/// Complete machine description.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CpuConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified private L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub l3: CacheConfig,
    /// First-level instruction TLB.
    pub itlb: TlbConfig,
    /// First-level data TLB.
    pub dtlb: TlbConfig,
    /// Shared second-level TLB.
    pub stlb: TlbConfig,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Pipeline geometry.
    pub core: CoreConfig,
    /// Execution latencies.
    pub exec: ExecLatencies,
    /// Memory latencies.
    pub mem: MemLatencies,
    /// L2 stream prefetcher.
    pub prefetch: PrefetchConfig,
    /// Branch-predictor global-history bits (gshare); 0 = static
    /// predict-not-taken (the "simpler predictor" ablation).
    pub predictor_history_bits: u32,
    /// Branch-target-buffer entries.
    pub btb_entries: u32,
    /// Physical cores sharing the L3 on one chip ([`crate::chip::Chip`]
    /// capacity; a lone [`crate::core::Core`] ignores it).
    pub cores: u32,
}

impl CpuConfig {
    /// The paper's measurement machine: Intel Xeon E5645 (Westmere-EP),
    /// per Table III — 32 KB 4-way L1-I, 32 KB 8-way L1-D, 256 KB 8-way
    /// L2, 12 MB 16-way shared L3, 64-entry 4-way I/D TLBs, 512-entry
    /// 4-way shared L2 TLB, six 4-wide out-of-order cores per chip.
    pub fn westmere_e5645() -> Self {
        CpuConfig {
            l1i: CacheConfig {
                size_bytes: 32 << 10,
                assoc: 4,
                line_bytes: 64,
                latency: 4,
            },
            l1d: CacheConfig {
                size_bytes: 32 << 10,
                assoc: 8,
                line_bytes: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 256 << 10,
                assoc: 8,
                line_bytes: 64,
                latency: 10,
            },
            l3: CacheConfig {
                size_bytes: 12 << 20,
                assoc: 16,
                line_bytes: 64,
                latency: 38,
            },
            itlb: TlbConfig {
                entries: 64,
                assoc: 4,
            },
            dtlb: TlbConfig {
                entries: 64,
                assoc: 4,
            },
            stlb: TlbConfig {
                entries: 512,
                assoc: 4,
            },
            page_bytes: 4096,
            core: CoreConfig {
                fetch_width: 4,
                rename_width: 4,
                retire_width: 4,
                decode_queue: 28,
                rob_entries: 128,
                rs_entries: 36,
                load_buffer: 48,
                store_buffer: 32,
                mispredict_penalty: 17,
                rat_hazard_penalty: 3,
            },
            exec: ExecLatencies {
                int_alu: 1,
                int_mul: 3,
                div: 22,
                fp_alu: 3,
            },
            mem: MemLatencies {
                memory: 200,
                page_walk: 30,
                stlb_hit: 7,
                line_gap: 30,
            },
            prefetch: PrefetchConfig {
                enabled: true,
                streams: 16,
                depth: 4,
            },
            predictor_history_bits: 12,
            btb_entries: 4096,
            cores: 6,
        }
    }

    /// Longest gshare history the predictor tables honour
    /// ([`crate::branch::BranchPredictor`] clamps here); longer
    /// configured histories would silently alias, so the builder
    /// rejects them instead.
    pub const MAX_PREDICTOR_BITS: u32 = 20;

    /// Same machine with a different last-level cache capacity (for the
    /// paper's LLC-sizing recommendation study). The capacity must be a
    /// positive whole number of sets (a multiple of
    /// `line_bytes * assoc`), otherwise [`CacheConfig::sets`] would
    /// silently truncate the geometry.
    pub fn try_with_l3_bytes(mut self, bytes: u64) -> Result<Self, ConfigError> {
        let set_bytes = u64::from(self.l3.line_bytes) * u64::from(self.l3.assoc);
        if bytes == 0 {
            return Err(ConfigError {
                param: "l3.size_bytes",
                value: bytes.to_string(),
                reason: "capacity must be positive",
            });
        }
        if !bytes.is_multiple_of(set_bytes) {
            return Err(ConfigError {
                param: "l3.size_bytes",
                value: bytes.to_string(),
                reason: "capacity must be a whole number of sets (line_bytes * assoc)",
            });
        }
        self.l3.size_bytes = bytes;
        Ok(self)
    }

    /// Same machine with a different ROB size (OoO-stall ablation). A
    /// zero-entry re-order buffer can never dispatch.
    pub fn try_with_rob_entries(mut self, entries: u32) -> Result<Self, ConfigError> {
        if entries == 0 {
            return Err(ConfigError {
                param: "core.rob_entries",
                value: entries.to_string(),
                reason: "the re-order buffer needs at least one entry",
            });
        }
        self.core.rob_entries = entries;
        Ok(self)
    }

    /// Same machine with a different RS size (OoO-stall ablation). A
    /// zero-entry reservation station can never issue.
    pub fn try_with_rs_entries(mut self, entries: u32) -> Result<Self, ConfigError> {
        if entries == 0 {
            return Err(ConfigError {
                param: "core.rs_entries",
                value: entries.to_string(),
                reason: "the reservation station needs at least one entry",
            });
        }
        self.core.rs_entries = entries;
        Ok(self)
    }

    /// Same machine with a simpler branch predictor (history bits;
    /// 0 = static not-taken). History longer than
    /// [`CpuConfig::MAX_PREDICTOR_BITS`] would be silently clamped by
    /// the predictor tables.
    pub fn try_with_predictor_bits(mut self, bits: u32) -> Result<Self, ConfigError> {
        if bits > Self::MAX_PREDICTOR_BITS {
            return Err(ConfigError {
                param: "predictor_history_bits",
                value: bits.to_string(),
                reason: "history beyond MAX_PREDICTOR_BITS aliases in the tables",
            });
        }
        self.predictor_history_bits = bits;
        Ok(self)
    }

    /// Same machine with a different core count behind the shared L3;
    /// a chip needs at least one core.
    pub fn try_with_cores(mut self, cores: u32) -> Result<Self, ConfigError> {
        if cores == 0 {
            return Err(ConfigError {
                param: "cores",
                value: cores.to_string(),
                reason: "a chip needs at least one core",
            });
        }
        self.cores = cores;
        Ok(self)
    }

    /// Same machine with the prefetcher switched on/off.
    pub fn with_prefetch(mut self, enabled: bool) -> Self {
        self.prefetch.enabled = enabled;
        self
    }

    /// Stable 64-bit digest of the complete machine description.
    ///
    /// Two configs hash equal iff every geometry/latency parameter is
    /// equal, and the value is stable across runs of the same build
    /// (`DefaultHasher::new` uses fixed keys) — the property the
    /// characterization result cache keys on.
    pub fn stable_hash(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig::westmere_e5645()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn westmere_matches_table_iii() {
        let c = CpuConfig::westmere_e5645();
        assert_eq!(c.l1i.size_bytes, 32 << 10);
        assert_eq!(c.l1i.assoc, 4);
        assert_eq!(c.l1d.assoc, 8);
        assert_eq!(c.l2.size_bytes, 256 << 10);
        assert_eq!(c.l3.size_bytes, 12 << 20);
        assert_eq!(c.l3.assoc, 16);
        assert_eq!(c.itlb.entries, 64);
        assert_eq!(c.stlb.entries, 512);
        assert_eq!(c.core.retire_width, 4);
    }

    #[test]
    fn sets_computation() {
        let c = CpuConfig::westmere_e5645();
        assert_eq!(c.l1i.sets(), 128); // 32K / 64B / 4 ways
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.l3.sets(), 12288);
    }

    #[test]
    fn stable_hash_distinguishes_configs() {
        let base = CpuConfig::westmere_e5645();
        assert_eq!(
            base.stable_hash(),
            CpuConfig::westmere_e5645().stable_hash()
        );
        assert_ne!(
            base.stable_hash(),
            base.clone()
                .try_with_l3_bytes(6 << 20)
                .expect("a whole number of L3 sets")
                .stable_hash()
        );
        assert_ne!(
            base.stable_hash(),
            base.clone().with_prefetch(false).stable_hash()
        );
        assert_ne!(
            base.stable_hash(),
            base.clone()
                .try_with_predictor_bits(0)
                .expect("a history the tables honour")
                .stable_hash()
        );
    }

    #[test]
    fn l3_builder_rejects_broken_geometries() {
        let base = CpuConfig::westmere_e5645();
        let err = base.clone().try_with_l3_bytes(0).unwrap_err();
        assert_eq!(err.param, "l3.size_bytes");
        assert!(err.reason.contains("positive"));
        // 1000 bytes is not a whole number of 64 B x 16-way sets.
        let err = base.clone().try_with_l3_bytes(1000).unwrap_err();
        assert!(err.reason.contains("whole number of sets"), "{err}");
        // One set (line_bytes * assoc) is the smallest legal L3.
        let one_set = u64::from(base.l3.line_bytes) * u64::from(base.l3.assoc);
        let ok = base.try_with_l3_bytes(one_set).expect("one set is legal");
        assert_eq!(ok.l3.sets(), 1);
    }

    #[test]
    fn window_builders_reject_zero_entries() {
        let base = CpuConfig::westmere_e5645();
        let err = base.clone().try_with_rob_entries(0).unwrap_err();
        assert_eq!(err.param, "core.rob_entries");
        let err = base.clone().try_with_rs_entries(0).unwrap_err();
        assert_eq!(err.param, "core.rs_entries");
        assert!(base.clone().try_with_rob_entries(1).is_ok());
        assert!(base.try_with_rs_entries(1).is_ok());
    }

    #[test]
    fn predictor_builder_rejects_out_of_range_history() {
        let base = CpuConfig::westmere_e5645();
        let err = base
            .clone()
            .try_with_predictor_bits(CpuConfig::MAX_PREDICTOR_BITS + 1)
            .unwrap_err();
        assert_eq!(err.param, "predictor_history_bits");
        let ok = base
            .try_with_predictor_bits(CpuConfig::MAX_PREDICTOR_BITS)
            .expect("the clamp boundary itself is legal");
        assert_eq!(ok.predictor_history_bits, CpuConfig::MAX_PREDICTOR_BITS);
    }

    #[test]
    fn cores_builder_rejects_empty_chip() {
        let err = CpuConfig::westmere_e5645().try_with_cores(0).unwrap_err();
        assert_eq!(err.param, "cores");
        assert!(err.to_string().contains("invalid cores: 0"));
    }

    #[test]
    fn ablation_builders() {
        let c = CpuConfig::westmere_e5645()
            .try_with_l3_bytes(6 << 20)
            .expect("a whole number of L3 sets")
            .try_with_rob_entries(64)
            .expect("a nonempty ROB")
            .try_with_rs_entries(18)
            .expect("a nonempty RS")
            .try_with_predictor_bits(0)
            .expect("a history the tables honour")
            .with_prefetch(false);
        assert_eq!(c.l3.size_bytes, 6 << 20);
        assert_eq!(c.core.rob_entries, 64);
        assert_eq!(c.core.rs_entries, 18);
        assert_eq!(c.predictor_history_bits, 0);
        assert!(!c.prefetch.enabled);
    }
}
