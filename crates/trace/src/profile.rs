//! Workload profiles: cause-level descriptions of benchmark behaviour.
//!
//! A [`WorkloadProfile`] captures everything the micro-architecture
//! simulator needs to reproduce a workload's counter-visible behaviour:
//!
//! * a [`CodeModel`] — instruction footprint, basic-block popularity and
//!   control-flow regularity (drives L1-I / ITLB / branch-predictor
//!   behaviour),
//! * a set of [`DataRegion`]s — a working-set mixture with per-region
//!   access patterns (drives L1-D / L2 / L3 / DTLB behaviour),
//! * an [`InstMix`] — fractions of loads/stores/branches/FP ops,
//! * an optional [`KernelModel`] — privilege-mode bursts with their own
//!   code and data footprints (drives Figure 4's user/kernel breakdown),
//! * a [`DepModel`] — register-dependence distances (drives achievable
//!   instruction-level parallelism), and
//! * `rat_hazard_rate` — the single direct-injection knob, modelling
//!   partial-register / read-port rename hazards that a synthetic stream
//!   cannot cause organically (see DESIGN.md §7 item 3).
//!
//! Profiles are built with [`WorkloadProfile::builder`], which validates
//! every field on [`ProfileBuilder::build`].

use std::fmt;

/// Bytes per micro-op of instruction footprint (decoded-op granularity).
pub const BYTES_PER_OP: u64 = 4;

/// Model of a workload's instruction stream structure.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeModel {
    /// Total instruction footprint in bytes.
    pub footprint_bytes: u64,
    /// Zipf exponent of basic-block popularity; 0 = flat (worst-case
    /// locality), ~1 = heavily skewed hot loops.
    pub zipf_theta: f64,
    /// Fraction of block-ending branches that are taken on average.
    pub taken_rate: f64,
    /// Probability that a branch deviates from its block's dominant
    /// direction (per-branch entropy floor; sets the direction
    /// misprediction floor).
    pub branch_noise: f64,
    /// Probability that a taken branch goes to the block's fixed preferred
    /// successor rather than a random popular block (sets target
    /// predictability and instruction-stream locality).
    pub regularity: f64,
}

impl Default for CodeModel {
    fn default() -> Self {
        CodeModel {
            footprint_bytes: 64 * 1024,
            zipf_theta: 0.8,
            taken_rate: 0.40,
            branch_noise: 0.02,
            regularity: 0.97,
        }
    }
}

impl CodeModel {
    /// Number of basic blocks implied by the footprint and block size.
    pub fn num_blocks(&self, ops_per_block: u32) -> usize {
        let block_bytes = u64::from(ops_per_block) * BYTES_PER_OP;
        ((self.footprint_bytes / block_bytes).max(2)) as usize
    }
}

/// Spatial access pattern within a [`DataRegion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Cursor advances by `stride` bytes each access, wrapping at the
    /// region end (streaming; prefetcher-friendly).
    Sequential {
        /// Cursor advance per access in bytes.
        stride: u32,
    },
    /// Every access picks a uniformly random 8-byte-aligned offset
    /// (pointer-chasing / hash-table-like; prefetcher-hostile).
    Random,
    /// Like `Sequential` but revisits a window: the cursor advances by
    /// `stride` and rewinds to the window start every `window` bytes,
    /// modelling blocked/tiled reuse (e.g. DGEMM tiles).
    Tiled {
        /// Cursor advance per access in bytes.
        stride: u32,
        /// Reuse window in bytes.
        window: u32,
    },
    /// Object-clustered access: dwell on one (random) 4 KiB page for
    /// `page_dwell` accesses at random offsets, then jump to another
    /// random page. Models heap-object traffic: poor line locality but
    /// real page locality (typical of managed-runtime service heaps).
    Clustered {
        /// Accesses per page before jumping.
        page_dwell: u32,
    },
}

/// One component of a workload's data working-set mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct DataRegion {
    /// Region size in bytes.
    pub bytes: u64,
    /// Fraction of memory accesses that touch this region (weights are
    /// normalised at build time).
    pub weight: f64,
    /// Access pattern within the region.
    pub pattern: AccessPattern,
}

impl DataRegion {
    /// Convenience constructor.
    pub fn new(bytes: u64, weight: f64, pattern: AccessPattern) -> Self {
        DataRegion {
            bytes,
            weight,
            pattern,
        }
    }
}

/// Instruction-class mixture. Remaining probability mass is simple
/// integer ALU work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstMix {
    /// Fraction of µops that are loads.
    pub load: f64,
    /// Fraction of µops that are stores.
    pub store: f64,
    /// Fraction of µops that are branches (determines mean basic-block
    /// length: `1 / branch`).
    pub branch: f64,
    /// Fraction of µops that are FP add/mul.
    pub fp: f64,
    /// Fraction of µops that are integer multiplies.
    pub mul: f64,
    /// Fraction of µops that are divides.
    pub div: f64,
}

impl Default for InstMix {
    fn default() -> Self {
        // A typical integer data-processing mix.
        InstMix {
            load: 0.28,
            store: 0.12,
            branch: 0.16,
            fp: 0.02,
            mul: 0.01,
            div: 0.002,
        }
    }
}

impl InstMix {
    /// Sum of all specified fractions (must be <= 1).
    pub fn total(&self) -> f64 {
        self.load + self.store + self.branch + self.fp + self.mul + self.div
    }

    /// Mean ops per basic block implied by the branch fraction.
    pub fn ops_per_block(&self) -> u32 {
        (1.0 / self.branch.max(1e-3)).round().max(2.0) as u32
    }
}

/// Privilege-mode behaviour: what fraction of instructions retire in
/// kernel mode, and what the kernel's own footprints look like.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelModel {
    /// Fraction of all retired instructions executed in kernel mode.
    pub fraction: f64,
    /// Mean length of one kernel burst (syscall + softirq work), in µops.
    pub burst_ops: u32,
    /// Kernel instruction footprint (network/disk/VFS stacks are large).
    pub code: CodeModel,
    /// Kernel data regions (skb/page-cache/buffer traffic).
    pub data: Vec<DataRegion>,
}

impl KernelModel {
    /// A generic Linux-kernel-ish model: ~400 KiB hot kernel text, buffer
    /// and page-cache traffic with poor locality.
    pub fn generic(fraction: f64) -> Self {
        KernelModel {
            fraction,
            burst_ops: 1200,
            code: CodeModel {
                footprint_bytes: 400 * 1024,
                zipf_theta: 0.85,
                taken_rate: 0.42,
                branch_noise: 0.03,
                regularity: 0.95,
            },
            data: vec![
                DataRegion::new(32 * 1024, 0.55, AccessPattern::Random),
                DataRegion::new(64 * 1024, 0.25, AccessPattern::Clustered { page_dwell: 32 }),
                DataRegion::new(
                    32 * 1024 * 1024,
                    0.20,
                    AccessPattern::Sequential { stride: 16 },
                ),
            ],
        }
    }
}

/// Register-dependence model: how far back an op's producers sit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepModel {
    /// Fraction of µops that have an in-window register dependence.
    pub dep_fraction: f64,
    /// Mean distance (in µops) to the producer, given a dependence exists.
    pub mean_dist: f64,
    /// Given a dependence exists, probability that it is on the most
    /// recent *load* (pointer-chasing / consume-after-load chains) rather
    /// than a distance-sampled producer. Load-chained consumers are what
    /// fill the reservation station while misses are outstanding.
    pub on_load: f64,
    /// Probability that an op joins the workload's *loop-carried serial
    /// chain* (accumulators, induction recurrences): chain members always
    /// depend on the previous member, so this bounds achievable ILP the
    /// way real recurrences do.
    pub serial_chain: f64,
}

impl Default for DepModel {
    fn default() -> Self {
        DepModel {
            dep_fraction: 0.55,
            mean_dist: 6.0,
            on_load: 0.25,
            serial_chain: 0.0,
        }
    }
}

/// Complete cause-level description of one workload. See module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Human-readable workload name.
    pub name: String,
    /// Instruction-stream model.
    pub code: CodeModel,
    /// Data working-set mixture (weights normalised).
    pub data: Vec<DataRegion>,
    /// Instruction-class mixture.
    pub mix: InstMix,
    /// Privilege-mode model; `None` means pure user-mode execution.
    pub kernel: Option<KernelModel>,
    /// Register-dependence model.
    pub dep: DepModel,
    /// Probability per µop of a RAT (rename) hazard bubble.
    pub rat_hazard_rate: f64,
}

impl WorkloadProfile {
    /// Start building a profile with the given name and library defaults.
    pub fn builder(name: impl Into<String>) -> ProfileBuilder {
        ProfileBuilder::new(name)
    }

    /// Kernel-mode instruction fraction (0 when no kernel model).
    pub fn kernel_fraction(&self) -> f64 {
        self.kernel.as_ref().map_or(0.0, |k| k.fraction)
    }

    /// Total data working-set size in bytes.
    pub fn data_footprint(&self) -> u64 {
        self.data.iter().map(|r| r.bytes).sum()
    }
}

impl fmt::Display for WorkloadProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: code {} KiB, data {} KiB across {} regions, {:.0}% kernel",
            self.name,
            self.code.footprint_bytes / 1024,
            self.data_footprint() / 1024,
            self.data.len(),
            self.kernel_fraction() * 100.0
        )
    }
}

/// Validation failure produced by [`ProfileBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct BuildProfileError {
    msg: String,
}

impl fmt::Display for BuildProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid workload profile: {}", self.msg)
    }
}

impl std::error::Error for BuildProfileError {}

/// Builder for [`WorkloadProfile`] (see [`WorkloadProfile::builder`]).
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    profile: WorkloadProfile,
}

impl ProfileBuilder {
    fn new(name: impl Into<String>) -> Self {
        ProfileBuilder {
            profile: WorkloadProfile {
                name: name.into(),
                code: CodeModel::default(),
                data: vec![DataRegion::new(16 * 1024, 1.0, AccessPattern::Random)],
                mix: InstMix::default(),
                kernel: None,
                dep: DepModel::default(),
                rat_hazard_rate: 0.0,
            },
        }
    }

    /// Set the full code model.
    pub fn code(mut self, code: CodeModel) -> Self {
        self.profile.code = code;
        self
    }

    /// Shortcut: set only the instruction footprint, in KiB.
    pub fn code_footprint_kib(mut self, kib: u64) -> Self {
        self.profile.code.footprint_bytes = kib * 1024;
        self
    }

    /// Replace the data-region mixture.
    pub fn data(mut self, regions: Vec<DataRegion>) -> Self {
        self.profile.data = regions;
        self
    }

    /// Add one data region.
    pub fn region(mut self, bytes: u64, weight: f64, pattern: AccessPattern) -> Self {
        self.profile
            .data
            .push(DataRegion::new(bytes, weight, pattern));
        self
    }

    /// Set the instruction mix.
    pub fn mix(mut self, mix: InstMix) -> Self {
        self.profile.mix = mix;
        self
    }

    /// Set the kernel model.
    pub fn kernel(mut self, kernel: KernelModel) -> Self {
        self.profile.kernel = Some(kernel);
        self
    }

    /// Shortcut: generic kernel model with the given instruction fraction.
    pub fn kernel_fraction(mut self, fraction: f64) -> Self {
        self.profile.kernel = Some(KernelModel::generic(fraction));
        self
    }

    /// Set the dependence model (keeps the chain-related rates).
    pub fn dep(mut self, dep_fraction: f64, mean_dist: f64) -> Self {
        self.profile.dep.dep_fraction = dep_fraction;
        self.profile.dep.mean_dist = mean_dist;
        self
    }

    /// Set the loop-carried serial-chain occupancy.
    pub fn serial_chain(mut self, p: f64) -> Self {
        self.profile.dep.serial_chain = p;
        self
    }

    /// Set the probability that a dependence chains on the latest load.
    pub fn dep_on_load(mut self, on_load: f64) -> Self {
        self.profile.dep.on_load = on_load;
        self
    }

    /// Set the RAT-hazard injection rate.
    pub fn rat_hazard_rate(mut self, rate: f64) -> Self {
        self.profile.rat_hazard_rate = rate;
        self
    }

    /// Validate and produce the profile.
    ///
    /// # Errors
    /// Returns [`BuildProfileError`] if any fraction is outside `[0, 1]`,
    /// the instruction mix exceeds 1, the data mixture is empty or has
    /// non-positive weights, or any region/footprint is empty.
    pub fn build(self) -> Result<WorkloadProfile, BuildProfileError> {
        let p = &self.profile;
        let err = |msg: &str| {
            Err(BuildProfileError {
                msg: format!("{}: {msg}", p.name),
            })
        };
        if p.code.footprint_bytes < 1024 {
            return err("code footprint must be at least 1 KiB");
        }
        if !(0.0..=4.0).contains(&p.code.zipf_theta) || !p.code.zipf_theta.is_finite() {
            return err("zipf_theta must be within [0, 4]");
        }
        for (lbl, v) in [
            ("taken_rate", p.code.taken_rate),
            ("branch_noise", p.code.branch_noise),
            ("regularity", p.code.regularity),
            ("rat_hazard_rate", p.rat_hazard_rate),
            ("dep_fraction", p.dep.dep_fraction),
            ("dep_on_load", p.dep.on_load),
            ("serial_chain", p.dep.serial_chain),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return err(&format!("{lbl} must be within [0, 1]"));
            }
        }
        if p.mix.total() > 1.0 + 1e-9 {
            return err("instruction mix fractions exceed 1");
        }
        if p.mix.branch <= 0.0 {
            return err("branch fraction must be positive");
        }
        if p.data.is_empty() {
            return err("at least one data region is required");
        }
        for r in &p.data {
            if r.bytes < 64 {
                return err("data regions must be at least one cache line");
            }
            if r.weight <= 0.0 || !r.weight.is_finite() {
                return err("data region weights must be positive");
            }
        }
        if let Some(k) = &p.kernel {
            if !(0.0..1.0).contains(&k.fraction) {
                return err("kernel fraction must be within [0, 1)");
            }
            if k.burst_ops == 0 {
                return err("kernel burst length must be positive");
            }
            if k.data.is_empty() {
                return err("kernel model needs data regions");
            }
        }
        if p.dep.mean_dist < 1.0 {
            return err("mean dependence distance must be >= 1");
        }
        Ok(self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_builds() {
        let p = WorkloadProfile::builder("test").build().unwrap();
        assert_eq!(p.name, "test");
        assert!(p.kernel.is_none());
        assert_eq!(p.kernel_fraction(), 0.0);
    }

    #[test]
    fn builder_sets_fields() {
        let p = WorkloadProfile::builder("w")
            .code_footprint_kib(512)
            .region(1 << 20, 0.5, AccessPattern::Random)
            .kernel_fraction(0.24)
            .dep(0.6, 8.0)
            .rat_hazard_rate(0.01)
            .build()
            .unwrap();
        assert_eq!(p.code.footprint_bytes, 512 * 1024);
        assert_eq!(p.data.len(), 2);
        assert!((p.kernel_fraction() - 0.24).abs() < 1e-12);
        assert_eq!(p.rat_hazard_rate, 0.01);
    }

    #[test]
    fn rejects_bad_mix() {
        let bad = InstMix {
            load: 0.7,
            store: 0.5,
            ..InstMix::default()
        };
        assert!(WorkloadProfile::builder("w").mix(bad).build().is_err());
    }

    #[test]
    fn rejects_zero_branch_fraction() {
        let bad = InstMix {
            branch: 0.0,
            ..InstMix::default()
        };
        assert!(WorkloadProfile::builder("w").mix(bad).build().is_err());
    }

    #[test]
    fn rejects_empty_data() {
        assert!(WorkloadProfile::builder("w").data(vec![]).build().is_err());
    }

    #[test]
    fn rejects_negative_weight() {
        let r = vec![DataRegion::new(1024, -1.0, AccessPattern::Random)];
        assert!(WorkloadProfile::builder("w").data(r).build().is_err());
    }

    #[test]
    fn rejects_tiny_code() {
        let c = CodeModel {
            footprint_bytes: 10,
            ..CodeModel::default()
        };
        assert!(WorkloadProfile::builder("w").code(c).build().is_err());
    }

    #[test]
    fn rejects_out_of_range_rates() {
        assert!(WorkloadProfile::builder("w")
            .rat_hazard_rate(1.5)
            .build()
            .is_err());
        let c = CodeModel {
            regularity: -0.1,
            ..CodeModel::default()
        };
        assert!(WorkloadProfile::builder("w").code(c).build().is_err());
    }

    #[test]
    fn ops_per_block_from_branch_fraction() {
        let mix = InstMix {
            branch: 0.125,
            ..InstMix::default()
        };
        assert_eq!(mix.ops_per_block(), 8);
    }

    #[test]
    fn display_is_informative() {
        let p = WorkloadProfile::builder("sort").build().unwrap();
        let s = p.to_string();
        assert!(s.contains("sort"));
        assert!(s.contains("code"));
    }

    #[test]
    fn data_footprint_sums_regions() {
        let p = WorkloadProfile::builder("w")
            .data(vec![
                DataRegion::new(1024, 1.0, AccessPattern::Random),
                DataRegion::new(2048, 1.0, AccessPattern::Sequential { stride: 64 }),
            ])
            .build()
            .unwrap();
        assert_eq!(p.data_footprint(), 3072);
    }
}
