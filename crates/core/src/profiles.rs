//! Calibrated workload profiles for every benchmark entry.
//!
//! Each profile is a *cause-level* description (code footprint, working
//! -set mixture, branch regularity, kernel share, dependence structure)
//! — never an effect like an IPC or miss ratio. The simulator in
//! `dc-cpu` turns these causes into the paper's counters mechanistically.
//!
//! Calibration provenance:
//! * the eleven data-analysis profiles are calibrated against the
//!   paper's own figures (Figures 3-12); no measurement of the real
//!   implementations in `dc-analytics` feeds them;
//! * service/SPEC profiles encode the well-documented properties of
//!   those stacks (multi-MB instruction footprints of JVM/C++ servers,
//!   heap-object data locality, >40 % kernel time under network load) —
//!   the paper's own Figures 3-12 and the CloudSuite paper it builds on;
//! * HPCC kernels follow directly from their algorithms (our real
//!   implementations in `dc-suites::hpcc` have exactly these access
//!   patterns).
//!
//! `rat_hazard_rate` is the one direct-injection knob (DESIGN.md §5.3).

use crate::registry::BenchmarkId;
use dc_trace::profile::{
    AccessPattern::{Clustered, Random, Sequential, Tiled},
    CodeModel, DataRegion, InstMix, KernelModel, WorkloadProfile,
};

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

fn code(kb: u64, theta: f64, taken: f64, noise: f64, reg: f64) -> CodeModel {
    CodeModel {
        footprint_bytes: kb * KB,
        zipf_theta: theta,
        taken_rate: taken,
        branch_noise: noise,
        regularity: reg,
    }
}

fn mix(load: f64, store: f64, branch: f64, fp: f64) -> InstMix {
    InstMix {
        load,
        store,
        branch,
        fp,
        mul: 0.01,
        div: 0.002,
    }
}

/// The calibrated profile for one benchmark entry.
pub fn profile(id: BenchmarkId) -> WorkloadProfile {
    use BenchmarkId::*;
    let b = WorkloadProfile::builder(id.name());
    let built = match id {
        // ---- Data-analysis workloads --------------------------------
        // Shared traits: few-hundred-KB JVM-ish code footprints, data
        // dominated by a hot working set + record streaming, small
        // kernel share, regular branches, load-chained dependences.
        NaiveBayes => b
            // Smallest instruction footprint of the eleven (tight
            // counting loops) but the sparsest data: huge term-count
            // tables with poor page locality.
            .code(code(112, 0.95, 0.38, 0.018, 0.985))
            .data(vec![
                DataRegion::new(24 * KB, 0.48, Random),
                DataRegion::new(96 * KB, 0.26, Random),
                DataRegion::new(8 * MB, 0.026, Clustered { page_dwell: 8 }),
                DataRegion::new(64 * MB, 0.17, Sequential { stride: 10 }),
            ])
            .mix(mix(0.31, 0.12, 0.16, 0.05))
            .kernel(KernelModel {
                fraction: 0.01,
                burst_ops: 600,
                code: code(48, 1.0, 0.40, 0.02, 0.98),
                data: vec![DataRegion::new(64 * KB, 1.0, Random)],
            })
            .dep(0.80, 1.5)
            .dep_on_load(0.70)
            .serial_chain(0.45)
            .rat_hazard_rate(0.030),
        Svm => b
            .code(code(448, 0.70, 0.38, 0.012, 0.975))
            .data(vec![
                DataRegion::new(24 * KB, 0.62, Random),
                DataRegion::new(64 * KB, 0.25, Random),
                DataRegion::new(1536 * KB, 0.006, Clustered { page_dwell: 20 }),
                DataRegion::new(48 * MB, 0.10, Sequential { stride: 10 }),
            ])
            .mix(mix(0.30, 0.11, 0.15, 0.10))
            .kernel_fraction(0.03)
            .dep(0.68, 2.6)
            .dep_on_load(0.45)
            .serial_chain(0.30)
            .rat_hazard_rate(0.030),
        Grep => b
            .code(code(416, 0.66, 0.36, 0.010, 0.98))
            .data(vec![
                DataRegion::new(16 * KB, 0.60, Random),
                DataRegion::new(64 * KB, 0.22, Random),
                DataRegion::new(MB, 0.006, Clustered { page_dwell: 20 }),
                DataRegion::new(96 * MB, 0.13, Sequential { stride: 9 }),
            ])
            .mix(mix(0.30, 0.08, 0.17, 0.01))
            .kernel_fraction(0.05)
            .dep(0.62, 3.0)
            .dep_on_load(0.42)
            .serial_chain(0.30)
            .rat_hazard_rate(0.030),
        WordCount => b
            .code(code(448, 0.67, 0.38, 0.013, 0.975))
            .data(vec![
                DataRegion::new(24 * KB, 0.56, Random),
                DataRegion::new(72 * KB, 0.28, Random),
                DataRegion::new(1536 * KB, 0.008, Clustered { page_dwell: 20 }),
                DataRegion::new(80 * MB, 0.12, Sequential { stride: 10 }),
            ])
            .mix(mix(0.30, 0.12, 0.16, 0.01))
            .kernel_fraction(0.04)
            .dep(0.50, 5.5)
            .dep_on_load(0.40)
            .serial_chain(0.30)
            .rat_hazard_rate(0.030),
        KMeans => b
            .code(code(416, 0.72, 0.35, 0.010, 0.985))
            .data(vec![
                DataRegion::new(
                    24 * KB,
                    0.55,
                    Tiled {
                        stride: 8,
                        window: 16384,
                    },
                ),
                DataRegion::new(64 * KB, 0.28, Random),
                DataRegion::new(MB, 0.006, Clustered { page_dwell: 20 }),
                DataRegion::new(64 * MB, 0.12, Sequential { stride: 9 }),
            ])
            .mix(mix(0.31, 0.10, 0.14, 0.12))
            .kernel_fraction(0.03)
            .dep(0.70, 2.2)
            .dep_on_load(0.50)
            .serial_chain(0.30)
            .rat_hazard_rate(0.030),
        FuzzyKMeans => b
            .code(code(448, 0.71, 0.35, 0.010, 0.985))
            .data(vec![
                DataRegion::new(
                    32 * KB,
                    0.55,
                    Tiled {
                        stride: 8,
                        window: 24576,
                    },
                ),
                DataRegion::new(72 * KB, 0.27, Random),
                DataRegion::new(MB, 0.008, Clustered { page_dwell: 20 }),
                DataRegion::new(64 * MB, 0.13, Sequential { stride: 9 }),
            ])
            .mix(mix(0.30, 0.11, 0.13, 0.18))
            .kernel_fraction(0.025)
            .dep(0.70, 2.3)
            .dep_on_load(0.50)
            .serial_chain(0.26)
            .rat_hazard_rate(0.030),
        PageRank => b
            .code(code(512, 0.66, 0.38, 0.016, 0.97))
            .data(vec![
                DataRegion::new(24 * KB, 0.50, Random),
                DataRegion::new(80 * KB, 0.27, Random),
                DataRegion::new(3 * MB, 0.016, Clustered { page_dwell: 16 }),
                DataRegion::new(96 * MB, 0.14, Sequential { stride: 10 }),
            ])
            .mix(mix(0.31, 0.12, 0.16, 0.04))
            .kernel_fraction(0.04)
            .dep(0.58, 4.5)
            .dep_on_load(0.48)
            .serial_chain(0.32)
            .rat_hazard_rate(0.032),
        Sort => b
            // OS-intensive outlier: input volume = output volume, so the
            // kernel share is ~24 % (network + disk stacks) and data is
            // dominated by streaming runs.
            .code(code(512, 0.66, 0.38, 0.014, 0.975))
            .data(vec![
                DataRegion::new(24 * KB, 0.42, Random),
                DataRegion::new(80 * KB, 0.26, Random),
                DataRegion::new(1536 * KB, 0.010, Clustered { page_dwell: 20 }),
                DataRegion::new(128 * MB, 0.20, Sequential { stride: 8 }),
            ])
            .mix(mix(0.30, 0.16, 0.16, 0.0))
            .kernel_fraction(0.24)
            .dep(0.50, 5.0)
            .dep_on_load(0.40)
            .serial_chain(0.30)
            .rat_hazard_rate(0.032),
        HiveBench => b
            .code(code(544, 0.65, 0.40, 0.016, 0.97))
            .data(vec![
                DataRegion::new(24 * KB, 0.50, Random),
                DataRegion::new(88 * KB, 0.28, Random),
                DataRegion::new(2 * MB, 0.010, Clustered { page_dwell: 20 }),
                DataRegion::new(96 * MB, 0.14, Sequential { stride: 10 }),
            ])
            .mix(mix(0.31, 0.12, 0.16, 0.02))
            .kernel_fraction(0.05)
            .dep(0.55, 5.0)
            .dep_on_load(0.42)
            .serial_chain(0.32)
            .rat_hazard_rate(0.032),
        Ibcf => b
            .code(code(448, 0.69, 0.37, 0.013, 0.98))
            .data(vec![
                DataRegion::new(24 * KB, 0.52, Random),
                DataRegion::new(72 * KB, 0.28, Random),
                DataRegion::new(1536 * KB, 0.008, Clustered { page_dwell: 18 }),
                DataRegion::new(64 * MB, 0.14, Sequential { stride: 10 }),
            ])
            .mix(mix(0.31, 0.11, 0.15, 0.06))
            .kernel_fraction(0.03)
            .dep(0.70, 2.4)
            .dep_on_load(0.50)
            .serial_chain(0.25)
            .rat_hazard_rate(0.030),
        Hmm => b
            .code(code(352, 0.73, 0.36, 0.011, 0.98))
            .data(vec![
                DataRegion::new(24 * KB, 0.60, Random),
                DataRegion::new(64 * KB, 0.25, Random),
                DataRegion::new(1536 * KB, 0.006, Clustered { page_dwell: 20 }),
                DataRegion::new(48 * MB, 0.11, Sequential { stride: 10 }),
            ])
            .mix(mix(0.30, 0.10, 0.15, 0.06))
            .kernel_fraction(0.03)
            .dep(0.70, 2.5)
            .dep_on_load(0.45)
            .serial_chain(0.30)
            .rat_hazard_rate(0.030),

        // ---- CloudSuite -------------------------------------------
        SoftwareTesting => b
            // Cloud9 symbolic execution: user-mode compute over a large
            // constraint store; not a service.
            .code(code(320, 0.80, 0.40, 0.020, 0.97))
            .data(vec![
                DataRegion::new(32 * KB, 0.66, Random),
                DataRegion::new(96 * KB, 0.24, Random),
                DataRegion::new(2 * MB, 0.012, Clustered { page_dwell: 24 }),
                DataRegion::new(16 * MB, 0.08, Sequential { stride: 16 }),
            ])
            .mix(mix(0.29, 0.12, 0.18, 0.01))
            .kernel_fraction(0.05)
            .dep(0.65, 2.8)
            .dep_on_load(0.45)
            .serial_chain(0.22)
            .rat_hazard_rate(0.02),
        MediaStreaming => b
            // Darwin server: the largest instruction footprint in the
            // paper (~3× the DA average L1I MPKI), kernel-heavy.
            .svc_code(224)
            .svc_data(8, 0.05)
            .mix(mix(0.29, 0.13, 0.18, 0.005))
            .kernel_fraction(0.50)
            .dep(0.50, 5.0)
            .dep_on_load(0.30)
            .rat_hazard_rate(0.35),
        DataServing => b
            .svc_code(224)
            .svc_data(8, 0.048)
            .mix(mix(0.30, 0.13, 0.18, 0.005))
            .kernel_fraction(0.44)
            .dep(0.52, 4.5)
            .dep_on_load(0.35)
            .rat_hazard_rate(0.35),
        WebSearch => b
            .svc_code(208)
            .svc_data(6, 0.04)
            .mix(mix(0.31, 0.11, 0.17, 0.01))
            .kernel_fraction(0.42)
            .dep(0.52, 5.0)
            .dep_on_load(0.35)
            .rat_hazard_rate(0.37),
        WebServing => b
            .svc_code(224)
            .svc_data(6, 0.045)
            .mix(mix(0.30, 0.13, 0.18, 0.005))
            .kernel_fraction(0.50)
            .dep(0.50, 4.5)
            .dep_on_load(0.30)
            .rat_hazard_rate(0.36),

        // ---- SPEC --------------------------------------------------
        SpecFp => b
            .code(code(28, 1.0, 0.25, 0.008, 0.995))
            .data(vec![
                DataRegion::new(
                    24 * KB,
                    0.55,
                    Tiled {
                        stride: 8,
                        window: 16384,
                    },
                ),
                DataRegion::new(768 * KB, 0.30, Sequential { stride: 8 }),
                DataRegion::new(24 * MB, 0.10, Sequential { stride: 8 }),
            ])
            .mix(mix(0.30, 0.10, 0.10, 0.35))
            .kernel_fraction(0.01)
            .dep(0.60, 3.0)
            .dep_on_load(0.35)
            .serial_chain(0.28)
            .rat_hazard_rate(0.004),
        SpecInt => b
            .code(code(72, 0.85, 0.42, 0.055, 0.96))
            .data(vec![
                DataRegion::new(24 * KB, 0.55, Random),
                DataRegion::new(96 * KB, 0.31, Random),
                DataRegion::new(2 * MB, 0.010, Clustered { page_dwell: 12 }),
                DataRegion::new(16 * MB, 0.13, Sequential { stride: 16 }),
            ])
            .mix(mix(0.29, 0.11, 0.18, 0.02))
            .kernel_fraction(0.02)
            .dep(0.64, 2.8)
            .dep_on_load(0.45)
            .serial_chain(0.28)
            .rat_hazard_rate(0.01),
        SpecWeb => b
            .svc_code(232)
            .svc_data(6, 0.045)
            .mix(mix(0.30, 0.13, 0.18, 0.005))
            .kernel_fraction(0.46)
            .dep(0.52, 4.5)
            .dep_on_load(0.32)
            .rat_hazard_rate(0.35),

        // ---- HPCC --------------------------------------------------
        HpccComm => b
            // Message ping-pong: small kernels + network syscalls.
            .code(code(48, 0.85, 0.35, 0.004, 0.995))
            .data(vec![
                DataRegion::new(32 * KB, 0.60, Random),
                DataRegion::new(MB, 0.40, Sequential { stride: 16 }),
            ])
            .mix(mix(0.30, 0.15, 0.14, 0.01))
            .kernel_fraction(0.20)
            .dep(0.65, 2.5)
            .dep_on_load(0.50)
            .serial_chain(0.40)
            .rat_hazard_rate(0.005),
        HpccDgemm => b
            .code(code(8, 1.1, 0.20, 0.002, 0.999))
            .data(vec![
                DataRegion::new(
                    24 * KB,
                    0.92,
                    Tiled {
                        stride: 8,
                        window: 16384,
                    },
                ),
                DataRegion::new(1536 * KB, 0.06, Sequential { stride: 8 }),
            ])
            .mix(mix(0.30, 0.08, 0.08, 0.35))
            .dep(0.60, 3.0)
            .dep_on_load(0.25)
            .serial_chain(0.33)
            .rat_hazard_rate(0.0),
        HpccFft => b
            .code(code(8, 1.0, 0.22, 0.003, 0.999))
            .data(vec![
                DataRegion::new(
                    32 * KB,
                    0.55,
                    Tiled {
                        stride: 16,
                        window: 32768,
                    },
                ),
                DataRegion::new(3 * MB, 0.40, Sequential { stride: 16 }),
            ])
            .mix(mix(0.30, 0.12, 0.10, 0.30))
            .dep(0.60, 3.0)
            .dep_on_load(0.30)
            .serial_chain(0.30)
            .rat_hazard_rate(0.0),
        HpccHpl => b
            .code(code(12, 1.1, 0.18, 0.002, 0.999))
            .data(vec![
                DataRegion::new(
                    24 * KB,
                    0.90,
                    Tiled {
                        stride: 8,
                        window: 16384,
                    },
                ),
                DataRegion::new(2 * MB, 0.08, Sequential { stride: 8 }),
            ])
            .mix(mix(0.31, 0.09, 0.08, 0.34))
            .dep(0.60, 3.0)
            .dep_on_load(0.25)
            .serial_chain(0.33)
            .rat_hazard_rate(0.0),
        HpccPtrans => b
            // Transpose: column-order reads destroy line and page reuse.
            .code(code(8, 1.0, 0.15, 0.002, 0.999))
            .data(vec![
                DataRegion::new(32 * KB, 0.35, Random),
                DataRegion::new(24 * MB, 0.05, Clustered { page_dwell: 24 }),
                DataRegion::new(48 * MB, 0.60, Sequential { stride: 8 }),
            ])
            .mix(mix(0.33, 0.17, 0.09, 0.08))
            .dep(0.40, 7.0)
            .dep_on_load(0.25)
            .rat_hazard_rate(0.0),
        HpccRandomAccess => b
            // GUPS: read-modify-write at random 64-bit words of a giant
            // table, with heavy copy_user kernel work (paper: ~31 %
            // kernel instructions).
            .code(code(8, 1.0, 0.12, 0.002, 0.999))
            .data(vec![
                DataRegion::new(16 * KB, 0.682, Random),
                DataRegion::new(64 * MB, 0.30, Sequential { stride: 8 }),
                DataRegion::new(256 * MB, 0.018, Random),
            ])
            .mix(mix(0.28, 0.20, 0.08, 0.0))
            .kernel(KernelModel {
                fraction: 0.31,
                ..KernelModel::generic(0.31)
            })
            .dep(0.70, 2.0)
            .dep_on_load(0.65)
            .serial_chain(0.62)
            .rat_hazard_rate(0.0),
        HpccStream => b
            .code(code(4, 1.0, 0.10, 0.001, 0.999))
            .data(vec![
                DataRegion::new(30 * MB, 0.50, Sequential { stride: 8 }),
                DataRegion::new(30 * MB, 0.50, Sequential { stride: 8 }),
            ])
            .mix(mix(0.33, 0.18, 0.10, 0.25))
            .dep(0.35, 10.0)
            .dep_on_load(0.15)
            .rat_hazard_rate(0.0),
    };
    built
        .build()
        .unwrap_or_else(|e| panic!("profile for {id} failed validation: {e}"))
}

/// Builder shorthands shared by the service profiles.
trait ServiceShorthand {
    /// Multi-MB flat service/JVM instruction footprint.
    fn svc_code(self, kb: u64) -> Self;
    /// Service heap mixture: hot structures + session state + a
    /// `far_mb` object heap + a cold gigabyte-class region, with
    /// `far_weight` of accesses on the far heap.
    fn svc_data(self, far_mb: u64, far_weight: f64) -> Self;
}

impl ServiceShorthand for dc_trace::profile::ProfileBuilder {
    fn svc_code(self, kb: u64) -> Self {
        self.code(code(kb, 0.30, 0.42, 0.028, 0.93))
    }

    fn svc_data(self, far_mb: u64, far_weight: f64) -> Self {
        self.data(vec![
            DataRegion::new(16 * KB, 0.52, Random),
            DataRegion::new(96 * KB, 1.0 - 0.52 - far_weight - 0.012, Random),
            DataRegion::new(far_mb * MB, far_weight, Clustered { page_dwell: 48 }),
            DataRegion::new(192 * MB, 0.012, Clustered { page_dwell: 14 }),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_has_a_valid_profile() {
        for &id in BenchmarkId::all() {
            let p = profile(id);
            assert_eq!(p.name, id.name());
            assert!(!p.data.is_empty());
        }
    }

    #[test]
    fn service_profiles_are_kernel_heavy() {
        for &id in BenchmarkId::services() {
            let p = profile(id);
            assert!(
                p.kernel_fraction() > 0.4,
                "{id}: services execute >40% kernel instructions"
            );
        }
    }

    #[test]
    fn data_analysis_profiles_are_mostly_user_mode() {
        for &id in BenchmarkId::data_analysis() {
            let p = profile(id);
            if id == BenchmarkId::Sort {
                assert!(p.kernel_fraction() > 0.2, "Sort is the OS-heavy outlier");
            } else {
                assert!(p.kernel_fraction() < 0.1, "{id}");
            }
        }
    }

    #[test]
    fn service_code_footprints_dwarf_hpcc() {
        // Profiles model the *hot* instruction working set; service
        // stacks run hundreds of KB hot vs a few KB for HPC kernels.
        let svc_min = BenchmarkId::services()
            .iter()
            .map(|&id| profile(id).code.footprint_bytes)
            .min()
            .expect("nonempty");
        let hpcc_max = BenchmarkId::hpcc()
            .iter()
            .map(|&id| profile(id).code.footprint_bytes)
            .max()
            .expect("nonempty");
        assert!(svc_min > 4 * hpcc_max, "{svc_min} vs {hpcc_max}");
        assert!(svc_min >= 200 * 1024, "service hot code is hundreds of KB");
    }

    #[test]
    fn rat_injection_only_where_documented() {
        // The RAT knob is meaningful for service-class stacks; HPCC
        // kernels must not use it.
        for &id in BenchmarkId::hpcc() {
            assert!(profile(id).rat_hazard_rate < 0.01, "{id}");
        }
        for &id in BenchmarkId::services() {
            assert!(profile(id).rat_hazard_rate > 0.1, "{id}");
        }
    }
}
