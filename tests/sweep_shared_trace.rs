//! A sweep curve runs all its points on one synthesized trace: the
//! shared-trace fan-out must measure exactly what per-cell runs
//! measure, and simulate each distinct (workload, config) cell exactly
//! once at any worker count.
//!
//! Kept in its own integration binary, with the tests serialized on one
//! mutex, because they clear the process-wide cache and read its
//! simulation counter.

use dc_cpu::core::SimOptions;
use dc_cpu::CpuConfig;
use dcbench::registry::BenchmarkId;
use dcbench::sweep::{self, SweepAxis};
use dcbench::{cache, pool, Characterizer};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

const IDS: [BenchmarkId; 2] = [BenchmarkId::Sort, BenchmarkId::KMeans];

fn exact() -> Characterizer {
    Characterizer::new(
        CpuConfig::westmere_e5645(),
        SimOptions::exact(40_000, 12_000),
        0x5A7E_D013,
    )
}

/// Small bursts, so the short window still alternates detail and
/// fast-forward many times per curve.
fn sampled() -> Characterizer {
    exact().with_sampling(3_000, 9_000)
}

/// Sweep the default grid on a cold cache, then measure every cell on
/// its own on a cold cache again: the two must agree bit for bit.
fn sweep_matches_per_cell_runs(bench: &Characterizer) {
    let axes = SweepAxis::default_axes();
    cache::clear();
    let sweeps = sweep::run(bench, &IDS, &axes).expect("valid grid");
    cache::clear();
    for (axis, sweep) in axes.iter().zip(&sweeps) {
        let configs = axis.configs(bench.config()).expect("valid grid");
        for (p, cfg) in configs.into_iter().enumerate() {
            let cell = bench.clone().with_config(cfg);
            for curve in &sweep.curves {
                assert_eq!(
                    curve.counts[p],
                    cell.raw_counts(curve.id),
                    "{:?} at {} = {}",
                    curve.id,
                    axis.kind().name(),
                    sweep.labels[p]
                );
            }
        }
    }
    cache::clear();
}

#[test]
fn exact_sweep_equals_per_cell_raw_counts_on_the_default_grid() {
    let _guard = serial();
    sweep_matches_per_cell_runs(&exact());
}

#[test]
fn sampled_sweep_equals_per_cell_raw_counts_on_the_default_grid() {
    let _guard = serial();
    sweep_matches_per_cell_runs(&sampled());
}

#[test]
fn default_grid_simulates_each_distinct_cell_once_at_any_width() {
    // 5 + 4 + 4 + 4 + 2 = 19 grid points, the base machine on all five
    // axes: 15 distinct configs × 2 workloads = 30 distinct cells.
    let _guard = serial();
    let saved = std::env::var(pool::JOBS_ENV).ok();
    for width in ["1", "16"] {
        std::env::set_var(pool::JOBS_ENV, width);
        cache::clear();
        sweep::run(&exact(), &IDS, &SweepAxis::default_axes()).expect("valid grid");
        assert_eq!(
            cache::sim_invocations(),
            30,
            "DCBENCH_JOBS={width}: one simulation per distinct cell"
        );
        assert_eq!(cache::len(), 30);
    }
    match saved {
        Some(v) => std::env::set_var(pool::JOBS_ENV, v),
        None => std::env::remove_var(pool::JOBS_ENV),
    }
    cache::clear();
}
