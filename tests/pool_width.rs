//! The pool's width contract: `DCBENCH_JOBS` is read on every call
//! over the machine width, and an empty fan-out runs and counts no job.
//!
//! Kept in its own integration binary because it sets and removes
//! `DCBENCH_JOBS`, which would race the width any other test reads.

use dcbench::pool;
use std::thread::available_parallelism;

#[test]
fn dcbench_jobs_changes_take_effect_on_the_next_call() {
    let machine = available_parallelism().map(|n| n.get()).unwrap_or(1);
    let saved = std::env::var(pool::JOBS_ENV).ok();
    std::env::remove_var(pool::JOBS_ENV);
    assert_eq!(pool::jobs(), machine, "unset: the machine width");
    std::env::set_var(pool::JOBS_ENV, "3");
    assert_eq!(pool::jobs(), 3);
    std::env::set_var(pool::JOBS_ENV, "5");
    assert_eq!(pool::jobs(), 5);
    std::env::remove_var(pool::JOBS_ENV);
    assert_eq!(pool::jobs(), machine, "removed: the machine width");
    if let Some(v) = saved {
        std::env::set_var(pool::JOBS_ENV, v);
    }
}

#[test]
fn an_empty_fan_out_registers_the_job_counter_and_counts_nothing() {
    let registry = dc_obs::metrics::global();
    // No other test in this binary fans out, so the first fan-out here
    // is an empty one, as in a daemon warm-started from its store.
    let out: Vec<u32> = pool::parallel_map(Vec::<u32>::new(), |_, x| x);
    assert!(out.is_empty());
    let snap = registry.snapshot();
    let jobs_total = snap
        .get("dc_pool_jobs_total")
        .expect("an empty fan-out registers dc_pool_jobs_total");
    assert_eq!(jobs_total.value, dc_obs::metrics::MetricValue::Counter(0));
    assert!(
        snap.metrics
            .iter()
            .all(|m| m.name != "dc_pool_worker_jobs_total"),
        "an empty fan-out names no worker slot"
    );

    let out = pool::parallel_map(vec![1u32, 2, 3], |_, x| x * 10);
    assert_eq!(out, vec![10, 20, 30]);
    let jobs_total = registry.counter("dc_pool_jobs_total", &[]);
    assert_eq!(jobs_total.value(), 3);
    let _: Vec<u32> = pool::parallel_map(Vec::<u32>::new(), |_, x| x);
    assert_eq!(jobs_total.value(), 3, "no job ran, none is counted");
}
