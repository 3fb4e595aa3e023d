//! Parallel execution policy for the characterization pipeline.
//!
//! The characterizer's unit of work is one `(BenchmarkId, window)`
//! simulation — ~3.2 M µops through the cycle-level core at full
//! windows — and every entry is independent: its trace seed is derived
//! from the master seed and the entry id alone. This module decides
//! *how wide* to fan those jobs out and delegates the mechanics to
//! [`dc_mapreduce::pool::parallel_map`], the same scoped SPMC worker
//! pool the MapReduce engine schedules task attempts on.
//!
//! Width policy, in order:
//!
//! 1. `DCBENCH_JOBS=<n>` environment override (`1` forces the
//!    sequential reference path; useful for timing comparisons and for
//!    bisecting any suspected parallelism bug);
//! 2. [`std::thread::available_parallelism`];
//! 3. `1` if the runtime cannot report a width.
//!
//! `DCBENCH_JOBS` is read on every call, so a process (or a test) that
//! changes it sees the new width on its next fan-out; an env read costs
//! about 0.1 µs. The machine width is read once per process: std
//! re-reads the process's cgroup quota files on every
//! `available_parallelism` call, 16–27 µs on a 2-vCPU VM, which is
//! more than a warm daemon job's whole memo-lookup work.
//!
//! Because each job is a pure function of its own seed, results are
//! collected in input order and are **bit-identical** at any width —
//! enforced by `tests/parallel_determinism.rs`.

use dc_obs::metrics;
use std::cell::Cell;
use std::env;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable overriding the worker count.
pub const JOBS_ENV: &str = "DCBENCH_JOBS";

/// The worker width the characterizer will use: `DCBENCH_JOBS` if set
/// to a positive integer, else the machine's available parallelism
/// (resolved once per process).
pub fn jobs() -> usize {
    env::var(JOBS_ENV)
        .ok()
        .as_deref()
        .and_then(parse_jobs)
        .unwrap_or_else(default_jobs)
}

/// Parse a `DCBENCH_JOBS` value; `None` (fall back to the machine
/// width) unless it is a positive integer.
fn parse_jobs(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

fn default_jobs() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Fan `items` out across [`jobs`] workers, returning results in input
/// order (bit-identical to the sequential run of the same closure).
///
/// The fan-out is instrumented into the process-wide metrics registry:
///
/// * `dc_pool_queue_depth` (gauge) — jobs not yet started;
/// * `dc_pool_workers_busy` (gauge) — jobs currently executing;
/// * `dc_pool_worker_busy{worker="N"}` (gauge, 0/1) — per-worker
///   busy/idle, `N` being a compact per-call slot index;
/// * `dc_pool_worker_jobs_total{worker="N"}` (counter) — jobs each
///   slot completed (scheduling-dependent; the *sum* is deterministic);
/// * `dc_pool_jobs_total` (counter) — total jobs completed.
///
/// All gauges return to zero when the call completes, so quiescent
/// snapshots stay deterministic. The per-job cost is a handful of
/// relaxed atomics — noise next to a multi-ms simulation job.
///
/// The three unlabelled handles are resolved once per process, on the
/// first call, empty or not, so `dc_pool_jobs_total` reads 0 in a
/// process that has fanned out only empty lists (a warm-started daemon
/// serving memo hits). An empty `items` then returns an empty vector
/// without reading the width or looking up a per-worker handle: a
/// daemon job whose entries were all memo hits costs nothing here.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let m = pool_metrics();
    if items.is_empty() {
        return Vec::new();
    }
    let width = jobs();
    let slots = width.min(items.len());
    let reg = metrics::global();
    let slot_names: Vec<String> = (0..slots).map(|w| w.to_string()).collect();
    let worker_busy: Vec<metrics::Gauge> = slot_names
        .iter()
        .map(|w| reg.gauge("dc_pool_worker_busy", &[("worker", w)]))
        .collect();
    let worker_jobs: Vec<metrics::Counter> = slot_names
        .iter()
        .map(|w| reg.counter("dc_pool_worker_jobs_total", &[("worker", w)]))
        .collect();
    m.depth.set(items.len() as i64);

    // Workers are fresh scoped threads each call, so a per-call counter
    // hands each one a compact slot id on its first job. The inline
    // (width 1) path runs on the caller thread, which keeps slot 0 for
    // the life of the process.
    let next_slot = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<Option<usize>> = const { Cell::new(None) };
    }
    let out = dc_mapreduce::pool::parallel_map(items, width, |i, item| {
        let slot = SLOT.with(|s| match s.get() {
            Some(v) => v,
            None => {
                let v = next_slot.fetch_add(1, Ordering::Relaxed);
                s.set(Some(v));
                v
            }
        });
        let slot = slot.min(slots - 1);
        m.depth.dec();
        m.busy.inc();
        worker_busy[slot].set(1);
        let r = f(i, item);
        worker_busy[slot].set(0);
        worker_jobs[slot].inc();
        m.jobs_total.inc();
        m.busy.dec();
        r
    });
    // A closed queue leaves nothing pending by construction; pin the
    // gauge there rather than trusting dec() arithmetic under races.
    m.depth.set(0);
    out
}

/// The pool's unlabelled metric handles (see [`parallel_map`]).
struct PoolMetrics {
    depth: metrics::Gauge,
    busy: metrics::Gauge,
    jobs_total: metrics::Counter,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = metrics::global();
        PoolMetrics {
            depth: reg.gauge("dc_pool_queue_depth", &[]),
            busy: reg.gauge("dc_pool_workers_busy", &[]),
            jobs_total: reg.counter("dc_pool_jobs_total", &[]),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn override_parsing() {
        assert_eq!(parse_jobs("4"), Some(4));
        assert_eq!(parse_jobs(" 16 "), Some(16));
        assert_eq!(parse_jobs("1"), Some(1));
        assert_eq!(parse_jobs("0"), None, "zero workers is meaningless");
        assert_eq!(parse_jobs("-2"), None);
        assert_eq!(parse_jobs("many"), None);
        assert_eq!(parse_jobs(""), None);
    }

    #[test]
    fn parallel_map_keeps_order() {
        let out = parallel_map((0..20u32).collect(), |i, x| {
            assert_eq!(i as u32, x);
            x * 2
        });
        assert_eq!(out, (0..20u32).map(|x| x * 2).collect::<Vec<_>>());
    }
}
