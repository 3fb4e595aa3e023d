//! Pieces every workload shares: the simulated cell, the timed pool
//! fan-out, counter digests and host measurements.

use dc_cpu::{CpuConfig, PerfCounts, SimOptions};
use dcbench::{pool, BenchmarkId, Characterizer};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Quick window, as `Characterizer::quick` and the daemon's `quick`.
pub fn quick_window() -> SimOptions {
    SimOptions::exact(500_000, 300_000)
}

/// Full window, as `Characterizer::full` and the daemon's `full`.
pub fn full_window() -> SimOptions {
    SimOptions::exact(1_200_000, 2_000_000)
}

/// The same window under the default SMARTS plan.
pub fn sampled(opts: SimOptions) -> SimOptions {
    let plan = dc_cpu::SamplePlan::DEFAULT;
    opts.with_sampling(plan.detail_ops, plan.ffwd_ops)
}

/// The per-entry trace seed `Characterizer` derives from its master
/// seed (the replay probes check that they see the same counters).
pub fn entry_seed(master: u64, id: BenchmarkId) -> u64 {
    master ^ (id as u64) << 3
}

/// The trace seed of co-runner `k` (co-runner 0 is the solo trace).
pub fn corun_seed(master: u64, id: BenchmarkId, k: usize) -> u64 {
    entry_seed(master, id) ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One simulated measurement: an entry on a machine and window,
/// alone (`corun == 1`) or as `corun` copies sharing a chip.
#[derive(Debug, Clone)]
pub struct Cell {
    pub id: BenchmarkId,
    pub cfg: CpuConfig,
    pub opts: SimOptions,
    pub master: u64,
    pub corun: usize,
}

impl Cell {
    pub fn harness(&self) -> Characterizer {
        Characterizer::new(self.cfg.clone(), self.opts, self.master)
    }

    /// Measure through the program's memoizing cache, one counter block
    /// per core.
    pub fn measure(&self) -> Vec<PerfCounts> {
        let h = self.harness();
        if self.corun == 1 {
            vec![h.raw_counts(self.id)]
        } else {
            h.corun_counts(self.id, self.corun)
        }
    }

    /// µops the cell consumed, warm-up included: the pipeline retires
    /// every µop it takes from the trace, so this is the simulated work.
    pub fn uops(&self, counts: &[PerfCounts]) -> u64 {
        counts
            .iter()
            .map(|c| self.opts.warmup_ops + c.instructions)
            .sum()
    }
}

/// One pool item as the benchmark saw it: the worker slot that ran it
/// and its start and end, in seconds since the pass began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub worker: usize,
    pub start: f64,
    pub end: f64,
}

/// A pass of cells fanned out through `dcbench::pool::parallel_map`.
pub struct Pass {
    pub wall_s: f64,
    pub counts: Vec<Vec<PerfCounts>>,
    pub spans: Vec<Span>,
    pub width: usize,
}

/// Run `cells` through the program's pool. When `traced`, every item
/// is timed inside the closure handed to `parallel_map`.
pub fn fan_out(cells: &[Cell], traced: bool) -> Pass {
    let t0 = Instant::now();
    let now = || {
        if traced {
            t0.elapsed().as_secs_f64()
        } else {
            0.0
        }
    };
    let out = pool::parallel_map(cells.to_vec(), |_, cell| {
        let start = now();
        let counts = cell.measure();
        let end = now();
        (counts, start, end, std::thread::current().id())
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut threads = Vec::new();
    let mut counts = Vec::with_capacity(out.len());
    let mut spans = Vec::with_capacity(out.len());
    for (c, start, end, tid) in out {
        let worker = match threads.iter().position(|t| *t == tid) {
            Some(w) => w,
            None => {
                threads.push(tid);
                threads.len() - 1
            }
        };
        counts.push(c);
        spans.push(Span { worker, start, end });
    }
    Pass {
        wall_s,
        counts,
        spans,
        width: pool::jobs().min(cells.len()).max(1),
    }
}

impl Pass {
    /// Sum of item times over workers × wall time.
    pub fn busy_frac(&self) -> f64 {
        let busy: f64 = self.spans.iter().map(|s| s.end - s.start).sum();
        busy / (self.width as f64 * self.wall_s)
    }

    /// Time the last worker ran alone at the end of the pass, in ms.
    pub fn tail_ms(&self) -> f64 {
        let mut last_end: Vec<f64> = Vec::new();
        for s in &self.spans {
            if last_end.len() <= s.worker {
                last_end.resize(s.worker + 1, 0.0);
            }
            last_end[s.worker] = last_end[s.worker].max(s.end);
        }
        last_end.sort_by(f64::total_cmp);
        match last_end.len() {
            0 => 0.0,
            // One worker (or a width-1 pool) is alone for the whole pass.
            1 => last_end[0] * 1e3,
            n => (last_end[n - 1] - last_end[n - 2]) * 1e3,
        }
    }
}

/// FNV-1a over every counter of every block, in order: equal digests
/// mean the simulated statistics did not change.
pub fn digest<'a>(blocks: impl IntoIterator<Item = &'a PerfCounts>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in blocks {
        for v in dc_store::record::counts_to_array(c) {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// splitmix64: a seeded, well-mixed sequence for inputs and mixes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The master seed the program receives for benchmark seed `seed`. It
/// stays below 2^32 so every protocol seed field accepts it.
pub fn master_seed(seed: u64) -> u64 {
    Rng::new(seed ^ 0x0DCB_E4C4).next_u64() >> 32
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak-RSS mark to the current resident set, so earlier
/// work (reference runs, earlier passes) does not count towards the
/// next peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A scratch directory for one run, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(root: &Path, workload: &str) -> std::io::Result<WorkDir> {
        let dir = root.join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_time_the_last_worker_runs_alone() {
        let pass = Pass {
            wall_s: 10.0,
            counts: vec![],
            spans: vec![
                Span {
                    worker: 0,
                    start: 0.0,
                    end: 4.0,
                },
                Span {
                    worker: 1,
                    start: 0.0,
                    end: 6.0,
                },
                Span {
                    worker: 0,
                    start: 4.0,
                    end: 10.0,
                },
            ],
            width: 2,
        };
        assert!((pass.tail_ms() - 4000.0).abs() < 1e-9);
        assert!((pass.busy_frac() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn master_seeds_differ_and_fit_protocol_seeds() {
        let a = master_seed(1);
        let b = master_seed(2);
        assert_ne!(a, b);
        assert!(a < 1 << 32 && b < 1 << 32);
        assert_eq!(a, master_seed(1));
    }
}
