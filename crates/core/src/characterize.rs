//! The measurement pipeline (paper Section III-D).
//!
//! For each benchmark entry: build its calibrated profile, synthesize
//! the instruction stream, run it through the Westmere-like out-of-order
//! core after a warm-up ramp (the paper performs "a ramp-up period for
//! each application, and then start\[s\] collecting"), read the ~20 events
//! through the PMU layer, and derive the per-figure metrics.
//!
//! # Parallelism and caching
//!
//! Each entry's simulation is a pure function of `(entry, machine
//! config, window, seed)` — the per-entry trace seed is derived from
//! the master seed and the entry id, nothing is shared between entries
//! — so the multi-entry drivers ([`Characterizer::run_all`],
//! [`Characterizer::run_many`], …) fan the jobs out across
//! [`crate::pool::jobs`] worker threads and collect results in entry
//! order: output is **bit-identical** to the sequential reference path
//! at any worker count (set `DCBENCH_JOBS=1` to force sequential).
//! Measured counter blocks are memoized process-wide in
//! [`crate::cache`], so regenerating several figures in one invocation
//! simulates each entry once, not once per figure.

use crate::cache::{self, CacheKey};
use crate::pool;
use crate::profiles::profile;
use crate::registry::BenchmarkId;
use dc_cpu::{core::SimOptions, Chip, Core, CpuConfig, PerfCounts};
use dc_obs::{Recorder, Value};
use dc_perfmon::{msr, Metrics, PerfEvent, SampledMetrics};
use dc_trace::SyntheticTrace;

/// Characterization harness: machine config + measurement window.
#[derive(Debug, Clone)]
pub struct Characterizer {
    cfg: CpuConfig,
    opts: SimOptions,
    seed: u64,
    recorder: Recorder,
}

impl Default for Characterizer {
    fn default() -> Self {
        Characterizer::new(CpuConfig::westmere_e5645(), SimOptions::default(), 2013)
    }
}

impl Characterizer {
    /// Build a harness with an explicit machine, window and seed. The
    /// recorder starts disabled; see [`Characterizer::with_recorder`].
    pub fn new(cfg: CpuConfig, opts: SimOptions, seed: u64) -> Self {
        Characterizer {
            cfg,
            opts,
            seed,
            recorder: Recorder::disabled(),
        }
    }

    /// Attach an observability recorder: cache hits/misses, uncached
    /// simulations and interval samples are emitted as [`dc_obs`]
    /// events. The disabled default costs one branch per would-be
    /// event and leaves every measured counter bit-identical.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The recorder events are emitted through.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Short windows for tests and smoke runs.
    pub fn quick() -> Self {
        Characterizer::new(
            CpuConfig::westmere_e5645(),
            SimOptions::exact(500_000, 300_000),
            2013,
        )
    }

    /// Full windows (used by the figures and benches).
    pub fn full() -> Self {
        Characterizer::new(
            CpuConfig::westmere_e5645(),
            SimOptions::exact(1_200_000, 2_000_000),
            2013,
        )
    }

    /// The machine configuration being measured.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// The same harness measuring a different machine. Seed, window and
    /// recorder are preserved, so per-entry trace seeds — and therefore
    /// the instruction streams — are identical across configurations:
    /// the property [`crate::sweep`] builds its sensitivity curves on.
    pub fn with_config(mut self, cfg: CpuConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The same harness with SMARTS-style systematic sampling enabled:
    /// every measurement window alternates `detail_ops` µops of full
    /// pipeline detail with `ffwd_ops` µops of functional fast-forward
    /// (caches/TLBs/predictor stay warm, no timing), and the counters
    /// are extrapolated to the whole window. Sampled blocks are keyed
    /// separately in the memo/store — they never satisfy an exact
    /// lookup — and flow through every driver ([`Characterizer::run`],
    /// [`Characterizer::corun`], [`Characterizer::run_many`], …)
    /// unchanged.
    pub fn with_sampling(mut self, detail_ops: u64, ffwd_ops: u64) -> Self {
        self.opts = self.opts.with_sampling(detail_ops, ffwd_ops);
        self
    }

    /// [`Characterizer::quick`] with the default SMARTS plan enabled.
    pub fn quick_sampled() -> Self {
        let plan = dc_cpu::SamplePlan::DEFAULT;
        Characterizer::quick().with_sampling(plan.detail_ops, plan.ffwd_ops)
    }

    /// [`Characterizer::full`] with the default SMARTS plan enabled.
    pub fn full_sampled() -> Self {
        let plan = dc_cpu::SamplePlan::DEFAULT;
        Characterizer::full().with_sampling(plan.detail_ops, plan.ffwd_ops)
    }

    /// The master seed entry seeds are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The measurement window in use.
    pub fn options(&self) -> &SimOptions {
        &self.opts
    }

    /// The per-entry trace seed (master seed mixed with the entry id).
    fn entry_seed(&self, id: BenchmarkId) -> u64 {
        self.seed ^ (id as u64) << 3
    }

    /// Simulate one entry, unconditionally (no cache lookup, no
    /// insertion). The sequential reference path the parallel/cached
    /// pipeline is verified against.
    fn simulate(&self, id: BenchmarkId) -> PerfCounts {
        let prof = profile(id);
        let trace = SyntheticTrace::new(&prof, self.entry_seed(id));
        Core::new(self.cfg.clone()).run(trace, &self.opts)
    }

    /// Counter block for one entry through the memoizing cache.
    fn counts(&self, id: BenchmarkId) -> PerfCounts {
        let key = CacheKey::new(id, &self.cfg, &self.opts, self.entry_seed(id));
        cache::counts_for(key, &self.recorder, || self.simulate(id))
    }

    /// Characterize one benchmark entry.
    pub fn run(&self, id: BenchmarkId) -> Metrics {
        Metrics::from_counts(id.name(), &self.counts(id))
    }

    /// Characterize one entry bypassing the result cache: always
    /// simulates, never reads or populates cached blocks.
    pub fn run_uncached(&self, id: BenchmarkId) -> Metrics {
        cache::note_simulation();
        if self.recorder.is_enabled() {
            self.recorder.emit(
                0,
                "sim_uncached",
                vec![("entry", Value::str(id.name())), ("corun", Value::U64(1))],
            );
        }
        Metrics::from_counts(id.name(), &self.simulate(id))
    }

    /// Characterize one entry and also return the raw PMU event dump
    /// (the `perf stat`-shaped view).
    pub fn run_with_events(&self, id: BenchmarkId) -> (Metrics, Vec<(PerfEvent, u64)>) {
        let counts = self.counts(id);
        (
            Metrics::from_counts(id.name(), &counts),
            msr::collect_all(&counts),
        )
    }

    /// Raw counter block for one entry (for debugging/calibration).
    pub fn raw_counts(&self, id: BenchmarkId) -> dc_cpu::PerfCounts {
        self.counts(id)
    }

    /// Raw counter blocks for one entry on each machine in `cfgs` (this
    /// harness's window and seed), in order: each block equals
    /// `self.clone().with_config(cfg).raw_counts(id)` bit for bit. Every
    /// cell is looked up in the memo on its own; the cells that miss
    /// are simulated together on one synthesized trace
    /// ([`dc_cpu::simulate_configs`]) and memoized one by one.
    pub(crate) fn raw_counts_across(&self, id: BenchmarkId, cfgs: &[CpuConfig]) -> Vec<PerfCounts> {
        let seed = self.entry_seed(id);
        let keys: Vec<CacheKey> = cfgs
            .iter()
            .map(|cfg| CacheKey::new(id, cfg, &self.opts, seed))
            .collect();
        cache::counts_group_for(&keys, &self.recorder, |missing| {
            let cfgs: Vec<CpuConfig> = missing.iter().map(|&i| cfgs[i].clone()).collect();
            let trace = SyntheticTrace::new(&profile(id), seed);
            dc_cpu::simulate_configs(trace, &cfgs, &self.opts)
        })
    }

    /// Trace seed for co-runner `k` of an entry: co-runner 0 reuses the
    /// solo seed (so a width-1 co-run *is* the solo measurement), the
    /// rest decorrelate via a splitmix-style odd-constant mix.
    fn corun_seed(&self, id: BenchmarkId, k: usize) -> u64 {
        self.entry_seed(id) ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Simulate `n` copies of one entry co-running on a shared-L3 chip,
    /// unconditionally (no cache). One counter block per core.
    fn simulate_corun(&self, id: BenchmarkId, n: usize) -> Vec<PerfCounts> {
        let prof = profile(id);
        let traces = (0..n)
            .map(|k| SyntheticTrace::new(&prof, self.corun_seed(id, k)))
            .collect();
        Chip::new(self.cfg.clone(), n).run(traces, &self.opts)
    }

    /// Per-core counter blocks for an `n`-wide co-run of one entry,
    /// through the memoizing cache (keyed on co-run width).
    pub fn corun_counts(&self, id: BenchmarkId, n: usize) -> Vec<PerfCounts> {
        assert!(n > 0, "co-run width must be at least 1");
        let key =
            CacheKey::new(id, &self.cfg, &self.opts, self.entry_seed(id)).with_corun(n as u32);
        cache::counts_vec_for(key, &self.recorder, || self.simulate_corun(id, n))
    }

    /// Characterize `n` co-running copies of one entry on a shared-L3
    /// chip ([`dc_cpu::Chip`]), modelling `n` Hadoop task slots of the
    /// same workload. Returns the metric row of **core 0** — the
    /// observed task, whose trace is identical at every width — so rows
    /// at widths 1, 4, 8 isolate the cost of contention. `corun(id, 1)`
    /// equals `run(id)` bit-for-bit.
    pub fn corun(&self, id: BenchmarkId, n: usize) -> Metrics {
        Metrics::from_counts(id.name(), &self.corun_counts(id, n)[0])
    }

    /// Characterize one entry with **interval PMU sampling**: snapshot
    /// the counters every `every_cycles` simulated cycles (the
    /// `perf stat -I` view) and derive per-interval IPC / L2 MPKI /
    /// L3 MPKI / branch MPKI.
    ///
    /// Sampling is observation-only — the aggregate block inside the
    /// returned [`SampledMetrics`] is bit-identical to
    /// [`Characterizer::raw_counts`] for the same entry — and the
    /// per-interval deltas telescope to that aggregate exactly. The
    /// sampled path always simulates (series are not memoized; the
    /// simulation is counted in [`crate::cache::sim_invocations`]).
    /// With a recorder attached, one `interval_sample` event per
    /// interval plus a `workload_sampled` summary are emitted, all
    /// timestamped in **simulated cycles** since the warm-up boundary.
    pub fn run_sampled(&self, id: BenchmarkId, every_cycles: u64) -> SampledMetrics {
        let run = self.raw_sampled(id, every_cycles);
        let sampled = SampledMetrics::from_run(id.name(), &run);
        self.emit_samples(&sampled);
        sampled
    }

    /// The raw counter-level sampled run behind
    /// [`Characterizer::run_sampled`] (for validation/calibration, the
    /// way [`Characterizer::raw_counts`] sits behind
    /// [`Characterizer::run`]). Emits no events.
    pub fn raw_sampled(&self, id: BenchmarkId, every_cycles: u64) -> dc_cpu::SampledRun {
        cache::note_simulation();
        let prof = profile(id);
        let trace = SyntheticTrace::new(&prof, self.entry_seed(id));
        Core::new(self.cfg.clone()).run_sampled(trace, &self.opts, every_cycles)
    }

    /// Emit one `interval_sample` event per interval plus the
    /// `workload_sampled` summary for an already-computed series (used
    /// by [`crate::report::phase_exhibit`], which samples workloads in
    /// parallel but must emit in deterministic workload order).
    pub(crate) fn emit_samples(&self, sampled: &SampledMetrics) {
        if !self.recorder.is_enabled() {
            return;
        }
        for iv in &sampled.intervals {
            self.recorder.emit(
                iv.end_cycle,
                "interval_sample",
                vec![
                    ("workload", Value::str(sampled.name.clone())),
                    ("interval", Value::U64(iv.index as u64)),
                    ("start_cycle", Value::U64(iv.start_cycle)),
                    ("end_cycle", Value::U64(iv.end_cycle)),
                    ("instructions", Value::U64(iv.instructions)),
                    ("ipc", Value::F64(iv.ipc)),
                    ("l2_mpki", Value::F64(iv.l2_mpki)),
                    ("l3_mpki", Value::F64(iv.l3_mpki)),
                    ("branch_mpki", Value::F64(iv.branch_mpki)),
                ],
            );
        }
        self.recorder.emit(
            sampled.aggregate.cycles,
            "workload_sampled",
            vec![
                ("workload", Value::str(sampled.name.clone())),
                ("intervals", Value::U64(sampled.intervals.len() as u64)),
                ("every_cycles", Value::U64(sampled.every_cycles)),
                ("instructions", Value::U64(sampled.aggregate.instructions)),
                ("ipc", Value::F64(sampled.aggregate.ipc())),
                ("ipc_spread", Value::F64(sampled.ipc_spread())),
            ],
        );
    }

    /// Characterize a set of entries in parallel, returning metric rows
    /// in the same order as `ids`. Bit-identical to mapping [`run`]
    /// over `ids` sequentially.
    ///
    /// [`run`]: Characterizer::run
    pub fn run_many(&self, ids: &[BenchmarkId]) -> Vec<Metrics> {
        pool::parallel_map(ids.to_vec(), |_, id| self.run(id))
    }

    /// Characterize every entry in figure order (in parallel).
    pub fn run_all(&self) -> Vec<Metrics> {
        self.run_many(BenchmarkId::all())
    }

    /// Characterize every entry in figure order on the caller thread
    /// only, bypassing both the worker pool and the result cache: the
    /// reference the parallel pipeline is timed and verified against.
    pub fn run_all_sequential(&self) -> Vec<Metrics> {
        BenchmarkId::all()
            .iter()
            .map(|&id| self.run_uncached(id))
            .collect()
    }

    /// Characterize the eleven data-analysis entries plus their `avg`
    /// bar (the paper inserts the average after HMM).
    pub fn run_data_analysis_with_avg(&self) -> Vec<Metrics> {
        let mut rows = self.run_many(BenchmarkId::data_analysis());
        let avg = dc_perfmon::metrics::average("avg", &rows);
        rows.push(avg);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterization_is_deterministic() {
        let c = Characterizer::quick();
        let a = c.run(BenchmarkId::Sort);
        let b = c.run(BenchmarkId::Sort);
        assert_eq!(a, b);
        // And the uncached reference path agrees with the cached one.
        assert_eq!(a, c.run_uncached(BenchmarkId::Sort));
    }

    #[test]
    fn events_dump_is_consistent_with_metrics() {
        let c = Characterizer::quick();
        let (m, events) = c.run_with_events(BenchmarkId::Grep);
        let get = |e: PerfEvent| {
            events
                .iter()
                .find(|(x, _)| *x == e)
                .expect("event present")
                .1
        };
        let ipc =
            get(PerfEvent::InstructionsRetired) as f64 / get(PerfEvent::UnhaltedCycles) as f64;
        assert!((ipc - m.ipc).abs() < 1e-9);
    }

    #[test]
    fn avg_bar_is_appended() {
        let c = Characterizer::quick();
        let rows = c.run_data_analysis_with_avg();
        assert_eq!(rows.len(), 12);
        assert_eq!(rows.last().expect("nonempty").name, "avg");
    }

    #[test]
    fn corun_width_one_equals_solo_run() {
        // A seed no other test uses, so the shared cache cannot satisfy
        // either path from the other's fill: the chip path simulates
        // first, then the uncached Core reference path must agree
        // bit-for-bit.
        let c = Characterizer::new(
            CpuConfig::westmere_e5645(),
            SimOptions::exact(80_000, 20_000),
            0x00C0_9013,
        );
        let co = c.corun(BenchmarkId::KMeans, 1);
        assert_eq!(co, c.run_uncached(BenchmarkId::KMeans));
        assert_eq!(
            c.corun_counts(BenchmarkId::KMeans, 1).len(),
            1,
            "one block per core"
        );
    }

    #[test]
    fn corun_is_deterministic_and_cached() {
        let c = Characterizer::quick();
        let a = c.corun_counts(BenchmarkId::Sort, 3);
        assert_eq!(a.len(), 3);
        let before = cache::sim_invocations();
        let b = c.corun_counts(BenchmarkId::Sort, 3);
        assert_eq!(
            cache::sim_invocations(),
            before,
            "warm co-run lookup must not re-simulate"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_harness_is_keyed_separately_from_exact() {
        let exact = Characterizer::quick();
        let sampled = Characterizer::quick_sampled();
        let a = exact.raw_counts(BenchmarkId::Sort);
        let b = sampled.raw_counts(BenchmarkId::Sort);
        // Both modes stop within one retire group of `max_ops`, but on
        // different cycle boundaries, so the counts can differ by up to
        // the retire width — never more.
        assert!(
            a.instructions.abs_diff(b.instructions) <= 8,
            "instruction counts diverged: exact {} vs sampled {}",
            a.instructions,
            b.instructions
        );
        assert_ne!(
            a.cycles, b.cycles,
            "a sampled block is an extrapolation, not the exact block"
        );
        // Warm lookups on both keys hit without re-simulating — and
        // each returns its own block, not the other mode's.
        let before = cache::sim_invocations();
        assert_eq!(exact.raw_counts(BenchmarkId::Sort), a);
        assert_eq!(sampled.raw_counts(BenchmarkId::Sort), b);
        assert_eq!(cache::sim_invocations(), before);
    }

    #[test]
    fn sampled_corun_width_one_equals_sampled_solo() {
        // The chip lockstep and the single-core loop must agree in
        // sampled mode exactly as they do in exact mode. Seed unique to
        // this test so the cache cannot cross-satisfy the two paths.
        let c = Characterizer::new(
            CpuConfig::westmere_e5645(),
            SimOptions::exact(80_000, 20_000).with_sampling(10_000, 30_000),
            0x5A3D_9013,
        );
        assert_eq!(
            c.corun(BenchmarkId::KMeans, 1),
            c.run_uncached(BenchmarkId::KMeans)
        );
    }

    #[test]
    fn run_many_matches_per_entry_runs() {
        let c = Characterizer::quick();
        let ids = [BenchmarkId::Sort, BenchmarkId::Grep, BenchmarkId::SpecInt];
        let batch = c.run_many(&ids);
        assert_eq!(batch.len(), 3);
        for (row, &id) in batch.iter().zip(&ids) {
            assert_eq!(*row, c.run(id));
        }
    }
}
