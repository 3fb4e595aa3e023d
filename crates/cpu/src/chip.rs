//! The multi-core chip model — N cores sharing one contended L3 — and
//! the one cycle loop every simulation runs on.
//!
//! The paper's machines were dual Xeon E5645 chips — six cores behind a
//! shared 12 MB L3 — running up to eight Hadoop map/reduce task slots
//! per node, so every measured miss ratio already embeds shared-cache
//! contention. [`Chip`] models that directly: each core owns its
//! private L1I/L1D/L2/TLB/predictor state ([`PrivateHierarchy`]) and is
//! fed its own trace, while all cores compete for one [`SharedL3`] and
//! its bounded memory channel.
//!
//! ## One loop
//!
//! `Lockstep` is the only loop that steps a `Pipeline`. A solo
//! [`Core`] is a one-core chip, a co-run is an N-core chip, an interval
//! series ([`Chip::run_intervals`]) is a run with a recorder per core,
//! and each lane of a sweep curve ([`crate::shared_trace`]) is a
//! one-core chip paused between turns. A 1-core chip is therefore
//! **bit-identical** to [`Core::run`] by construction: core 0 carries a
//! zero address salt and is the only core stepped.
//!
//! ## Interleaving and determinism contract
//!
//! Cores advance in **lockstep on a single global cycle counter**:
//! every cycle, each still-running core takes exactly one
//! `Pipeline::step`, always in ascending core order. The shared L3
//! therefore observes a deterministic interleave of requests — the same
//! configs, traces and seeds produce bit-identical counters on every
//! run, on any machine, at any thread count. There is no wall-clock or
//! scheduler dependence anywhere in the model.
//!
//! A core whose step made no progress sleeps until its own earliest
//! possible action (`Pipeline::next_event`), fenced at its next interval
//! boundary; the cycles it sleeps through are charged to its stall
//! counter in bulk. The clock jumps to the earliest wake of all live
//! cores, and each cycle steps only the cores that wake then, still in
//! ascending order. An idle step reads only the core's private state
//! and touches nothing shared, so a sleeping core misses nothing the
//! others do, and every counter is bit-identical to stepping every core
//! every cycle.
//!
//! Cores that finish their measurement window early stop stepping
//! (their counters freeze) while the remaining cores keep running and
//! keep contending; this mirrors a straggling map task finishing late
//! while its slot-mates have drained.
//!
//! Distinct cores salt the *physical* addresses they present to the
//! shared level (`core_index << 44`, applied only beyond L2) so that
//! co-running tasks model distinct working sets mapped to distinct
//! physical pages, contending for L3 capacity rather than aliasing
//! into shared lines.
//!
//! [`Core`]: crate::core::Core
//! [`Core::run`]: crate::core::Core::run

use dc_trace::TraceSource;

use crate::branch::BranchPredictor;
use crate::cache::{PrivateHierarchy, SharedL3};
use crate::config::CpuConfig;
use crate::core::{Pipeline, SimOptions};
use crate::counters::PerfCounts;
use crate::intervals::{IntervalRecorder, IntervalRun};
use crate::tlb::Mmu;

/// Bit position of the per-core physical-address salt. High enough
/// that no synthetic region (user or kernel) spans a salt boundary,
/// low enough that salted kernel addresses stay distinct per core.
const CORE_SALT_SHIFT: u32 = 44;

/// Per-core private machine state: everything except the shared L3.
#[derive(Debug)]
struct CoreState {
    hier: PrivateHierarchy,
    mmu: Mmu,
    bp: BranchPredictor,
}

/// A chip of N identical cores behind one shared, contended L3.
#[derive(Debug)]
pub struct Chip {
    cfg: CpuConfig,
    cores: Vec<CoreState>,
    shared: SharedL3,
}

// The parallel characterization pipeline ships whole chip simulations
// to worker threads, exactly as it ships single cores.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Chip>();
};

impl Chip {
    /// Build a chip with `num_cores` cores for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(cfg: CpuConfig, num_cores: usize) -> Self {
        assert!(num_cores > 0, "a chip needs at least one core");
        let cores = (0..num_cores)
            .map(|i| CoreState {
                hier: PrivateHierarchy::with_salt(&cfg, (i as u64) << CORE_SALT_SHIFT),
                mmu: Mmu::new(&cfg),
                bp: BranchPredictor::new(&cfg),
            })
            .collect();
        Chip {
            shared: SharedL3::new(&cfg),
            cores,
            cfg,
        }
    }

    /// Number of cores on the chip.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The machine configuration in use.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Run one trace per core to completion, in lockstep, and return
    /// each core's measured counters (indexed by core).
    ///
    /// Every core applies `opts` independently: it warms up for
    /// `opts.warmup_ops` retired µops (statistics reset at its own
    /// boundary; shared-L3 *contents* stay warm), then measures until
    /// `opts.max_ops` further µops retire or its trace drains.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one trace is supplied per core.
    pub fn run<T: TraceSource>(
        &mut self,
        mut traces: Vec<T>,
        opts: &SimOptions,
    ) -> Vec<PerfCounts> {
        self.drive(&mut traces, opts, None).counts(self)
    }

    /// Like [`Chip::run`], but each core also snapshots its counters
    /// every `every_cycles` **global** cycles past its own warm-up
    /// boundary (a `perf stat -I`-style series), returning one
    /// [`IntervalRun`] per core (indexed by core). Aggregates are
    /// bit-identical to [`Chip::run`] on the same traces — recording is
    /// observation-only — and each core's interval deltas telescope to
    /// its aggregate exactly.
    ///
    /// # Panics
    ///
    /// Panics if `every_cycles` is zero, if `opts` enables SMARTS
    /// sampling (interval series need the exact cycle clock), or unless
    /// exactly one trace is supplied per core.
    pub fn run_intervals<T: TraceSource>(
        &mut self,
        mut traces: Vec<T>,
        opts: &SimOptions,
        every_cycles: u64,
    ) -> Vec<IntervalRun> {
        self.drive(&mut traces, opts, Some(every_cycles))
            .intervals(self)
    }

    /// Run one trace per core to completion, recording an interval
    /// series per core when `every_cycles` is given; the finished run
    /// holds the counters.
    pub(crate) fn drive<T: TraceSource>(
        &mut self,
        traces: &mut [T],
        opts: &SimOptions,
        every_cycles: Option<u64>,
    ) -> Lockstep {
        let mut run = Lockstep::new(self, opts, every_cycles);
        run.advance(self, traces, |_| false);
        run
    }
}

/// One core's pipeline within a [`Lockstep`] run.
#[derive(Debug)]
struct Slot {
    pipe: Pipeline,
    recorder: Option<IntervalRecorder>,
    /// The next global cycle this core steps at; [`DONE`] once it has
    /// finished.
    wake: u64,
}

/// [`Slot::wake`] of a finished core: it never steps again.
const DONE: u64 = u64::MAX;

impl Slot {
    /// The cycle this core next steps at, after an unfinished step at
    /// `cycle`: the next one after progress, else its own `next_event`
    /// bound fenced at its recorder's next snapshot, with the cycles it
    /// sleeps through charged in bulk (see the module docs).
    #[inline]
    fn wake_after(&mut self, cycle: u64) -> u64 {
        if self.pipe.made_progress() {
            return cycle + 1;
        }
        let Some((bound, block)) = self.pipe.next_event(cycle) else {
            return cycle + 1;
        };
        let wake = self
            .recorder
            .as_ref()
            .map_or(bound, |r| bound.min(r.next_at()));
        debug_assert!(wake > cycle, "a core cannot wake in the past");
        self.pipe.charge_idle(block, wake - 1 - cycle);
        wake
    }
}

/// One run of a [`Chip`], resumable between cycles: the lockstep step /
/// per-core sleep loop (see the module docs). [`Chip::drive`], behind
/// every `run*` entry point, drives it to the end in one call;
/// [`crate::shared_trace`] pauses it at chunk boundaries of a trace
/// several one-core chips share. Pausing between cycles and resuming is
/// the same loop as never pausing, so every caller measures
/// bit-identical counters.
#[derive(Debug)]
pub(crate) struct Lockstep {
    slots: Vec<Slot>,
    live: usize,
    /// The next global cycle: the earliest wake of all live cores.
    cycle: u64,
}

impl Lockstep {
    /// A fresh run of `opts` on every core of `chip`, recording an
    /// interval series per core when `every_cycles` is given.
    pub(crate) fn new(chip: &Chip, opts: &SimOptions, every_cycles: Option<u64>) -> Self {
        assert!(
            every_cycles.is_none() || opts.sample.is_none(),
            "interval series require an exact (non-SMARTS) run"
        );
        let slots: Vec<Slot> = chip
            .cores
            .iter()
            .map(|_| {
                let pipe = Pipeline::new(&chip.cfg, opts);
                let recorder = every_cycles.map(|every| IntervalRecorder::new(every, &pipe));
                Slot {
                    pipe,
                    recorder,
                    wake: 1,
                }
            })
            .collect();
        Lockstep {
            live: slots.len(),
            slots,
            cycle: 1,
        }
    }

    /// Step every live core of `chip` through its trace, each at the
    /// cycles it wakes at, until all have finished or `pause(traces)`
    /// holds before a cycle; returns whether all have finished.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one trace is supplied per core.
    #[inline]
    pub(crate) fn advance<T: TraceSource>(
        &mut self,
        chip: &mut Chip,
        traces: &mut [T],
        pause: impl Fn(&[T]) -> bool,
    ) -> bool {
        assert_eq!(
            traces.len(),
            self.slots.len(),
            "need exactly one trace per core"
        );
        let Chip { cfg, cores, shared } = chip;
        // Slices and counters in locals: the per-cycle loop reloads
        // nothing through `self` or `chip`.
        let slots = &mut self.slots[..];
        let cores = &mut cores[..];
        let mut live = self.live;
        let mut next = self.cycle;
        while live > 0 && !pause(traces) {
            let cycle = next;
            next = DONE;
            let lanes = slots.iter_mut().zip(cores.iter_mut());
            for ((slot, core), trace) in lanes.zip(traces.iter_mut()) {
                if slot.wake > cycle {
                    next = next.min(slot.wake);
                    continue;
                }
                let finished = slot.pipe.step(
                    cycle,
                    cfg,
                    &mut core.hier,
                    shared,
                    &mut core.mmu,
                    &mut core.bp,
                    trace,
                );
                if let Some(rec) = &mut slot.recorder {
                    rec.after_step(cycle, finished, &slot.pipe, &core.hier, &core.mmu, &core.bp);
                }
                if finished {
                    slot.wake = DONE;
                    live -= 1;
                } else {
                    slot.wake = slot.wake_after(cycle);
                    next = next.min(slot.wake);
                }
            }
        }
        self.live = live;
        self.cycle = next;
        live == 0
    }

    /// The measured counters of a finished run, indexed by core.
    pub(crate) fn counts(&self, chip: &Chip) -> Vec<PerfCounts> {
        debug_assert_eq!(self.live, 0, "counts() before the run completed");
        self.slots
            .iter()
            .zip(&chip.cores)
            .map(|(slot, core)| slot.pipe.finalize(&core.hier, &core.mmu, &core.bp))
            .collect()
    }

    /// Each core's counters and interval series, of a finished run
    /// started with an interval length.
    pub(crate) fn intervals(self, chip: &Chip) -> Vec<IntervalRun> {
        let counts = self.counts(chip);
        self.slots
            .into_iter()
            .zip(counts)
            .map(|(slot, aggregate)| {
                slot.recorder
                    .expect("interval run has a recorder per core")
                    .finish(aggregate)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{simulate, SimOptions};
    use dc_trace::profile::AccessPattern;
    use dc_trace::{SyntheticTrace, WorkloadProfile};

    fn opts() -> SimOptions {
        SimOptions::exact(60_000, 10_000)
    }

    /// A profile whose working set fits the L3 alone but thrashes it
    /// when several copies co-run (12 MB shared L3, 6 MiB per task).
    fn cache_hungry() -> WorkloadProfile {
        WorkloadProfile::builder("hungry")
            .region(6 << 20, 1.0, AccessPattern::Random)
            .build()
            .expect("valid test profile")
    }

    /// A default, mostly compute-bound profile.
    fn plain() -> WorkloadProfile {
        WorkloadProfile::builder("plain")
            .build()
            .expect("valid test profile")
    }

    /// The loop [`Lockstep::advance`] must reproduce: every live core
    /// steps every cycle, in ascending order, and nothing sleeps.
    /// Returns the counters and, given `every`, the interval series.
    fn run_every_cycle<T: TraceSource>(
        cores: usize,
        mut traces: Vec<T>,
        every: Option<u64>,
    ) -> (Vec<PerfCounts>, Option<Vec<IntervalRun>>) {
        let mut chip = Chip::new(CpuConfig::westmere_e5645(), cores);
        let mut run = Lockstep::new(&chip, &opts(), every);
        let Chip { cfg, cores, shared } = &mut chip;
        let mut cycle = 0;
        while run.live > 0 {
            cycle += 1;
            let lanes = run.slots.iter_mut().zip(cores.iter_mut());
            for ((slot, core), trace) in lanes.zip(traces.iter_mut()) {
                if slot.wake == DONE {
                    continue;
                }
                let (hier, mmu, bp) = (&mut core.hier, &mut core.mmu, &mut core.bp);
                let finished = slot.pipe.step(cycle, cfg, hier, shared, mmu, bp, trace);
                if let Some(rec) = &mut slot.recorder {
                    rec.after_step(cycle, finished, &slot.pipe, hier, mmu, bp);
                }
                if finished {
                    slot.wake = DONE;
                    run.live -= 1;
                }
            }
        }
        let counts = run.counts(&chip);
        (counts, every.map(|_| run.intervals(&chip)))
    }

    #[test]
    fn per_core_sleep_matches_stepping_every_core_every_cycle() {
        let profile = cache_hungry();
        let traces = || {
            (0..4)
                .map(|k| SyntheticTrace::new(&profile, 31 + k))
                .collect::<Vec<_>>()
        };
        let chip = || Chip::new(CpuConfig::westmere_e5645(), 4);
        let (counts, _) = run_every_cycle(4, traces(), None);
        assert_eq!(chip().run(traces(), &opts()), counts);
        // An interval length no sleep lines up with by chance: each
        // core must wake at its own boundaries to close them on time.
        let every = 997;
        let (_, series) = run_every_cycle(4, traces(), Some(every));
        let series = series.expect("an interval run");
        assert_eq!(chip().run_intervals(traces(), &opts(), every), series);
        assert!(series.iter().all(|run| run.samples.len() > 10));
    }

    #[test]
    fn one_core_chip_matches_core_run() {
        let cfg = CpuConfig::westmere_e5645();
        for (profile, seed) in [(plain(), 7u64), (cache_hungry(), 2013)] {
            let solo = simulate(SyntheticTrace::new(&profile, seed), &cfg, &opts());
            let mut chip = Chip::new(cfg.clone(), 1);
            let chip_counts = chip.run(vec![SyntheticTrace::new(&profile, seed)], &opts());
            assert_eq!(chip_counts.len(), 1);
            assert_eq!(chip_counts[0], solo, "1-core chip must be bit-identical");
        }
    }

    #[test]
    fn chip_run_is_deterministic() {
        let cfg = CpuConfig::westmere_e5645();
        let profile = cache_hungry();
        let run = || {
            let mut chip = Chip::new(cfg.clone(), 4);
            let traces = (0..4)
                .map(|k| SyntheticTrace::new(&profile, 11 + k))
                .collect();
            chip.run(traces, &opts())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corunners_increase_shared_pressure() {
        let cfg = CpuConfig::westmere_e5645();
        let profile = cache_hungry();
        let solo = simulate(SyntheticTrace::new(&profile, 5), &cfg, &opts());
        let mut chip = Chip::new(cfg.clone(), 6);
        let traces = (0..6)
            .map(|k| SyntheticTrace::new(&profile, 5 + k))
            .collect();
        let co = chip.run(traces, &opts());
        // Core 0 runs the same trace in both worlds; with five
        // co-runners thrashing the L3 its miss count cannot improve.
        assert!(
            co[0].l3_misses >= solo.l3_misses,
            "co-run L3 misses {} < solo {}",
            co[0].l3_misses,
            solo.l3_misses
        );
        // And contention must cost cycles, not save them.
        assert!(co[0].cycles >= solo.cycles);
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_mismatch_panics() {
        let mut chip = Chip::new(CpuConfig::westmere_e5645(), 2);
        let profile = plain();
        chip.run(vec![SyntheticTrace::new(&profile, 1)], &opts());
    }
}
