//! One trace, several machines: the driver behind a sweep curve.
//!
//! A sensitivity curve runs the *same* instruction stream on several
//! machine configurations. Synthesizing that stream once per
//! configuration repeats the costliest layer of a sampled window, so
//! [`simulate_configs`] synthesizes it once and lets one core per
//! configuration read it from a shared window.
//!
//! ## Turns and the window's memory bound
//!
//! The driver runs the cores in turns: each core steps (through the
//! same resumable lockstep loop as [`Core::run`], on a one-core
//! [`Chip`]) until its cursor passes the
//! next chunk boundary, a multiple of `CHUNK_OPS` µops, or its window
//! finishes; then the next core takes its turn. After every core has
//! had its turn, the window drops the µops below the slowest live
//! cursor. A core's cursor overshoots a boundary by at most one
//! fast-forward burst plus one fetch group, so the window never holds
//! more than one chunk plus the largest burst plus that slack
//! (`tests::window_high_water_stays_within_one_chunk_plus_a_burst`).
//!
//! A cursor that reaches the window's end pulls the next µop from the
//! source, so no core — not even one in the middle of a fast-forward
//! burst — ever sees an end of trace the source has not reached. The
//! first `None` from the source ends the trace for every core (sources
//! are expected to stay exhausted, as every iterator in the workspace
//! does).
//!
//! Each core owns its whole hierarchy, MMU and predictor, and sees the
//! identical µop sequence through the identical loop, so its counters
//! are bit-identical to `Core::new(cfg).run(trace, opts)`.

use dc_trace::{MicroOp, TraceSource};

use crate::chip::{Chip, Lockstep};
use crate::config::CpuConfig;
use crate::core::{Core, SamplePlan, SimOptions};
use crate::counters::PerfCounts;

/// µops each core consumes per turn: the default sampling plan's
/// largest fast-forward burst (bursts are jittered up to 1.5 ×
/// `ffwd_ops`), so every switch between cores is amortized over at
/// least one whole burst of the workloads' sampled windows.
const CHUNK_OPS: u64 = SamplePlan::DEFAULT.ffwd_ops * 3 / 2;

/// The µops between the slowest and the fastest live core, pulled from
/// the source on demand.
#[derive(Debug)]
struct Window<T> {
    source: T,
    ops: Vec<MicroOp>,
    /// Absolute trace index of `ops[0]`.
    base: u64,
    /// The source returned `None`: the trace ends at `base + ops.len()`.
    ended: bool,
    /// Most µops held at once, as of the last trim.
    high_water: usize,
}

impl<T: TraceSource> Window<T> {
    fn new(source: T) -> Self {
        Window {
            source,
            ops: Vec::new(),
            base: 0,
            ended: false,
            high_water: 0,
        }
    }

    /// The µop at absolute index `pos`, pulling it from the source when
    /// `pos` is the window's end.
    #[inline]
    fn get(&mut self, pos: u64) -> Option<MicroOp> {
        let i = (pos - self.base) as usize;
        if let Some(&op) = self.ops.get(i) {
            return Some(op);
        }
        debug_assert_eq!(i, self.ops.len(), "cursors read the trace in order");
        if self.ended {
            return None;
        }
        match self.source.next_op() {
            Some(op) => {
                self.ops.push(op);
                Some(op)
            }
            None => {
                self.ended = true;
                None
            }
        }
    }

    /// Drop every µop below absolute index `pos`, moving the rest to the
    /// front, so the live µops stay at the start of the buffer instead
    /// of cycling through its whole capacity as in a ring. The window
    /// only grows between trims, so its high-water mark is taken here.
    fn trim_to(&mut self, pos: u64) {
        self.high_water = self.high_water.max(self.ops.len());
        let n = (pos - self.base) as usize;
        self.ops.drain(..n);
        self.base = pos;
    }
}

/// One core's view of the window: an iterator from its own position.
struct Cursor<'a, T> {
    window: &'a mut Window<T>,
    pos: u64,
}

impl<T: TraceSource> Iterator for Cursor<'_, T> {
    type Item = MicroOp;

    #[inline]
    fn next(&mut self) -> Option<MicroOp> {
        let op = self.window.get(self.pos)?;
        self.pos += 1;
        Some(op)
    }
}

/// One configuration's one-core chip, its resumable run and its trace
/// position.
struct Lane {
    chip: Chip,
    run: Lockstep,
    pos: u64,
}

/// Simulate `trace` on a fresh core of every configuration in `cfgs`,
/// synthesizing the trace once. Returns one counter block per config,
/// in order, each bit-identical to
/// `Core::new(cfg.clone()).run(trace, opts)` on its own copy of the
/// trace. A single config runs straight through [`Core::run`], with no
/// window in between.
pub fn simulate_configs<T: TraceSource>(
    trace: T,
    cfgs: &[CpuConfig],
    opts: &SimOptions,
) -> Vec<PerfCounts> {
    match cfgs {
        [cfg] => vec![Core::new(cfg.clone()).run(trace, opts)],
        _ => run_shared(trace, cfgs, opts).0,
    }
}

/// The shared-window driver; also returns the window's high-water mark
/// in µops.
fn run_shared<T: TraceSource>(
    trace: T,
    cfgs: &[CpuConfig],
    opts: &SimOptions,
) -> (Vec<PerfCounts>, usize) {
    let mut window = Window::new(trace);
    let mut lanes: Vec<Lane> = cfgs
        .iter()
        .map(|cfg| {
            let chip = Chip::new(cfg.clone(), 1);
            Lane {
                run: Lockstep::new(&chip, opts, None),
                chip,
                pos: 0,
            }
        })
        .collect();
    let mut boundary = 0;
    loop {
        boundary += CHUNK_OPS;
        let mut slowest: Option<u64> = None;
        for lane in &mut lanes {
            let mut cursor = [Cursor {
                window: &mut window,
                pos: lane.pos,
            }];
            let done = lane
                .run
                .advance(&mut lane.chip, &mut cursor, |c| c[0].pos >= boundary);
            lane.pos = cursor[0].pos;
            if !done {
                slowest = Some(slowest.map_or(lane.pos, |s| s.min(lane.pos)));
            }
        }
        match slowest {
            Some(pos) => window.trim_to(pos),
            None => break,
        }
    }
    let counts = lanes.iter().map(|l| l.run.counts(&l.chip)[0]).collect();
    (counts, window.high_water.max(window.ops.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::simulate;
    use dc_trace::profile::AccessPattern;
    use dc_trace::{SyntheticTrace, WorkloadProfile};

    fn profile() -> WorkloadProfile {
        WorkloadProfile::builder("shared-trace")
            .region(48 << 20, 0.7, AccessPattern::Random)
            .region(8 << 20, 0.3, AccessPattern::Sequential { stride: 8 })
            .build()
            .expect("valid")
    }

    /// Configs that run at very different speeds over the same trace.
    fn spread_configs() -> Vec<CpuConfig> {
        let base = CpuConfig::westmere_e5645();
        vec![
            base.clone().with_rob_entries(32),
            base.clone().with_rob_entries(256),
            base.clone().with_predictor_bits(0),
            base.clone().with_predictor_bits(12),
            base.clone().with_l3_bytes(1536 << 10),
            base.with_l3_bytes(24 << 20),
        ]
    }

    /// Every group size K of the spread configs, in several orders, must
    /// reproduce the per-config runs and keep the window bounded.
    fn check(opts: &SimOptions, seed: u64) {
        let cfgs = spread_configs();
        let solo: Vec<PerfCounts> = cfgs
            .iter()
            .map(|cfg| simulate(SyntheticTrace::new(&profile(), seed), cfg, opts))
            .collect();
        let burst = opts.sample.map_or(0, |p| p.ffwd_ops * 3 / 2);
        let slack = 2 * CpuConfig::westmere_e5645().core.fetch_width as u64;
        let bound = (CHUNK_OPS + burst + slack) as usize;
        let groups: [&[usize]; 6] = [&[0], &[0, 1], &[3, 2], &[4, 5, 0], &[1, 2, 5], &[5, 4]];
        for group in groups {
            let picked: Vec<CpuConfig> = group.iter().map(|&i| cfgs[i].clone()).collect();
            let (shared, high) = run_shared(SyntheticTrace::new(&profile(), seed), &picked, opts);
            for (&i, got) in group.iter().zip(&shared) {
                assert_eq!(*got, solo[i], "config {i} in group {group:?} diverged");
            }
            assert!(
                high <= bound,
                "window high-water {high} µops exceeds {bound} in group {group:?}"
            );
        }
    }

    #[test]
    fn shared_driver_matches_per_config_runs_exact() {
        check(&SimOptions::exact(250_000, 50_000), 11);
    }

    #[test]
    fn shared_driver_matches_per_config_runs_sampled() {
        let plan = SamplePlan::DEFAULT;
        check(
            &SimOptions::exact(400_000, 150_000).with_sampling(plan.detail_ops, plan.ffwd_ops),
            12,
        );
    }

    #[test]
    fn shared_driver_matches_per_config_runs_with_small_bursts() {
        // Many turns with several bursts each, and a warm-up boundary
        // that falls inside a burst.
        check(
            &SimOptions::exact(300_000, 45_000).with_sampling(4_000, 20_000),
            13,
        );
    }

    #[test]
    fn window_high_water_stays_within_one_chunk_plus_a_burst() {
        // A long sampled window with a fast and a slow core: the fast
        // core reaches every boundary first and must wait there.
        let base = CpuConfig::westmere_e5645();
        let cfgs = [
            base.clone().with_rob_entries(32),
            base.with_rob_entries(256),
        ];
        let plan = SamplePlan::DEFAULT;
        let opts =
            SimOptions::exact(900_000, 300_000).with_sampling(plan.detail_ops, plan.ffwd_ops);
        let (_, high) = run_shared(SyntheticTrace::new(&profile(), 5), &cfgs, &opts);
        let bound = CHUNK_OPS + plan.ffwd_ops * 3 / 2 + 8;
        assert!(high as u64 <= bound, "high-water {high} > {bound}");
        assert!(
            high as u64 >= CHUNK_OPS,
            "the window must span at least one chunk: {high}"
        );
    }

    #[test]
    fn finite_replay_shorter_than_the_window_ends_for_every_core() {
        // The source ends long before the first chunk boundary: every
        // core must drain and finish on the true end of the trace.
        let cfgs = spread_configs();
        for opts in [
            SimOptions::exact(1_000_000, 5_000),
            SimOptions::exact(1_000_000, 5_000).with_sampling(3_000, 9_000),
        ] {
            let trace = || SyntheticTrace::new(&profile(), 21).take(40_000);
            let (shared, high) = run_shared(trace(), &cfgs, &opts);
            assert_eq!(high, 40_000, "the whole replay fits one window");
            for (cfg, got) in cfgs.iter().zip(&shared) {
                assert_eq!(*got, simulate(trace(), cfg, &opts));
                // Every µop past the warm-up boundary retires (the
                // boundary itself lands within one retire group).
                assert!(
                    got.instructions.abs_diff(35_000) <= 8,
                    "{}",
                    got.instructions
                );
            }
        }
    }

    #[test]
    fn public_entry_point_covers_zero_one_and_many_configs() {
        let opts = SimOptions::exact(60_000, 10_000);
        let trace = || SyntheticTrace::new(&profile(), 1);
        assert!(simulate_configs(trace(), &[], &opts).is_empty());
        let cfgs = spread_configs();
        let solo: Vec<PerfCounts> = cfgs[..2]
            .iter()
            .map(|cfg| simulate(trace(), cfg, &opts))
            .collect();
        assert_eq!(simulate_configs(trace(), &cfgs[..1], &opts), solo[..1]);
        assert_eq!(simulate_configs(trace(), &cfgs[..2], &opts), solo);
    }
}
