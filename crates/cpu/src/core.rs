//! The out-of-order core model.
//!
//! A timestamp-based (interval-style) model of a 4-wide superscalar OoO
//! pipeline, the standard trace-driven approximation used by fast
//! architectural simulators:
//!
//! * an **in-order front end** fetches µops through the real L1-I /
//!   ITLB / branch-predictor structures into a decode queue; I-cache and
//!   ITLB misses block fetch for their miss latency, and branch
//!   mispredictions block fetch for the redirect penalty;
//! * a **rename/dispatch stage** moves up to `rename_width` µops per
//!   cycle into the backend, blocking when the ROB, RS, load buffer or
//!   store buffer is full or when a RAT hazard bubble is in flight —
//!   each fully-blocked cycle is attributed to exactly one cause,
//!   mirroring the paper's resource-stall counters (Figure 6);
//! * a **window-limited backend** computes each µop's completion time as
//!   `max(dispatch, producer completion) + latency`, with load latencies
//!   coming from the real cache/TLB hierarchy; stores drain from the
//!   store buffer in order at hierarchy latency;
//! * **in-order retirement** frees ROB entries up to `retire_width` per
//!   cycle.
//!
//! The model deliberately omits wrong-path execution and multi-core
//! interference; the paper's per-workload counters are dominated by
//! right-path locality and window effects, which this captures.
//!
//! ## Representation: flat-array, index-based state
//!
//! The backend windows are structure-of-arrays rings, not collections
//! of per-op structs: the ROB is a fixed-capacity ring of parallel
//! completion-cycle and flag arrays (`RobRing`), and the RS / load
//! buffer / store buffer are counting wakeup structures keyed on the
//! cycle an entry frees (`WakeupWheel`) — the model never needs to
//! know *which* entry frees, only *how many* are still held at a given
//! cycle, so a heap of release times collapses into occupancy counts
//! bucketed by cycle. The wheels drain lazily: rename only asks whether
//! a window is full, and the undrained count can only overstate it, so
//! a wheel is drained only once that count reaches the window's
//! capacity. No allocation happens per op or per cycle.
//!
//! ## Idle-cycle skipping
//!
//! Most simulated cycles do nothing: rename is blocked on one cause,
//! fetch is waiting out a miss, and the ROB head has not completed.
//! After an un-finished step that made no progress,
//! `Pipeline::next_event` computes the earliest future cycle at which
//! *any* stage could act; the lockstep loop ([`crate::chip`]) lets this
//! core sleep until then, bulk-charging the skipped cycles to the same
//! stall counter the stepped loop would have charged. The skip is exact
//! — counters, interleavings and final cycles are bit-identical to the
//! cycle-by-cycle loop (pinned by tests here, in `chip`, and by the
//! golden suite).
//!
//! ## SMARTS-style sampled simulation
//!
//! With [`SimOptions::sample`] set, the pipeline alternates short
//! detailed intervals (`detail_ops` retired µops) with long functional
//! fast-forward bursts (`ffwd_ops` µops) that update only caches, TLBs
//! and the branch predictor — the large long-lived state — while the
//! pipeline timing model rests. Cycle-denominated counters are
//! extrapolated from the detailed intervals at finalization; event
//! counters (misses, walks, mispredicts) are exact because every op
//! still touches the real structures in program order. See DESIGN.md
//! §13 for the extrapolation math and measured error bounds.

use dc_trace::{MicroOp, Mode, OpKind, TraceSource};

use crate::branch::BranchPredictor;
use crate::cache::{PrivateHierarchy, SharedL3};
use crate::chip::Chip;
use crate::config::CpuConfig;
use crate::counters::PerfCounts;
use crate::intervals::IntervalRun;
use crate::tlb::Mmu;

/// Completion ring size for dependence resolution (must exceed the
/// maximum dependence distance emitted by traces).
const COMPLETION_RING: usize = 128;

// The ring indexes producers by `op_idx - dep_dist`; if a trace could
// emit a dependence distance at or beyond the ring size, a µop would
// read a slot already overwritten by a younger op. dc-trace caps what
// it emits, and this pin makes the cross-crate contract unbreakable.
const _: () = assert!(
    COMPLETION_RING as u64 > dc_trace::synth::MAX_DEP_DIST,
    "completion ring must exceed the maximum trace dependence distance"
);

/// SMARTS-style systematic-sampling plan: alternate `detail_ops`
/// retired µops of full pipeline detail with `ffwd_ops` µops of
/// functional fast-forward (caches/TLBs/predictor warmed, no timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SamplePlan {
    /// µops retired in full pipeline detail per interval.
    pub detail_ops: u64,
    /// µops functionally fast-forwarded between detailed intervals.
    pub ffwd_ops: u64,
}

impl SamplePlan {
    /// The validated default plan: one part detailed to three parts
    /// fast-forwarded. Each burst re-enters detail through a warming
    /// prefix (a quarter interval) whose cycles are excluded from the
    /// extrapolation, and burst lengths are jittered ±50% to break
    /// aliasing with workload phase structure. The `sampled-validation`
    /// CI job holds this plan to ≤ 3% IPC / ≤ 5% MPKI error across all
    /// eleven data-analysis workloads at the full window (~12 bursts);
    /// the extrapolation error is sampling variance, so shorter windows
    /// loosen the IPC bound (≤ 8% at the quick window's ~5 bursts)
    /// while the event-count MPKI bound holds everywhere.
    pub const DEFAULT: SamplePlan = SamplePlan {
        detail_ops: 25_000,
        ffwd_ops: 75_000,
    };
}

/// Simulation bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimOptions {
    /// µops to retire during the measured window.
    pub max_ops: u64,
    /// µops to retire before statistics are reset (cache/TLB/predictor
    /// warm-up — the paper's "ramp-up period").
    pub warmup_ops: u64,
    /// `None` ⇒ exact cycle-accurate simulation of every µop.
    /// `Some(plan)` ⇒ SMARTS-style systematic sampling: only the
    /// plan's detailed intervals are simulated cycle-by-cycle, the
    /// rest functionally warm the caches/TLBs/predictor, and
    /// cycle-denominated counters are extrapolated.
    pub sample: Option<SamplePlan>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_ops: 2_000_000,
            warmup_ops: 300_000,
            sample: None,
        }
    }
}

impl SimOptions {
    /// Exact (unsampled) simulation with the given window.
    pub fn exact(max_ops: u64, warmup_ops: u64) -> Self {
        SimOptions {
            max_ops,
            warmup_ops,
            sample: None,
        }
    }

    /// Quick options for unit tests / smoke runs.
    pub fn quick() -> Self {
        SimOptions::exact(200_000, 30_000)
    }

    /// Default window with SMARTS-style sampling enabled.
    pub fn sampled(detail_ops: u64, ffwd_ops: u64) -> Self {
        SimOptions::default().with_sampling(detail_ops, ffwd_ops)
    }

    /// Enable SMARTS-style sampling on this window.
    pub fn with_sampling(mut self, detail_ops: u64, ffwd_ops: u64) -> Self {
        self.sample = Some(SamplePlan {
            detail_ops,
            ffwd_ops,
        });
        self
    }

    /// Whether this window runs in sampled (extrapolating) mode.
    pub fn is_sampled(&self) -> bool {
        self.sample.is_some()
    }
}

/// ROB entry flag: the µop retired in kernel mode.
const FLAG_KERNEL: u8 = 1;

/// Fixed-capacity SoA ring backing the ROB: parallel completion-cycle
/// and flag arrays plus head/length indices. Sized *exactly* to
/// `rob_entries` — no power-of-two rounding, no growth.
#[derive(Debug)]
struct RobRing {
    complete: Box<[u64]>,
    flags: Box<[u8]>,
    head: usize,
    len: usize,
}

impl RobRing {
    fn new(cap: usize) -> Self {
        assert!(cap > 0, "ROB capacity must be positive");
        RobRing {
            complete: vec![0u64; cap].into_boxed_slice(),
            flags: vec![0u8; cap].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn cap(&self) -> usize {
        self.complete.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.len == self.cap()
    }

    /// Completion cycle of the oldest entry, if any.
    #[inline]
    fn front_complete(&self) -> Option<u64> {
        (self.len > 0).then(|| self.complete[self.head])
    }

    #[inline]
    fn push(&mut self, complete: u64, kernel: bool) {
        debug_assert!(!self.is_full());
        let cap = self.cap();
        let mut idx = self.head + self.len;
        if idx >= cap {
            idx -= cap;
        }
        self.complete[idx] = complete;
        self.flags[idx] = kernel as u8;
        self.len += 1;
    }

    /// Pop the oldest entry and return its flags.
    #[inline]
    fn pop_front(&mut self) -> u8 {
        debug_assert!(self.len > 0);
        let f = self.flags[self.head];
        self.head += 1;
        if self.head == self.cap() {
            self.head = 0;
        }
        self.len -= 1;
        f
    }
}

/// Fixed-capacity ring of µops between fetch and rename.
#[derive(Debug)]
struct OpRing {
    ops: Box<[MicroOp]>,
    head: usize,
    len: usize,
}

impl OpRing {
    fn new(cap: usize) -> Self {
        OpRing {
            ops: vec![MicroOp::int_alu(0); cap].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.len == self.ops.len()
    }

    #[inline]
    fn front(&self) -> Option<&MicroOp> {
        (self.len > 0).then(|| &self.ops[self.head])
    }

    #[inline]
    fn push_back(&mut self, op: MicroOp) {
        debug_assert!(!self.is_full());
        let cap = self.ops.len();
        let mut idx = self.head + self.len;
        if idx >= cap {
            idx -= cap;
        }
        self.ops[idx] = op;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head += 1;
        if self.head == self.ops.len() {
            self.head = 0;
        }
        self.len -= 1;
    }
}

/// Slots in a wakeup wheel; a power of two so the slot index is a mask.
/// Release times beyond the horizon (rare: deep memory-bound windows)
/// spill to a small overflow list.
const WHEEL_SLOTS: usize = 2048;

/// Counting wakeup structure replacing a `BinaryHeap<Reverse<u64>>` of
/// release times. The model only ever asks "are `cap` or more entries
/// still held at cycle C?" and, when they are, "when does the next entry
/// free?", so instead of ordered release times it keeps occupancy
/// *counts* bucketed by release cycle in a power-of-two wheel. Draining
/// advances a cursor; nothing is compared, swapped or allocated.
///
/// Draining is lazy: the bucketed count only ever overstates the entries
/// held at C, so [`WakeupWheel::full_at`] drains only once that stale
/// count reaches the cap, and [`WakeupWheel::push`] drains before it
/// would spill a release past the horizon.
#[derive(Debug)]
struct WakeupWheel {
    /// Occupancy per wheel slot; slot `t & (WHEEL_SLOTS-1)` is valid
    /// for release times in `(drained_to, drained_to + WHEEL_SLOTS]`.
    counts: Box<[u16]>,
    /// Total occupancy currently bucketed in the wheel.
    live: usize,
    /// Releases at or before this cycle have been drained.
    drained_to: u64,
    /// Release times beyond the wheel horizon.
    overflow: Vec<u64>,
}

impl WakeupWheel {
    fn new() -> Self {
        WakeupWheel {
            counts: vec![0u16; WHEEL_SLOTS].into_boxed_slice(),
            live: 0,
            drained_to: 0,
            overflow: Vec::new(),
        }
    }

    #[inline]
    fn slot(t: u64) -> usize {
        (t & (WHEEL_SLOTS as u64 - 1)) as usize
    }

    /// Entries not yet drained (release time beyond `drained_to`): an
    /// upper bound on the entries held at any later cycle.
    #[inline]
    fn occupancy(&self) -> usize {
        self.live + self.overflow.len()
    }

    /// Whether `cap` or more entries are still held at `cycle`. Drains
    /// only when the undrained count alone reaches `cap`.
    #[inline]
    fn full_at(&mut self, cycle: u64, cap: usize) -> bool {
        if self.occupancy() < cap {
            return false;
        }
        self.drain_to(cycle);
        self.occupancy() >= cap
    }

    /// Record an entry that frees at cycle `at`, with the clock at `now`
    /// (`now < at`, and no earlier drain went past `now`).
    #[inline]
    fn push(&mut self, at: u64, now: u64) {
        debug_assert!(at > now && now >= self.drained_to);
        if at > self.drained_to + WHEEL_SLOTS as u64 {
            self.drain_to(now);
            if at > now + WHEEL_SLOTS as u64 {
                self.overflow.push(at);
                return;
            }
        }
        self.counts[Self::slot(at)] += 1;
        self.live += 1;
    }

    /// Free every entry whose release time has passed.
    fn drain_to(&mut self, cycle: u64) {
        if cycle <= self.drained_to {
            return;
        }
        if self.live == 0 || cycle - self.drained_to >= WHEEL_SLOTS as u64 {
            // Nothing bucketed, or the whole wheel span expired at once
            // (long idle skip): just advance the cursor.
            if self.live > 0 {
                self.counts.fill(0);
                self.live = 0;
            }
            self.drained_to = cycle;
        } else {
            while self.drained_to < cycle {
                self.drained_to += 1;
                let slot = Self::slot(self.drained_to);
                self.live -= self.counts[slot] as usize;
                self.counts[slot] = 0;
            }
        }
        if !self.overflow.is_empty() {
            self.rebucket(cycle);
        }
    }

    /// Move overflow releases that fell within the horizon into the
    /// wheel, dropping any that already passed.
    #[cold]
    fn rebucket(&mut self, cycle: u64) {
        let horizon = self.drained_to + WHEEL_SLOTS as u64;
        let mut i = 0;
        while i < self.overflow.len() {
            let t = self.overflow[i];
            if t <= cycle {
                self.overflow.swap_remove(i);
            } else if t <= horizon {
                self.overflow.swap_remove(i);
                self.counts[Self::slot(t)] += 1;
                self.live += 1;
            } else {
                i += 1;
            }
        }
    }

    /// Earliest release time beyond `drained_to`; `u64::MAX` when
    /// empty. Callers drain to the cycle they ask about first.
    fn next_release(&self) -> u64 {
        if self.live > 0 {
            for d in 1..=WHEEL_SLOTS as u64 {
                let t = self.drained_to + d;
                if self.counts[Self::slot(t)] != 0 {
                    return t;
                }
            }
        }
        self.overflow.iter().copied().min().unwrap_or(u64::MAX)
    }
}

/// Where the sampled-mode state machine stands. `Off` for exact runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SamplePhase {
    /// Exact mode: every µop simulated in detail.
    Off,
    /// Detailed warming after a fast-forward burst: the pipeline
    /// refills and the timing state (MSHRs, store drain, fetch
    /// blocking) re-converges in full detail, but these cycles are
    /// *excluded* from the extrapolation — the SMARTS "detailed
    /// warming" prefix that keeps the cold restart out of the estimate.
    Ramp { left: u64 },
    /// Inside a measured detailed interval; `left` retirements remain.
    Detail { left: u64 },
    /// Interval exhausted: fetch is suspended and the machine drains;
    /// once empty, the next fast-forward burst runs. Drain cycles are
    /// excluded from the extrapolation like ramp cycles — a draining
    /// window has falling throughput and charges its idle wait to
    /// fetch, neither of which the full window does.
    WindDown,
}

/// Cause of a fully-blocked rename cycle — shared between per-cycle
/// stall attribution and the bulk charge on an idle-cycle skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Block {
    None,
    Fetch,
    Rat,
    Rob,
    Rs,
    Load,
    Store,
}

/// The per-core pipeline state machine, kept apart from the machine
/// structures so one global clock can step several pipelines in
/// lockstep ([`crate::chip`]'s lockstep loop, the only caller of
/// [`Pipeline::step`]).
///
/// [`Pipeline::step`] advances exactly one cycle — retire, warm-up
/// bookkeeping, fetch, rename/dispatch, stall attribution — against the
/// private hierarchy / MMU / predictor it is handed, and returns `true`
/// once the measurement target is met or the trace has drained. N
/// pipelines stepped round-robin within each cycle share an
/// [`SharedL3`] deterministically.
#[derive(Debug)]
pub(crate) struct Pipeline {
    rs_cap: usize,
    ldq_cap: usize,
    stq_cap: usize,
    line_shift: u32,
    /// Rename width is positive (idle-skip reasoning assumes the
    /// rename loop runs at least one iteration per cycle).
    can_skip: bool,

    counts: PerfCounts,
    cycle_base: u64,
    in_warmup: bool,
    warmup_ops: u64,
    target: u64,

    // Front end.
    decode_q: OpRing,
    pending: Option<MicroOp>,
    fetch_blocked_until: u64,
    last_fetch_line: u64,
    trace_done: bool,

    // Backend windows: SoA ring + counting wakeup wheels holding the
    // cycle at which each entry frees.
    rob: RobRing,
    rs: WakeupWheel,
    ldq: WakeupWheel,
    stq: WakeupWheel,
    last_store_drain: u64,
    rat_blocked_until: u64,

    completions: [u64; COMPLETION_RING],
    op_idx: u64,
    retired: u64,
    final_cycle: u64,
    /// Whether the most recent [`Pipeline::step`] retired, fetched or
    /// renamed anything. After a productive cycle the next cycle may
    /// act, so the lockstep loop skips the `next_event` probe entirely.
    made_progress: bool,

    // SMARTS sampling.
    plan: Option<SamplePlan>,
    phase: SamplePhase,
    /// µops consumed by fast-forward bursts since simulation start
    /// (counts toward the warm-up and measurement targets).
    ffwd_done: u64,
    /// Fast-forwarded instructions currently included in `counts`
    /// (reset with the rest of the statistics at the warm-up boundary);
    /// `> 0` is what arms the extrapolation in [`Pipeline::finalize`].
    ffwd_in_counts: u64,
    /// Detailed-warming length per burst, derived from the plan: after
    /// each fast-forward the pipeline runs this many µops in full
    /// detail to re-converge timing state before measurement resumes.
    ramp_ops: u64,
    /// LCG state for jittered burst lengths. Fixed-period systematic
    /// sampling aliases with periodic phase behavior in the workload,
    /// so each fast-forward burst draws its length from
    /// `[ffwd_ops/2, 3·ffwd_ops/2)` deterministically — the constant
    /// seed makes same-plan runs bit-identical.
    jitter: u64,
    /// Cycles accumulated inside *completed* measured (`Detail`) spans.
    clean_cycles: u64,
    /// Instructions retired inside completed measured spans — the
    /// extrapolation denominator.
    clean_instr: u64,
    /// Stall-cycle deltas inside completed measured spans, in
    /// [`PerfCounts::stalls`] order.
    clean_stalls: [u64; 6],
    /// Counter snapshot taken when the current measured span opened.
    span_start_cycle: u64,
    span_start_instr: u64,
    span_start_stalls: [u64; 6],
    /// Post-warm-up instructions retired per sampling phase, in the
    /// order ramp / detail / fast-forward. Wind-down drain retirements
    /// belong to none of the three (they are excluded from the
    /// extrapolation exactly like ramp cycles). Not part of
    /// [`PerfCounts`] — the store format must not change — these feed
    /// the `dc_sim_phase_instructions_total` metrics at finalize.
    phase_instr: [u64; 3],
}

impl Pipeline {
    pub(crate) fn new(cfg: &CpuConfig, opts: &SimOptions) -> Self {
        let c = cfg.core;
        // Window capacities come straight from the machine description:
        // the rings hold exactly `rob_entries` / `rs_entries` / … slots.
        // Zero-sized windows are rejected here (the `try_with_*`
        // builders refuse them long before a Pipeline is built).
        assert!(
            c.rob_entries > 0 && c.rs_entries > 0 && c.load_buffer > 0 && c.store_buffer > 0,
            "pipeline window capacities must be positive (use CpuConfig::try_with_* builders)"
        );
        if let Some(p) = opts.sample {
            assert!(
                p.detail_ops > 0 && p.ffwd_ops > 0,
                "sampling plan intervals must be positive"
            );
        }
        let dq_cap = c.decode_queue.max(4) as usize;
        Pipeline {
            rs_cap: c.rs_entries as usize,
            ldq_cap: c.load_buffer as usize,
            stq_cap: c.store_buffer as usize,
            line_shift: cfg.l1i.line_bytes.trailing_zeros(),
            can_skip: c.rename_width > 0,
            counts: PerfCounts::default(),
            cycle_base: 0,
            in_warmup: opts.warmup_ops > 0,
            warmup_ops: opts.warmup_ops,
            target: opts.warmup_ops.saturating_add(opts.max_ops),
            decode_q: OpRing::new(dq_cap),
            pending: None,
            fetch_blocked_until: 0,
            last_fetch_line: u64::MAX,
            trace_done: false,
            rob: RobRing::new(c.rob_entries as usize),
            rs: WakeupWheel::new(),
            ldq: WakeupWheel::new(),
            stq: WakeupWheel::new(),
            last_store_drain: 0,
            rat_blocked_until: 0,
            completions: [0u64; COMPLETION_RING],
            op_idx: 0,
            retired: 0,
            final_cycle: 0,
            made_progress: true,
            plan: opts.sample,
            phase: match opts.sample {
                Some(p) => SamplePhase::Detail { left: p.detail_ops },
                None => SamplePhase::Off,
            },
            ffwd_done: 0,
            ffwd_in_counts: 0,
            // A quarter interval of warming re-fills the windows (ROB,
            // queues, MSHRs) many times over; the floor covers tiny
            // detail intervals.
            ramp_ops: opts.sample.map_or(0, |p| (p.detail_ops / 4).max(64)),
            jitter: 0x9E37_79B9_7F4A_7C15,
            clean_cycles: 0,
            clean_instr: 0,
            clean_stalls: [0; 6],
            span_start_cycle: 0,
            span_start_instr: 0,
            span_start_stalls: [0; 6],
            phase_instr: [0; 3],
        }
    }

    /// Open a measured span at `cycle`: record the counter baselines
    /// the matching [`Pipeline::close_span`] will difference against.
    fn open_span(&mut self, cycle: u64) {
        self.span_start_cycle = cycle;
        self.span_start_instr = self.counts.instructions;
        self.span_start_stalls = self.counts.stalls();
    }

    /// Close the measured span at `cycle` and fold its deltas into the
    /// clean accumulators.
    fn close_span(&mut self, cycle: u64) {
        (self.clean_cycles, self.clean_instr, self.clean_stalls) = self.clean_with_span(cycle);
    }

    /// The clean accumulators `(cycles, instructions, stalls)` plus the
    /// open measured span's deltas up to `cycle`.
    fn clean_with_span(&self, cycle: u64) -> (u64, u64, [u64; 6]) {
        let mut stalls = self.clean_stalls;
        let now = self.counts.stalls();
        for (acc, (n, s)) in stalls
            .iter_mut()
            .zip(now.iter().zip(&self.span_start_stalls))
        {
            *acc += n - s;
        }
        (
            self.clean_cycles + (cycle - self.span_start_cycle),
            self.clean_instr + (self.counts.instructions - self.span_start_instr),
            stalls,
        )
    }

    /// Warm-up boundary: reset this core's statistics, keep state.
    /// Shared-level contents (and the other cores' statistics) are
    /// deliberately untouched; this core's L3 traffic is tracked by its
    /// private attribution counters, which do reset here. Runs once per
    /// window, from whichever of [`Pipeline::step`] and the
    /// fast-forward burst crosses the boundary.
    #[cold]
    fn end_warmup(
        &mut self,
        cycle: u64,
        hier: &mut PrivateHierarchy,
        mmu: &mut Mmu,
        bp: &mut BranchPredictor,
    ) {
        self.in_warmup = false;
        self.counts = PerfCounts::default();
        hier.reset_stats();
        mmu.reset_stats();
        bp.reset_stats();
        self.cycle_base = cycle;
        self.ffwd_in_counts = 0;
        self.clean_cycles = 0;
        self.clean_instr = 0;
        self.clean_stalls = [0; 6];
        self.phase_instr = [0; 3];
        if matches!(self.phase, SamplePhase::Detail { .. }) {
            // Mid-span boundary: the span restarts on the fresh
            // (all-zero) counter baselines. A fast-forward burst is in
            // `WindDown`, so it never takes this branch.
            self.open_span(cycle);
        }
    }

    /// A sampling interval's retirement budget just hit zero: ramp
    /// graduates into a measured span, a measured span closes and the
    /// machine starts draining toward the next fast-forward burst.
    fn sample_interval_done(&mut self, cycle: u64) {
        match self.phase {
            SamplePhase::Ramp { .. } => {
                let detail = self
                    .plan
                    .expect("sampling phase requires a plan")
                    .detail_ops;
                self.open_span(cycle);
                self.phase = SamplePhase::Detail { left: detail };
            }
            SamplePhase::Detail { .. } => {
                self.close_span(cycle);
                self.phase = SamplePhase::WindDown;
            }
            SamplePhase::Off | SamplePhase::WindDown => {}
        }
    }

    /// µops consumed so far, in either mode (retired in detail or
    /// fast-forwarded) — what the warm-up and measurement targets
    /// count.
    #[inline]
    fn processed(&self) -> u64 {
        self.retired + self.ffwd_done
    }

    /// Advance this core by the one cycle `cycle` (the caller's global
    /// clock, already incremented). Returns `true` when the core is
    /// finished; after that, [`Pipeline::finalize`] reads the counters.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<T: TraceSource>(
        &mut self,
        cycle: u64,
        cfg: &CpuConfig,
        hier: &mut PrivateHierarchy,
        shared: &mut SharedL3,
        mmu: &mut Mmu,
        bp: &mut BranchPredictor,
        trace: &mut T,
    ) -> bool {
        let c = cfg.core;

        // ---- Retire (in order, width-limited) ----
        let mut retired_now = 0;
        while retired_now < c.retire_width {
            let Some(head) = self.rob.front_complete() else {
                break;
            };
            if head > cycle {
                break;
            }
            let flags = self.rob.pop_front();
            self.retired += 1;
            retired_now += 1;
            self.counts.instructions += 1;
            if flags & FLAG_KERNEL != 0 {
                self.counts.kernel_instructions += 1;
            } else {
                self.counts.user_instructions += 1;
            }
            match &mut self.phase {
                SamplePhase::Ramp { left } => {
                    self.phase_instr[0] += 1;
                    *left -= 1;
                    if *left == 0 {
                        self.sample_interval_done(cycle);
                    }
                }
                SamplePhase::Detail { left } => {
                    self.phase_instr[1] += 1;
                    *left -= 1;
                    if *left == 0 {
                        self.sample_interval_done(cycle);
                    }
                }
                SamplePhase::Off | SamplePhase::WindDown => {}
            }
        }

        if self.in_warmup && self.processed() >= self.warmup_ops {
            self.end_warmup(cycle, hier, mmu, bp);
        }
        if self.processed() >= self.target {
            self.final_cycle = cycle;
            return true;
        }

        // ---- SMARTS fast-forward: the wind-down drained the machine ----
        if matches!(self.phase, SamplePhase::WindDown)
            && !self.trace_done
            && self.pending.is_none()
            && self.decode_q.is_empty()
            && self.rob.is_empty()
        {
            self.fast_forward(cycle, hier, shared, mmu, bp, trace);
        }

        // ---- Fetch into the decode queue ----
        let suspend_fetch = matches!(self.phase, SamplePhase::WindDown);
        let mut fetched = 0;
        if cycle >= self.fetch_blocked_until {
            while fetched < c.fetch_width && !self.decode_q.is_full() {
                // A pending op already paid its fetch penalty.
                let op = match self.pending.take() {
                    Some(op) => op,
                    None => {
                        if suspend_fetch {
                            break;
                        }
                        match trace.next_op() {
                            Some(op) => op,
                            None => {
                                self.trace_done = true;
                                break;
                            }
                        }
                    }
                };
                // New cache line ⇒ I-cache + ITLB access.
                let line = op.pc >> self.line_shift;
                if line != self.last_fetch_line {
                    self.last_fetch_line = line;
                    let (_, tlb_lat) = mmu.translate_inst(op.pc);
                    let (_, i_lat) = hier.fetch_inst(shared, op.pc, cycle);
                    let penalty = u64::from(tlb_lat) + u64::from(i_lat);
                    if penalty > 0 {
                        // Line fetch in flight: the op arrives when it
                        // resolves.
                        self.fetch_blocked_until = cycle + penalty;
                        self.pending = Some(op);
                        break;
                    }
                }
                // Branch prediction (front-end redirect on mispredict).
                if let OpKind::Branch { taken, target } = op.kind {
                    let correct = bp.predict_and_train(op.pc, taken, target);
                    self.decode_q.push_back(op);
                    fetched += 1;
                    if !correct {
                        self.fetch_blocked_until = cycle + u64::from(c.mispredict_penalty);
                        break;
                    }
                    continue;
                }
                self.decode_q.push_back(op);
                fetched += 1;
            }
        }

        // ---- Rename / dispatch ----
        let mut renamed = 0;
        // Per-cycle issue-port budgets (Westmere: one load port, one
        // store port, two FP units).
        let mut load_ports = 1u32;
        let mut store_ports = 1u32;
        let mut fp_ports = 2u32;
        // Cause of the first blockage this cycle (for attribution).
        let mut block = Block::None;

        while renamed < c.rename_width {
            if self.rat_blocked_until > cycle {
                block = Block::Rat;
                break;
            }
            let Some(&op) = self.decode_q.front() else {
                block = Block::Fetch;
                break;
            };
            if self.rob.is_full() {
                block = Block::Rob;
                break;
            }
            // Nothing dispatched this cycle frees this cycle, so asking
            // the wheels at `cycle` inside the loop is exact.
            if self.rs.full_at(cycle, self.rs_cap) {
                block = Block::Rs;
                break;
            }
            if op.kind.is_load() && self.ldq.full_at(cycle, self.ldq_cap) {
                block = Block::Load;
                break;
            }
            if op.kind.is_store() && self.stq.full_at(cycle, self.stq_cap) {
                block = Block::Store;
                break;
            }
            // Issue-port throughput limits end the rename group
            // without charging a stall (width effect, not a stall).
            match op.kind {
                OpKind::Load { .. } if load_ports == 0 => break,
                OpKind::Store { .. } if store_ports == 0 => break,
                OpKind::FpAlu if fp_ports == 0 => break,
                _ => {}
            }
            match op.kind {
                OpKind::Load { .. } => load_ports -= 1,
                OpKind::Store { .. } => store_ports -= 1,
                OpKind::FpAlu => fp_ports -= 1,
                _ => {}
            }
            self.decode_q.pop_front();
            if op.rat_hazard {
                self.rat_blocked_until = cycle + u64::from(c.rat_hazard_penalty);
            }

            // Dispatch: compute readiness and completion.
            let mut ready = cycle + 1;
            let dep = u64::from(op.dep_dist);
            if dep > 0 && self.op_idx >= dep {
                let producer =
                    self.completions[((self.op_idx - dep) % COMPLETION_RING as u64) as usize];
                ready = ready.max(producer);
            }
            let complete = match op.kind {
                OpKind::IntAlu => ready + u64::from(cfg.exec.int_alu),
                OpKind::IntMul => ready + u64::from(cfg.exec.int_mul),
                OpKind::Div => ready + u64::from(cfg.exec.div),
                OpKind::FpAlu => ready + u64::from(cfg.exec.fp_alu),
                OpKind::Branch { .. } => ready + u64::from(cfg.exec.int_alu),
                OpKind::Load { addr, .. } => {
                    self.counts.loads += 1;
                    let (_, tlb_lat) = mmu.translate_data(addr);
                    let (_, mem_lat) = hier.access_data(shared, addr, cycle);
                    let done = ready + u64::from(tlb_lat) + u64::from(mem_lat);
                    self.ldq.push(done, cycle);
                    done
                }
                OpKind::Store { addr, .. } => {
                    self.counts.stores += 1;
                    let (_, tlb_lat) = mmu.translate_data(addr);
                    let exec_done = ready + 1 + u64::from(tlb_lat);
                    // In-order store-buffer drain: L1 hits drain at
                    // one per cycle; misses overlap ~3-deep (write
                    // combining / RFO MLP).
                    let (lvl, drain_lat) = hier.access_data(shared, addr, cycle);
                    let cost = if lvl == crate::cache::MemLevel::L1 {
                        1
                    } else {
                        u64::from(drain_lat) / 3
                    };
                    let drain_done = self.last_store_drain.max(exec_done) + cost;
                    self.last_store_drain = drain_done;
                    self.stq.push(drain_done, cycle);
                    exec_done
                }
            };
            self.rs.push(ready, cycle);
            self.rob.push(complete, op.mode == Mode::Kernel);
            self.completions[(self.op_idx % COMPLETION_RING as u64) as usize] = complete;
            self.op_idx += 1;
            renamed += 1;
        }

        // A cycle in which no stage moved cannot start moving on its
        // own; the lockstep loop only consults `next_event` after such a
        // cycle (calling it after a productive cycle would be correct
        // too, merely wasted work).
        self.made_progress = retired_now > 0 || fetched > 0 || renamed > 0;

        // ---- Stall attribution (paper-style: a fully blocked rename
        // cycle is charged to its first cause) ----
        if renamed == 0 {
            self.charge_idle(block, 1);
        }

        // Termination: trace drained and backend empty.
        if self.trace_done
            && self.pending.is_none()
            && self.decode_q.is_empty()
            && self.rob.is_empty()
        {
            self.final_cycle = cycle;
            return true;
        }
        false
    }

    /// Functionally execute one fast-forward burst: consume up to
    /// `ffwd_ops` µops updating only caches, TLBs and the predictor —
    /// the long-lived state SMARTS warming must keep hot — while the
    /// global clock stands still. A synthetic clock advancing at the
    /// detailed-phase CPI paces memory-channel bookings; the channel
    /// backlog is re-anchored to the global clock when the burst ends.
    fn fast_forward<T: TraceSource>(
        &mut self,
        cycle: u64,
        hier: &mut PrivateHierarchy,
        shared: &mut SharedL3,
        mmu: &mut Mmu,
        bp: &mut BranchPredictor,
        trace: &mut T,
    ) {
        let plan = self.plan.expect("fast_forward requires a sampling plan");
        // Deterministic integer CPI estimate from the detailed cycles
        // so far, clamped to a sane band.
        let cpi = cycle
            .checked_div(self.retired)
            .map_or(1, |c| c.clamp(1, 16));
        let mut now = cycle;
        // Jittered burst length (see the `jitter` field): mean
        // `ffwd_ops`, uniform over ±50%, deterministic sequence.
        self.jitter = self
            .jitter
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let half = plan.ffwd_ops / 2;
        let mut left = if half > 0 {
            (plan.ffwd_ops - half + (self.jitter >> 33) % (2 * half)).max(1)
        } else {
            plan.ffwd_ops
        };
        while left > 0 {
            let Some(op) = trace.next_op() else {
                self.trace_done = true;
                break;
            };
            left -= 1;
            // Advance at the detailed CPI, plus the bandwidth feedback
            // the detailed machine would see: a saturated channel
            // stalls retire, so time jumps to the relief point rather
            // than letting the synthetic clock sit inside a
            // permanently-backlogged channel (which would drop
            // prefetches the detailed run issues).
            now = (now + cpi).max(shared.channel_relief());
            self.ffwd_done += 1;
            self.ffwd_in_counts += 1;
            self.phase_instr[2] += 1;
            self.counts.instructions += 1;
            match op.mode {
                Mode::User => self.counts.user_instructions += 1,
                Mode::Kernel => self.counts.kernel_instructions += 1,
            }
            let line = op.pc >> self.line_shift;
            if line != self.last_fetch_line {
                self.last_fetch_line = line;
                let _ = mmu.translate_inst(op.pc);
                let _ = hier.fetch_inst(shared, op.pc, now);
            }
            match op.kind {
                OpKind::Branch { taken, target } => {
                    let _ = bp.predict_and_train(op.pc, taken, target);
                }
                OpKind::Load { addr, .. } => {
                    self.counts.loads += 1;
                    let _ = mmu.translate_data(addr);
                    let _ = hier.access_data(shared, addr, now);
                }
                OpKind::Store { addr, .. } => {
                    self.counts.stores += 1;
                    let _ = mmu.translate_data(addr);
                    let _ = hier.access_data(shared, addr, now);
                }
                _ => {}
            }
            // The warm-up boundary may fall inside a burst.
            if self.in_warmup && self.processed() >= self.warmup_ops {
                self.end_warmup(cycle, hier, mmu, bp);
            }
            if self.processed() >= self.target {
                break;
            }
        }
        shared.rewind_channel(now, cycle);
        // Re-enter detail through the warming prefix; the measured span
        // only opens once the refilled pipeline has re-converged.
        self.phase = SamplePhase::Ramp {
            left: self.ramp_ops,
        };
    }

    /// The earliest future global cycle at which [`Pipeline::step`]
    /// could perform observable work, given the state after the step at
    /// `cycle`, plus the stall cause every intervening cycle would be
    /// charged to. `None` when the very next cycle might act (or when
    /// skipping is not provably safe). The lockstep loop uses this to let
    /// the core sleep over idle stretches; [`Pipeline::charge_idle`]
    /// applies the bulk attribution. The answer depends on this core's
    /// private state alone.
    pub(crate) fn next_event(&mut self, cycle: u64) -> Option<(u64, Block)> {
        if !self.can_skip {
            return None;
        }
        let mut bound = u64::MAX;
        // Retire: the ROB head frees at its completion cycle.
        if let Some(head) = self.rob.front_complete() {
            if head <= cycle + 1 {
                return None;
            }
            bound = bound.min(head);
        }
        // Fetch: next activity at `fetch_blocked_until`, unless fetch
        // has nothing to do until other stages move first.
        let fetch_idle = self.decode_q.is_full()
            || (self.pending.is_none()
                && (self.trace_done || matches!(self.phase, SamplePhase::WindDown)));
        if !fetch_idle {
            if self.fetch_blocked_until <= cycle + 1 {
                return None;
            }
            bound = bound.min(self.fetch_blocked_until);
        }
        // Rename blocker at cycle+1, with all other state frozen until
        // `bound`. The checks mirror the rename loop's first iteration.
        let block;
        if self.rat_blocked_until > cycle + 1 {
            block = Block::Rat;
            bound = bound.min(self.rat_blocked_until);
        } else if let Some(op) = self.decode_q.front() {
            let kind = op.kind;
            let next = cycle + 1;
            if self.rob.is_full() {
                // Frees on retire; `bound` already holds the head's
                // completion cycle.
                block = Block::Rob;
            } else if self.rs.full_at(next, self.rs_cap) {
                block = Block::Rs;
                bound = bound.min(self.rs.next_release());
            } else if kind.is_load() && self.ldq.full_at(next, self.ldq_cap) {
                block = Block::Load;
                bound = bound.min(self.ldq.next_release());
            } else if kind.is_store() && self.stq.full_at(next, self.stq_cap) {
                block = Block::Store;
                bound = bound.min(self.stq.next_release());
            } else {
                // Rename proceeds next cycle.
                return None;
            }
        } else {
            // Starved decode queue: fetch activity is bounded above.
            block = Block::Fetch;
        }
        if bound == u64::MAX {
            return None;
        }
        Some((bound, block))
    }

    /// Charge `cycles` fully blocked rename cycles to `block`'s stall
    /// counter: one per stepped cycle, or a bulk charge for skipped
    /// idle cycles. A starved front end is not charged once the trace
    /// has drained.
    #[inline]
    pub(crate) fn charge_idle(&mut self, block: Block, cycles: u64) {
        match block {
            Block::Fetch => {
                let draining =
                    self.trace_done && self.pending.is_none() && self.decode_q.is_empty();
                if !draining {
                    self.counts.fetch_stall_cycles += cycles;
                }
            }
            Block::Rat => self.counts.rat_stall_cycles += cycles,
            Block::Rob => self.counts.rob_full_stall_cycles += cycles,
            Block::Rs => self.counts.rs_full_stall_cycles += cycles,
            Block::Load => self.counts.load_buf_stall_cycles += cycles,
            Block::Store => self.counts.store_buf_stall_cycles += cycles,
            Block::None => {}
        }
    }

    /// Whether the most recent step performed observable work (see the
    /// field). `true` before the first step.
    #[inline]
    pub(crate) fn made_progress(&self) -> bool {
        self.made_progress
    }

    /// Whether this pipeline is still inside its warm-up window.
    pub(crate) fn in_warmup(&self) -> bool {
        self.in_warmup
    }

    /// The global cycle at which statistics were last reset (0 until
    /// the warm-up boundary passes).
    pub(crate) fn cycle_base(&self) -> u64 {
        self.cycle_base
    }

    /// Post-warm-up instructions retired per sampling phase:
    /// `(ramp, detail, ffwd)`. All zero in exact mode.
    #[cfg(test)]
    pub(crate) fn phase_instructions(&self) -> (u64, u64, u64) {
        (
            self.phase_instr[0],
            self.phase_instr[1],
            self.phase_instr[2],
        )
    }

    /// Publish the per-phase instruction split into the process-wide
    /// metrics registry (`dc_sim_phase_instructions_total{phase=…}`).
    /// Called once per finalized sampled window — three counter adds,
    /// nothing on the cycle loop's hot path.
    fn publish_phase_metrics(&self) {
        if self.plan.is_none() {
            return;
        }
        let reg = dc_obs::metrics::global();
        for (phase, n) in [("ramp", 0usize), ("detail", 1), ("ffwd", 2)] {
            reg.counter("dc_sim_phase_instructions_total", &[("phase", phase)])
                .add(self.phase_instr[n]);
        }
    }

    /// Copy structure statistics into the counter block and return it.
    /// In sampled mode, extrapolate cycle-denominated counters to the
    /// whole window from the *measured spans only* (integer math, u128
    /// intermediate): `scaled = span_value × total_instr / span_instr`.
    /// Ramp and wind-down cycles are detailed but unrepresentative —
    /// pipeline refill and drain tail — so they enter neither the
    /// numerator nor the denominator (SMARTS detailed warming). Event
    /// counts stay as measured: every op touched the real structures.
    pub(crate) fn finalize(
        &self,
        hier: &PrivateHierarchy,
        mmu: &Mmu,
        bp: &BranchPredictor,
    ) -> PerfCounts {
        self.publish_phase_metrics();
        let mut counts = self.snapshot(self.final_cycle, hier, mmu, bp);
        if self.plan.is_some() && self.ffwd_in_counts > 0 {
            let (span_cycles, span_instr, span_stalls) =
                if matches!(self.phase, SamplePhase::Detail { .. }) {
                    // The window ended inside an open measured span.
                    self.clean_with_span(self.final_cycle)
                } else {
                    (self.clean_cycles, self.clean_instr, self.clean_stalls)
                };
            let total = counts.instructions as u128;
            if span_instr > 0 {
                let scale = |v: u64| ((v as u128 * total) / span_instr as u128) as u64;
                counts.cycles = scale(span_cycles);
                for (slot, v) in counts.stalls_mut().into_iter().zip(span_stalls) {
                    *slot = scale(v);
                }
            } else {
                // Degenerate window that never completed a measured
                // span: fall back to scaling the raw detailed counters.
                let detailed = counts.instructions.saturating_sub(self.ffwd_in_counts) as u128;
                if detailed > 0 {
                    let scale = |v: u64| ((v as u128 * total) / detailed) as u64;
                    counts.cycles = scale(counts.cycles);
                    for slot in counts.stalls_mut() {
                        *slot = scale(*slot);
                    }
                }
            }
        }
        counts
    }

    /// The counter block as it stands at global cycle `at_cycle`, with
    /// structure statistics copied in — [`Pipeline::finalize`] is the
    /// `at_cycle == final_cycle` case. Counters only ever increase
    /// between snapshots (within one measurement window), so
    /// consecutive snapshots difference cleanly
    /// ([`PerfCounts::delta_since`]).
    pub(crate) fn snapshot(
        &self,
        at_cycle: u64,
        hier: &PrivateHierarchy,
        mmu: &Mmu,
        bp: &BranchPredictor,
    ) -> PerfCounts {
        let mut counts = self.counts;
        counts.cycles = at_cycle - self.cycle_base;
        counts.l1i_accesses = hier.l1i.accesses;
        counts.l1i_misses = hier.l1i.misses;
        counts.l1d_accesses = hier.l1d.accesses;
        counts.l1d_misses = hier.l1d.misses;
        counts.l2_accesses = hier.l2.accesses;
        counts.l2_misses = hier.l2.misses;
        counts.l3_accesses = hier.l3_accesses;
        counts.l3_misses = hier.l3_misses;
        counts.prefetches = hier.prefetches;
        counts.itlb_accesses = mmu.istats.accesses;
        counts.itlb_misses = mmu.istats.l1_misses;
        counts.itlb_walks = mmu.istats.walks;
        counts.dtlb_accesses = mmu.dstats.accesses;
        counts.dtlb_misses = mmu.dstats.l1_misses;
        counts.dtlb_walks = mmu.dstats.walks;
        counts.branches = bp.branches;
        counts.branch_mispredicts = bp.mispredicts;
        counts
    }
}

/// The simulated core: real cache/TLB/predictor structures plus the
/// timestamp pipeline model — a one-core [`Chip`], driven by the same
/// lockstep loop as every other run.
#[derive(Debug)]
pub struct Core {
    chip: Chip,
}

// The parallel characterization pipeline ships whole simulations to
// worker threads; every piece of sim state must stay `Send`. Checked
// at compile time so a future `Rc`/raw-pointer refactor cannot
// silently serialize the pipeline.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Core>();
    assert_send::<CpuConfig>();
    assert_send::<SimOptions>();
    assert_send::<PerfCounts>();
};

impl Core {
    /// Build a core for the given machine configuration.
    pub fn new(cfg: CpuConfig) -> Self {
        Core {
            chip: Chip::new(cfg, 1),
        }
    }

    /// The machine configuration in use.
    pub fn config(&self) -> &CpuConfig {
        self.chip.config()
    }

    /// Run `trace` through the pipeline and return the measured counters.
    ///
    /// Simulation retires `opts.warmup_ops` µops with statistics
    /// discarded (structures stay warm), then measures until
    /// `opts.max_ops` further µops have retired or the trace ends.
    pub fn run<T: TraceSource>(&mut self, mut trace: T, opts: &SimOptions) -> PerfCounts {
        let run = self
            .chip
            .drive(std::slice::from_mut(&mut trace), opts, None);
        run.counts(&self.chip)[0]
    }

    /// Like [`Core::run`], but additionally snapshot the counters every
    /// `every_cycles` simulated cycles (a `perf stat -I`-style series).
    ///
    /// The returned [`IntervalRun`] holds the per-interval counter
    /// *deltas* plus the aggregate block. The aggregate is
    /// **bit-identical** to what [`Core::run`] returns for the same
    /// trace and options — recording reads pipeline state, it never
    /// perturbs it — and the deltas telescope: accumulating them
    /// reproduces the aggregate exactly. The interval clock restarts at
    /// the warm-up boundary along with the statistics, so intervals
    /// cover precisely the measured window.
    ///
    /// # Panics
    ///
    /// Panics if `every_cycles` is zero, or if `opts` enables SMARTS
    /// sampling (interval series require the exact cycle clock).
    pub fn run_intervals<T: TraceSource>(
        &mut self,
        mut trace: T,
        opts: &SimOptions,
        every_cycles: u64,
    ) -> IntervalRun {
        let run = self
            .chip
            .drive(std::slice::from_mut(&mut trace), opts, Some(every_cycles));
        run.intervals(&self.chip).remove(0)
    }
}

/// Convenience: simulate a trace on a fresh core with the given config.
pub fn simulate<T: TraceSource>(trace: T, cfg: &CpuConfig, opts: &SimOptions) -> PerfCounts {
    Core::new(cfg.clone()).run(trace, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Hierarchy;
    use dc_trace::profile::{AccessPattern, WorkloadProfile};
    use dc_trace::{MicroOp, SyntheticTrace};
    use proptest::prelude::*;

    /// A dense stream of independent ALU ops in one cache line.
    fn alu_stream(n: usize) -> impl Iterator<Item = MicroOp> {
        (0..n).map(|_| MicroOp::int_alu(0x40_0000))
    }

    /// Step a pipeline without idle-cycle skipping: the reference loop
    /// the skip path must match bit-for-bit. Returns the pipeline too,
    /// so tests can inspect sampling-internal state after the run.
    fn run_unskipped<T: TraceSource>(
        mut trace: T,
        cfg: &CpuConfig,
        opts: &SimOptions,
    ) -> (PerfCounts, Pipeline) {
        let mut hier = Hierarchy::new(cfg);
        let mut mmu = Mmu::new(cfg);
        let mut bp = BranchPredictor::new(cfg);
        let mut pipe = Pipeline::new(cfg, opts);
        let mut cycle: u64 = 0;
        loop {
            cycle += 1;
            if pipe.step(
                cycle,
                cfg,
                &mut hier.private,
                &mut hier.shared,
                &mut mmu,
                &mut bp,
                &mut trace,
            ) {
                break;
            }
        }
        let counts = pipe.finalize(&hier.private, &mmu, &bp);
        (counts, pipe)
    }

    #[test]
    fn ideal_alu_stream_approaches_width() {
        let cfg = CpuConfig::westmere_e5645();
        let counts = simulate(
            alu_stream(500_000),
            &cfg,
            &SimOptions::exact(400_000, 50_000),
        );
        let ipc = counts.ipc();
        assert!(
            ipc > 3.0,
            "independent ALU ops should near the 4-wide limit: {ipc}"
        );
        assert!(counts.instructions >= 400_000);
    }

    #[test]
    fn serial_dependence_chain_limits_ipc_to_one() {
        let cfg = CpuConfig::westmere_e5645();
        let ops = (0..300_000).map(|_| {
            let mut op = MicroOp::int_alu(0x40_0000);
            op.dep_dist = 1; // every op depends on its predecessor
            op
        });
        let counts = simulate(ops, &cfg, &SimOptions::exact(200_000, 20_000));
        let ipc = counts.ipc();
        assert!(ipc < 1.15, "a serial chain cannot exceed 1 op/cycle: {ipc}");
        assert!(ipc > 0.7, "chain should still sustain ~1 op/cycle: {ipc}");
    }

    #[test]
    fn memory_bound_stream_has_low_ipc_and_rob_stalls() {
        let cfg = CpuConfig::westmere_e5645().with_prefetch(false);
        // Random loads over 256 MiB: miss everywhere, dependent in pairs.
        let mut x = 1u64;
        let ops = (0..200_000).map(move |i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (0x1000_0000 + ((x >> 16) % (256 << 20))) & !7;
            let mut op = MicroOp::load(0x40_0000 + (i % 16) * 4, addr);
            op.dep_dist = 2;
            op
        });
        let counts = simulate(ops, &cfg, &SimOptions::exact(100_000, 10_000));
        assert!(counts.ipc() < 0.5, "ipc={}", counts.ipc());
        assert!(
            counts.rob_full_stall_cycles
                + counts.rs_full_stall_cycles
                + counts.load_buf_stall_cycles
                > counts.fetch_stall_cycles,
            "memory-bound work stalls in the OoO part"
        );
    }

    #[test]
    fn huge_code_footprint_causes_fetch_stalls() {
        let cfg = CpuConfig::westmere_e5645();
        // Jump through 4 MiB of code: every line is cold or L2-resident.
        let mut x = 7u64;
        let ops = (0..200_000).map(move |_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = (0x40_0000 + ((x >> 20) % (4 << 20))) & !63;
            MicroOp::int_alu(pc)
        });
        let counts = simulate(ops, &cfg, &SimOptions::exact(100_000, 10_000));
        assert!(counts.l1i_mpki() > 100.0, "l1i mpki={}", counts.l1i_mpki());
        let breakdown = counts.stall_breakdown();
        assert!(
            breakdown[0] > 0.5,
            "fetch stalls should dominate: {breakdown:?}"
        );
        assert!(counts.ipc() < 1.0);
    }

    #[test]
    fn rat_hazards_cause_rat_stalls() {
        let cfg = CpuConfig::westmere_e5645();
        let ops = (0..200_000).map(|i| {
            let mut op = MicroOp::int_alu(0x40_0000);
            op.rat_hazard = i % 8 == 0;
            op
        });
        let counts = simulate(ops, &cfg, &SimOptions::exact(100_000, 10_000));
        assert!(counts.rat_stall_cycles > 0);
        let b = counts.stall_breakdown();
        assert!(b[1] > 0.5, "RAT should dominate stalls here: {b:?}");
    }

    #[test]
    fn streaming_stores_fill_store_buffer() {
        let cfg = CpuConfig::westmere_e5645().with_prefetch(false);
        let ops = (0..200_000).map(|i| {
            // Every op is a store to a new line over 64 MiB.
            MicroOp::store(0x40_0000, 0x2000_0000 + i * 64)
        });
        let counts = simulate(ops, &cfg, &SimOptions::exact(100_000, 10_000));
        assert!(
            counts.store_buf_stall_cycles > counts.fetch_stall_cycles,
            "store drain should be the bottleneck"
        );
        assert!(counts.ipc() < 0.25);
    }

    #[test]
    fn mispredicts_slow_the_front_end() {
        let cfg = CpuConfig::westmere_e5645();
        let mut x = 3u64;
        let random_branches = (0..200_000).map(move |i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            MicroOp::branch(0x40_0000 + (i % 4) * 4, (x >> 30) & 1 == 1, 0x40_1000)
        });
        let counts_bad = simulate(random_branches, &cfg, &SimOptions::exact(100_000, 10_000));
        let steady_branches =
            (0..200_000).map(|i| MicroOp::branch(0x40_0000 + (i % 4) * 4, true, 0x40_1000));
        let counts_good = simulate(steady_branches, &cfg, &SimOptions::exact(100_000, 10_000));
        assert!(counts_bad.branch_misprediction_ratio() > 0.3);
        assert!(counts_good.branch_misprediction_ratio() < 0.02);
        assert!(counts_bad.ipc() < counts_good.ipc() * 0.5);
    }

    #[test]
    fn kernel_instructions_counted_separately() {
        let cfg = CpuConfig::westmere_e5645();
        let ops = (0..100_000).map(|i| {
            let mut op = MicroOp::int_alu(0x40_0000);
            if i % 4 == 0 {
                op.mode = Mode::Kernel;
            }
            op
        });
        let counts = simulate(ops, &cfg, &SimOptions::exact(80_000, 8_000));
        let f = counts.kernel_fraction();
        assert!((f - 0.25).abs() < 0.02, "kernel fraction {f}");
    }

    #[test]
    fn trace_shorter_than_budget_terminates() {
        let cfg = CpuConfig::westmere_e5645();
        let counts = simulate(alu_stream(5_000), &cfg, &SimOptions::exact(1_000_000, 0));
        assert_eq!(counts.instructions, 5_000);
        assert!(counts.cycles > 0);
    }

    #[test]
    fn warmup_discards_cold_misses() {
        let cfg = CpuConfig::westmere_e5645();
        // Loop over 16 KiB of data: everything fits L1D after one pass.
        let ops = (0..400_000u64).map(|i| MicroOp::load(0x40_0000, 0x1000_0000 + (i % 2048) * 8));
        let counts = simulate(ops, &cfg, &SimOptions::exact(200_000, 100_000));
        assert!(
            counts.l1d_misses < 100,
            "post-warm-up L1D should be hot: {} misses",
            counts.l1d_misses
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = CpuConfig::westmere_e5645();
        let mk = || {
            (0..50_000u64).map(|i| {
                let mut op = MicroOp::load(
                    0x40_0000 + (i % 256) * 4,
                    (0x1000_0000 + (i * 2654435761 % (8 << 20))) & !7,
                );
                op.dep_dist = (i % 5) as u16;
                op
            })
        };
        let a = simulate(mk(), &cfg, &SimOptions::quick());
        let b = simulate(mk(), &cfg, &SimOptions::quick());
        assert_eq!(a, b);
    }

    #[test]
    fn smaller_rob_increases_ooo_stalls() {
        let mk = || {
            let mut x = 1u64;
            (0..300_000).map(move |_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = (0x1000_0000 + ((x >> 16) % (64 << 20))) & !7;
                MicroOp::load(0x40_0000, addr)
            })
        };
        let big = simulate(
            mk(),
            &CpuConfig::westmere_e5645(),
            &SimOptions::exact(150_000, 15_000),
        );
        let small = simulate(
            mk(),
            &CpuConfig::westmere_e5645()
                .try_with_rob_entries(32)
                .expect("a nonempty ROB"),
            &SimOptions::exact(150_000, 15_000),
        );
        assert!(small.ipc() <= big.ipc());
        assert!(small.rob_full_stall_cycles >= big.rob_full_stall_cycles);
    }

    // ---- SoA / wakeup-wheel / idle-skip regression tests ----

    #[test]
    fn wakeup_wheel_counts_and_overflow() {
        let mut w = WakeupWheel::new();
        assert_eq!(w.occupancy(), 0);
        assert_eq!(w.next_release(), u64::MAX);
        w.push(5, 0);
        w.push(5, 0);
        w.push(100, 0);
        // Beyond the horizon: goes to overflow.
        let far = WHEEL_SLOTS as u64 + 1_000;
        w.push(far, 0);
        assert_eq!(w.occupancy(), 4);
        assert_eq!(w.next_release(), 5);
        w.drain_to(5);
        assert_eq!(w.occupancy(), 2);
        assert_eq!(w.next_release(), 100);
        w.drain_to(99);
        assert_eq!(w.occupancy(), 2);
        w.drain_to(100);
        assert_eq!(w.occupancy(), 1);
        // The overflow entry is re-bucketed once within the horizon.
        assert_eq!(w.next_release(), far);
        w.drain_to(far - 1);
        assert_eq!(w.occupancy(), 1);
        w.drain_to(far);
        assert_eq!(w.occupancy(), 0);
        assert_eq!(w.next_release(), u64::MAX);
    }

    #[test]
    fn wakeup_wheel_wholesale_expiry_on_long_skip() {
        let mut w = WakeupWheel::new();
        for t in [3u64, 7, 1_000, 2_000] {
            w.push(t, 0);
        }
        w.push(3 * WHEEL_SLOTS as u64, 0); // overflow
        assert_eq!(w.occupancy(), 5);
        // Jump far past the whole wheel span in one drain.
        w.drain_to(2 * WHEEL_SLOTS as u64);
        assert_eq!(w.occupancy(), 1);
        assert_eq!(w.next_release(), 3 * WHEEL_SLOTS as u64);
        w.drain_to(4 * WHEEL_SLOTS as u64);
        assert_eq!(w.occupancy(), 0);
    }

    proptest! {
        /// Lazy draining answers every question the pipeline asks of a
        /// wheel exactly as draining to the clock before each one does,
        /// and both match the plain multiset of release times. Steps
        /// and releases run past `WHEEL_SLOTS` now and then, so the
        /// overflow list and the whole-span expiry are both exercised.
        #[test]
        fn lazy_wheel_drains_answer_like_eager_ones(
            ops in collection::vec(0u64..u64::MAX, 1..500),
            cap in 1usize..24,
        ) {
            let slots = WHEEL_SLOTS as u64;
            let (mut lazy, mut eager) = (WakeupWheel::new(), WakeupWheel::new());
            // Releases still held at `now`, and every release ever pushed.
            let (mut held, mut pushed) = (Vec::new(), Vec::new());
            let mut now = 0;
            for (i, &x) in ops.iter().enumerate() {
                now += match (x >> 8) % 64 {
                    0 => slots + (x >> 20) % slots,
                    1..=15 => (x >> 20) % 40,
                    _ => 0,
                };
                held.retain(|&t| t > now);
                eager.drain_to(now);
                if x % 4 == 0 {
                    let ahead = if (x >> 14) % 8 == 0 { 2 * slots } else { 200 };
                    let at = now + 1 + (x >> 24) % ahead;
                    let spilled = lazy.overflow.len();
                    lazy.push(at, now);
                    eager.push(at, now);
                    held.push(at);
                    pushed.push(at);
                    let near = at <= now + slots;
                    prop_assert!(!near || lazy.overflow.len() <= spilled, "push {i} spilled");
                } else {
                    let full = held.len() >= cap;
                    prop_assert_eq!(lazy.full_at(now, cap), full, "full_at {}", i);
                    prop_assert_eq!(eager.occupancy() >= cap, full, "eager {}", i);
                    if full {
                        let next = held.iter().copied().min();
                        prop_assert_eq!(Some(lazy.next_release()), next, "lazy {}", i);
                        prop_assert_eq!(Some(eager.next_release()), next, "eager {}", i);
                    }
                }
                // Every overflow entry really lies beyond the horizon.
                let horizon = lazy.drained_to + slots;
                let beyond = pushed.iter().filter(|&&t| t > horizon).count();
                prop_assert!(lazy.overflow.len() <= beyond, "overflow at {i}");
            }
        }
    }

    /// Satellite 2: the SoA ring sizes exactly from the config — a
    /// one-entry ROB change moves the stall profile, with no rounding
    /// of capacities (regression at the ROB=32 sweep point).
    #[test]
    fn rob_capacity_is_exact_at_sweep_point() {
        let mk = || {
            let mut x = 9u64;
            (0..200_000).map(move |_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = (0x1000_0000 + ((x >> 16) % (128 << 20))) & !7;
                let mut op = MicroOp::load(0x40_0000, addr);
                op.dep_dist = 1;
                op
            })
        };
        let opts = SimOptions::exact(80_000, 8_000);
        let at = |rob: u32| {
            simulate(
                mk(),
                &CpuConfig::westmere_e5645()
                    .with_prefetch(false)
                    .try_with_rob_entries(rob)
                    .expect("a nonempty ROB"),
                &opts,
            )
        };
        let c31 = at(31);
        let c32 = at(32);
        let c33 = at(33);
        // Strict per-entry sensitivity: each extra ROB slot can only
        // help a window-bound workload, so no hidden rounding to a
        // larger backing capacity is possible.
        assert!(c31.cycles >= c32.cycles && c32.cycles >= c33.cycles);
        assert!(
            c31.cycles > c33.cycles,
            "a 2-entry ROB delta must be visible: {} vs {}",
            c31.cycles,
            c33.cycles
        );
    }

    #[test]
    #[should_panic(expected = "capacities must be positive")]
    fn zero_rob_capacity_panics() {
        let mut cfg = CpuConfig::westmere_e5645();
        cfg.core.rob_entries = 0;
        simulate(alu_stream(100), &cfg, &SimOptions::quick());
    }

    /// The idle-skip fast path must be bit-identical to cycle-by-cycle
    /// stepping across qualitatively different workloads.
    #[test]
    fn idle_skip_matches_stepped_loop_bit_for_bit() {
        let cfg = CpuConfig::westmere_e5645();
        let opts = SimOptions::exact(60_000, 10_000);
        let profiles = [
            WorkloadProfile::builder("skip-random")
                .region(64 << 20, 1.0, AccessPattern::Random)
                .build()
                .expect("valid"),
            WorkloadProfile::builder("skip-seq")
                .region(32 << 20, 1.0, AccessPattern::Sequential { stride: 8 })
                .build()
                .expect("valid"),
            WorkloadProfile::builder("skip-default")
                .build()
                .expect("valid"),
        ];
        for (k, profile) in profiles.iter().enumerate() {
            let fast = simulate(SyntheticTrace::new(profile, 41 + k as u64), &cfg, &opts);
            let (slow, _) = run_unskipped(SyntheticTrace::new(profile, 41 + k as u64), &cfg, &opts);
            assert_eq!(fast, slow, "profile {k}: skip must not change counters");
        }
        // Also under a short trace that drains inside the window.
        let fast = simulate(
            SyntheticTrace::new(&profiles[0], 7).take(25_000),
            &cfg,
            &SimOptions::exact(1_000_000, 1_000_000),
        );
        let (slow, _) = run_unskipped(
            SyntheticTrace::new(&profiles[0], 7).take(25_000),
            &cfg,
            &SimOptions::exact(1_000_000, 1_000_000),
        );
        assert_eq!(fast, slow, "draining trace: skip must not change counters");
    }

    // ---- SMARTS sampled-mode tests ----

    #[test]
    fn sampled_mode_tracks_exact_metrics() {
        let cfg = CpuConfig::westmere_e5645();
        let profile = WorkloadProfile::builder("smarts")
            .region(16 << 20, 1.0, AccessPattern::Random)
            .build()
            .expect("valid");
        let exact = simulate(
            SyntheticTrace::new(&profile, 17),
            &cfg,
            &SimOptions::exact(300_000, 50_000),
        );
        let sampled = simulate(
            SyntheticTrace::new(&profile, 17),
            &cfg,
            &SimOptions::exact(300_000, 50_000).with_sampling(20_000, 60_000),
        );
        // Instruction totals are conserved: every op is counted in one
        // mode or the other. Both modes overshoot `max_ops` by at most
        // one retire group, on different cycle boundaries.
        assert!(
            sampled.instructions.abs_diff(exact.instructions) <= 8,
            "instructions: sampled {} vs exact {}",
            sampled.instructions,
            exact.instructions
        );
        // Loads/stores are counted at dispatch while instructions are
        // counted at retire, so the in-flight overhang at the window
        // edge differs by at most a machine-width's worth of ops.
        let close = |a: u64, b: u64, what: &str| {
            let diff = a.abs_diff(b);
            assert!(diff * 1000 <= b, "{what}: sampled {a} vs exact {b}");
        };
        close(sampled.loads, exact.loads, "loads");
        close(sampled.stores, exact.stores, "stores");
        // The branch *stream* is identical in both modes (fetch-time
        // overhang aside), so the misprediction ratio agrees tightly.
        close(sampled.branches, exact.branches, "branches");
        let ratio_err =
            (sampled.branch_misprediction_ratio() - exact.branch_misprediction_ratio()).abs();
        assert!(
            ratio_err < 1e-3,
            "mispredict ratio: sampled {} vs exact {}",
            sampled.branch_misprediction_ratio(),
            exact.branch_misprediction_ratio()
        );
        // Extrapolated IPC lands near the exact value.
        let err = (sampled.ipc() - exact.ipc()).abs() / exact.ipc();
        assert!(
            err < 0.05,
            "sampled IPC {} vs exact {} (err {:.3})",
            sampled.ipc(),
            exact.ipc(),
            err
        );
    }

    #[test]
    fn sampled_mode_is_deterministic() {
        let cfg = CpuConfig::westmere_e5645();
        let profile = WorkloadProfile::builder("smarts-det")
            .build()
            .expect("valid");
        let opts = SimOptions::exact(200_000, 30_000).with_sampling(10_000, 30_000);
        let a = simulate(SyntheticTrace::new(&profile, 23), &cfg, &opts);
        let b = simulate(SyntheticTrace::new(&profile, 23), &cfg, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_mode_survives_short_trace() {
        let cfg = CpuConfig::westmere_e5645();
        let profile = WorkloadProfile::builder("smarts-short")
            .build()
            .expect("valid");
        let opts = SimOptions::exact(1_000_000, 10_000).with_sampling(5_000, 20_000);
        let counts = simulate(SyntheticTrace::new(&profile, 3).take(60_000), &cfg, &opts);
        assert_eq!(counts.instructions, 50_000);
        assert!(counts.cycles > 0);
    }

    #[test]
    #[should_panic(expected = "intervals must be positive")]
    fn zero_sample_interval_panics() {
        let cfg = CpuConfig::westmere_e5645();
        let opts = SimOptions::quick().with_sampling(0, 1_000);
        simulate(alu_stream(100), &cfg, &opts);
    }

    #[test]
    fn sampled_mode_splits_instructions_by_phase() {
        let cfg = CpuConfig::westmere_e5645();
        let profile = WorkloadProfile::builder("smarts-phases")
            .build()
            .expect("valid");
        let opts = SimOptions::exact(200_000, 30_000).with_sampling(10_000, 30_000);
        let (counts, pipe) = run_unskipped(SyntheticTrace::new(&profile, 7), &cfg, &opts);
        let (ramp, detail, ffwd) = pipe.phase_instructions();
        assert!(ramp > 0, "post-warm-up window must include ramp prefixes");
        assert!(detail > 0, "measured spans retire in detail");
        assert!(ffwd > 0, "fast-forward bursts dominate the window");
        // Wind-down drain retirements belong to no phase, so the three
        // never exceed the measured window's instruction total — and
        // fast-forwarded µops must account for most of it.
        assert!(ramp + detail + ffwd <= counts.instructions);
        assert!(ffwd > detail, "ffwd_ops=3×detail_ops plans skip most µops");

        // Exact mode reports an all-zero split.
        let (_, exact) = run_unskipped(
            alu_stream(100_000),
            &cfg,
            &SimOptions::exact(50_000, 10_000),
        );
        assert_eq!(exact.phase_instructions(), (0, 0, 0));
    }
}
