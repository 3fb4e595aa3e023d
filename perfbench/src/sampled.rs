//! `sampled_sweep`: `sweep::run` over the eleven data-analysis entries
//! on a two-point L3 axis under `SamplePlan::DEFAULT` at the full
//! window.
//!
//! Why: functional fast-forward and trace synthesis dominate here and
//! the detailed pipeline runs only about a quarter of the µops. This is
//! the workload a sampled-speed change must move, and it checks the
//! `sampled-validation` accuracy bounds such a change must keep.

use crate::client::{JobKind, Mix};
use crate::common::{digest, fan_out, full_window, sampled, secs, Cell, WorkDir};
use crate::layers::{self, sampling_error, Ledger};
use crate::stats::Tally;
use crate::{Ctx, EndToEnd, Outcome};
use dc_cpu::{CpuConfig, PerfCounts};
use dcbench::sweep::SweepAxis;
use dcbench::{cache, BenchmarkId, Characterizer};
use std::time::Instant;

/// The L3 axis: half the base capacity, then the base 12 MiB point the
/// exact reference runs at.
const L3_POINTS: [u64; 2] = [6 << 20, 12 << 20];
const BASE_POINT: usize = 1;

/// The `sampled-validation` bounds at the full window.
const IPC_BOUND: f64 = 0.03;
const MPKI_BOUND: f64 = 0.05;

fn axis() -> SweepAxis {
    SweepAxis::l3_bytes(L3_POINTS.to_vec())
}

/// The sweep grid in `sweep::run`'s order: point-major, then entry.
pub fn cells(master: u64) -> Vec<Cell> {
    let configs = axis()
        .configs(&CpuConfig::westmere_e5645())
        .expect("the L3 points are valid for the base machine");
    configs
        .iter()
        .flat_map(|cfg| {
            BenchmarkId::data_analysis().iter().map(move |&id| Cell {
                id,
                cfg: cfg.clone(),
                opts: sampled(full_window()),
                master,
                corun: 1,
            })
        })
        .collect()
}

/// The harness a user builds: set-up is constructing it and expanding
/// the grid, on an empty memo.
fn setup(master: u64) -> (f64, Characterizer) {
    cache::clear();
    let t = Instant::now();
    let plan = dc_cpu::SamplePlan::DEFAULT;
    let harness = Characterizer::new(CpuConfig::westmere_e5645(), full_window(), master)
        .with_sampling(plan.detail_ops, plan.ffwd_ops);
    let grid = axis().configs(harness.config());
    std::hint::black_box(grid.expect("valid grid"));
    (secs(t), harness)
}

/// One timed `sweep::run`, flattened to the grid order of [`cells`].
fn sweep(harness: &Characterizer) -> (f64, Vec<PerfCounts>) {
    let t = Instant::now();
    let sweeps =
        dcbench::sweep::run(harness, BenchmarkId::data_analysis(), &[axis()]).expect("valid grid");
    let wall = secs(t);
    let s = &sweeps[0];
    let counts = (0..s.values.len())
        .flat_map(|p| s.curves.iter().map(move |c| c.counts[p]))
        .collect();
    (wall, counts)
}

/// Whether each cell of the grid is within the accuracy bounds of the
/// exact reference: the base-point cells are checked, the other point
/// has no reference and passes.
fn within_bounds(counts: &[PerfCounts], exact: &[PerfCounts]) -> Vec<bool> {
    let n = exact.len();
    counts
        .iter()
        .enumerate()
        .map(|(i, c)| {
            i / n != BASE_POINT || {
                let (ipc, mpki) = sampling_error(c, &exact[i % n]);
                ipc <= IPC_BOUND && mpki <= MPKI_BOUND
            }
        })
        .collect()
}

/// Check a pass against the first: clears `ok` for every cell whose
/// counters did not repeat bit-for-bit, and returns whether all did.
fn repeats(first: &[PerfCounts], got: &[PerfCounts], ok: &mut [bool]) -> bool {
    let mut all = true;
    for ((f, g), ok) in first.iter().zip(got).zip(ok) {
        *ok &= f == g;
        all &= f == g;
    }
    all
}

pub fn run(ctx: &Ctx) -> std::io::Result<Outcome> {
    let work = WorkDir::new(&ctx.root, "sampled_sweep")?;
    let cells = cells(ctx.master);
    // Reference for the checks only: exact full-window counters at the
    // base point, kept in a store so later probes can reload them.
    cache::clear();
    let exact_harness = Characterizer::new(CpuConfig::westmere_e5645(), full_window(), ctx.master);
    let exact: Vec<PerfCounts> =
        dcbench::pool::parallel_map(BenchmarkId::data_analysis().to_vec(), |_, id| {
            exact_harness.raw_counts(id)
        });
    let exact_store = work.path("exact.store");
    cache::persist_to(&exact_store)?;

    let mut tally = Tally::default();
    let mut correct = true;
    // One operation per cell, judged over every pass of the run. The
    // counters repeat for a seed, so a cell outside the accuracy bounds
    // is outside them in every pass; counting it once keeps `failed` a
    // property of the seed rather than of how many passes the host ran.
    let mut ok: Vec<bool> = Vec::new();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<Vec<PerfCounts>> = None;
    crate::common::reset_peak_rss();
    let started = Instant::now();
    let passes = if ctx.trace { 2 } else { usize::MAX };
    while walls.len() < passes && (walls.len() < MIN_PASSES || secs(started) < ctx.seconds) {
        let (s, harness) = setup(ctx.master);
        setups.push(s);
        let (wall, counts) = sweep(&harness);
        walls.push(wall);
        let reference = first.get_or_insert_with(|| {
            ok = within_bounds(&counts, &exact);
            counts.clone()
        });
        correct &= repeats(reference, &counts, &mut ok);
    }
    let peak_mb = crate::common::peak_rss_mb();
    // More set-ups than passes: a set-up is microseconds, and its median
    // needs many samples to be steady.
    for _ in 0..SETUP_REPS {
        setups.push(setup(ctx.master).0);
    }
    let counts = first.expect("at least one pass");
    let sim_uops: u64 = cells
        .iter()
        .zip(&counts)
        .map(|(c, k)| c.uops(std::slice::from_ref(k)))
        .sum();
    let errors: Vec<(f64, f64)> = counts[BASE_POINT * exact.len()..]
        .iter()
        .zip(&exact)
        .map(|(s, e)| sampling_error(s, e))
        .collect();
    let worst = errors
        .iter()
        .fold((0.0f64, 0.0f64), |(a, b), &(i, m)| (a.max(i), b.max(m)));
    let outside = errors
        .iter()
        .filter(|&&(i, m)| i > IPC_BOUND || m > MPKI_BOUND)
        .count();
    let mut lines = vec![
        format!(
            "sampled_sweep: {} cells ({} µops) per pass, {} passes, counters digest {:016x}, \
             {outside} of {} base-point cells outside the accuracy bounds",
            cells.len(),
            sim_uops,
            walls.len(),
            digest(&counts),
            errors.len()
        ),
        format!(
            "sampled_sweep: worst error against the exact base point: IPC {:.3}% (bound {:.0}%), \
             L2/L3 MPKI {:.3}% (bound {:.0}%)",
            worst.0 * 100.0,
            IPC_BOUND * 100.0,
            worst.1 * 100.0,
            MPKI_BOUND * 100.0,
        ),
    ];
    lines.push(format!("pass seconds {walls:.3?}"));
    if !ctx.trace {
        for &o in &ok {
            tally.record(o);
        }
        return Ok(Outcome::end_to_end(
            EndToEnd::from_passes(&setups, &walls, sim_uops, tally),
            correct,
            lines,
        ));
    }

    // Traced pass: the same grid through the benchmark's own pool
    // closure (the sweep's internals cannot be spanned from outside),
    // which must measure exactly what `sweep::run` measured.
    let mut ledger = Ledger::default();
    ledger.set("mem.peak_rss_mb", peak_mb);
    cache::clear();
    let phases = layers::phase_counters();
    let traced = fan_out(&cells, true);
    ledger.phase_uops(phases);
    ledger.cache_counts();
    let flat: Vec<PerfCounts> = traced.counts.iter().map(|k| k[0]).collect();
    correct &= repeats(&counts, &flat, &mut ok);
    for &o in &ok {
        tally.record(o);
    }
    ctx.write_spans("sampled_sweep", &traced.spans)?;
    let untraced = crate::stats::median(&walls).expect("passes ran");
    ledger.set("trace.overhead_frac", traced.wall_s / untraced - 1.0);
    ledger.set("pool.busy_frac", traced.busy_frac());
    ledger.set("pool.tail_ms", traced.tail_ms());
    ledger.sim_totals(&counts);

    // Memo hits, then the daemon and subset on the sampled cells plus
    // the reloaded exact reference.
    layers::lookups(&mut ledger, &cells);
    cache::load_from(&exact_store, &dc_obs::Recorder::disabled())?;
    let mix = Mix::build(
        ctx.master,
        ctx.seed,
        "full",
        true,
        BenchmarkId::data_analysis(),
    );
    let session = layers::serve_probe(&mut ledger, &mix, ctx.seed, &exact_harness)?;
    for r in &session.reqs {
        tally.record(r.ok);
        correct &= r.ok;
    }
    let (_, status, events) = JobKind::offline(&mix.jobs[0].body);
    layers::protocol(&mut ledger, &session.lines, &[status], &events);

    // Replays of the base-point cells: the exact replay is the
    // reference, so the replay errors are the sweep's accuracy.
    let n = exact.len();
    let base = &cells[BASE_POINT * n..];
    let r = layers::replay(base, &counts[BASE_POINT * n..]);
    let (chip_s, chip_uops, _) = layers::chip(&crate::cold::corun_slice(ctx.master), None);
    correct &= r.mismatches == 0;
    crate::ledger_from_replay(&mut ledger, &r, chip_s, chip_uops);

    let records: Vec<_> = cells
        .iter()
        .zip(&counts)
        .map(|(c, k)| layers::record(c, std::slice::from_ref(k)))
        .collect();
    let lost = layers::store(&mut ledger, &work.path("probe.store"), &records)?;
    correct &= lost == 0;

    // Synthesis and the sampled pipeline are the pass's layers; the
    // replays cover the base point, the other point costs about as much.
    let scale = cells.len() as f64 / base.len() as f64;
    let layer_s = (r.synth_s + r.sampled_s) * scale;
    ledger.set(
        "layers.sum_frac",
        layer_s / (untraced * traced.width as f64),
    );
    lines.push(format!(
        "replay: synth {:.3}s core {:.3}s sampled {:.3}s hier {:.3}s chip {:.3}s",
        r.synth_s, r.core_s, r.sampled_s, r.hier_s, chip_s
    ));
    Ok(Outcome::traced(ledger, correct, tally, lines))
}

/// Passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;
/// Extra set-ups measured after the passes.
const SETUP_REPS: usize = 200;
