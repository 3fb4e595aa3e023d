//! `cold_exhibits`: a cold regeneration of what `characterize_all`
//! simulates at the quick window.
//!
//! Why: this is the cost users pay most. Every pass runs the 26-entry
//! exact matrix plus a 4-wide `Chip` co-run slice of two data-analysis
//! entries through the memo with a fresh store attached write-through,
//! fanned over the program's pool. Trace synthesis, the detailed
//! `Core`/`Chip` loop, pool fan-out and store appends do nearly all the
//! work; the protocol and memo-hit paths do none.

use crate::client::{JobKind, Mix};
use crate::common::{digest, fan_out, quick_window, secs, Cell, WorkDir};
use crate::layers::{self, Ledger};
use crate::stats::Tally;
use crate::{Ctx, EndToEnd, Outcome};
use dc_cpu::{CpuConfig, PerfCounts};
use dcbench::{cache, BenchmarkId, Characterizer};
use std::path::Path;
use std::time::Instant;

/// The co-run slice: two data-analysis entries, four copies each.
const CORUN: [BenchmarkId; 2] = [BenchmarkId::Sort, BenchmarkId::KMeans];
const CORUN_WIDTH: usize = 4;

/// The co-run cells alone: the slice every traced run replays through
/// `Chip::run`.
pub fn corun_slice(master: u64) -> Vec<Cell> {
    cells(master).into_iter().filter(|c| c.corun > 1).collect()
}

pub fn cells(master: u64) -> Vec<Cell> {
    let cell = |id, corun| Cell {
        id,
        cfg: CpuConfig::westmere_e5645(),
        opts: quick_window(),
        master,
        corun,
    };
    // The co-runs are the longest items; starting them first keeps the
    // pool's tail short.
    let mut cells: Vec<Cell> = CORUN.iter().map(|&id| cell(id, CORUN_WIDTH)).collect();
    cells.extend(BenchmarkId::all().iter().map(|&id| cell(id, 1)));
    cells
}

/// What a user pays before the first simulation: a fresh harness and a
/// fresh store attached write-through, on an empty memo. Returns the
/// seconds; the store stays attached.
fn setup(store: &Path, master: u64) -> std::io::Result<f64> {
    let _ = std::fs::remove_file(store);
    cache::clear();
    let t = Instant::now();
    let _harness = Characterizer::new(CpuConfig::westmere_e5645(), quick_window(), master);
    cache::attach_store(store, &dc_obs::Recorder::disabled())?;
    Ok(secs(t))
}

/// One pass as the user pays for it: set-up, then the matrix. Returns
/// the set-up seconds and the pass.
fn pass(
    cells: &[Cell],
    work: &WorkDir,
    master: u64,
    traced: bool,
) -> std::io::Result<(f64, crate::common::Pass)> {
    let setup = setup(&work.path("cold.store"), master)?;
    let p = fan_out(cells, traced);
    cache::detach_store();
    Ok((setup, p))
}

/// Check a pass: counters repeat bit-for-bit against the first pass,
/// and the store it wrote recovers to the same counters.
fn check(
    cells: &[Cell],
    first: &[Vec<PerfCounts>],
    got: &[Vec<PerfCounts>],
    work: &WorkDir,
    tally: &mut Tally,
) -> bool {
    let recovered = dc_store::scan(&work.path("cold.store"))
        .map(|r| r.records)
        .unwrap_or_default();
    let mut all_ok = true;
    let mut lost = 0u64;
    for (i, cell) in cells.iter().enumerate() {
        let want = layers::record(cell, &got[i]);
        let stored = recovered
            .iter()
            .any(|r| r.key == want.key && r.counts == want.counts);
        lost += u64::from(!stored);
        let ok = got[i] == first[i] && stored;
        all_ok &= ok;
        tally.record(ok);
    }
    let errors = cache::store_write_errors();
    tally.record_many(cells.len() as u64, lost + errors);
    all_ok && errors == 0
}

pub fn run(ctx: &Ctx) -> std::io::Result<Outcome> {
    let work = WorkDir::new(&ctx.root, "cold_exhibits")?;
    let cells = cells(ctx.master);
    let mut tally = Tally::default();
    let mut correct = true;
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut uops = 0u64;
    let mut first: Option<Vec<Vec<PerfCounts>>> = None;
    crate::common::reset_peak_rss();
    let started = Instant::now();
    let passes = if ctx.trace { 2 } else { usize::MAX };
    while walls.len() < passes && (walls.len() < MIN_PASSES || secs(started) < ctx.seconds) {
        let (s, p) = pass(&cells, &work, ctx.master, false)?;
        setups.push(s);
        walls.push(p.wall_s);
        uops = cells.iter().zip(&p.counts).map(|(c, k)| c.uops(k)).sum();
        let reference = first.get_or_insert_with(|| p.counts.clone());
        correct &= check(&cells, reference, &p.counts, &work, &mut tally);
        // More set-ups than passes: a set-up is mostly one fsync, whose
        // latency comes in bursts, so they are spread over the run.
        for _ in 0..SETUPS_PER_PASS {
            setups.push(setup(&work.path("setup.store"), ctx.master)?);
            cache::detach_store();
        }
    }
    let peak_mb = crate::common::peak_rss_mb();
    let counts = first.expect("at least one pass");
    let mut lines = vec![format!(
        "cold_exhibits: {} cells ({} µops) per pass, {} passes, pool width {}, counters digest {:016x}",
        cells.len(),
        uops,
        walls.len(),
        dcbench::pool::jobs().min(cells.len()),
        digest(counts.iter().flatten())
    )];
    lines.push(format!("pass seconds {walls:.3?}"));
    if !ctx.trace {
        return Ok(Outcome::end_to_end(
            EndToEnd::from_passes(&setups, &walls, uops, tally),
            correct,
            lines,
        ));
    }

    // Traced pass: the same pass with its pool items kept as spans.
    let mut ledger = Ledger::default();
    ledger.set("mem.peak_rss_mb", peak_mb);
    let phases = layers::phase_counters();
    let (_, traced) = pass(&cells, &work, ctx.master, true)?;
    ledger.phase_uops(phases);
    ledger.cache_counts();
    correct &= check(&cells, &counts, &traced.counts, &work, &mut tally);
    ctx.write_spans("cold_exhibits", &traced.spans)?;
    let untraced = crate::stats::median(&walls).expect("passes ran");
    ledger.set("trace.overhead_frac", traced.wall_s / untraced - 1.0);
    ledger.set("pool.busy_frac", traced.busy_frac());
    ledger.set("pool.tail_ms", traced.tail_ms());
    ledger.sim_totals(counts.iter().flatten());

    // Memo-hit, daemon, protocol and subset layers on this matrix.
    layers::lookups(&mut ledger, &cells);
    let mix = Mix::build(ctx.master, ctx.seed, "quick", false, BenchmarkId::all());
    let subset_harness =
        Characterizer::new(CpuConfig::westmere_e5645(), quick_window(), ctx.master);
    let session = layers::serve_probe(&mut ledger, &mix, ctx.seed, &subset_harness)?;
    for r in &session.reqs {
        tally.record(r.ok);
        correct &= r.ok;
    }
    let (_, status, events) = JobKind::offline(&mix.jobs[0].body);
    layers::protocol(&mut ledger, &session.lines, &[status], &events);

    // Synthesis, pipeline, chip and hierarchy replays of every cell.
    let solo: Vec<Cell> = cells.iter().filter(|c| c.corun == 1).cloned().collect();
    let solo_counts: Vec<PerfCounts> = cells
        .iter()
        .zip(&counts)
        .filter(|(c, _)| c.corun == 1)
        .map(|(_, k)| k[0])
        .collect();
    let r = layers::replay(&solo, &solo_counts);
    let co = corun_slice(ctx.master);
    let (chip_s, chip_uops, chip_bad) = layers::chip(&co, Some(&counts[..co.len()]));
    correct &= r.mismatches == 0 && chip_bad == 0;
    crate::ledger_from_replay(&mut ledger, &r, chip_s, chip_uops);

    let records: Vec<_> = cells
        .iter()
        .zip(&counts)
        .map(|(c, k)| layers::record(c, k))
        .collect();
    let lost = layers::store(&mut ledger, &work.path("probe.store"), &records)?;
    correct &= lost == 0;

    // Self time of every layer a pass runs, against the untraced pass
    // on all pool workers.
    let layer_s = r.synth_s + r.core_s + chip_s + ledger.get("store.append_ms") / 1e3;
    ledger.set(
        "layers.sum_frac",
        layer_s / (untraced * traced.width as f64),
    );
    lines.push(format!(
        "replay: synth {:.3}s core {:.3}s chip {:.3}s sampled {:.3}s hier {:.3}s",
        r.synth_s, r.core_s, chip_s, r.sampled_s, r.hier_s
    ));
    Ok(Outcome::traced(ledger, correct, tally, lines))
}

/// Passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;
/// Extra set-ups measured after each pass.
const SETUPS_PER_PASS: usize = 12;
