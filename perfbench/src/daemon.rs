//! `warm_daemon`: an in-process `dc-server` on loopback TCP,
//! warm-started from a store populated beforehand, under a closed loop
//! of two client connections.
//!
//! Why: it runs zero simulations, so protocol parsing and rendering,
//! job and event replay, memo lookup, transport and the stats and
//! report paths dominate. A simulator change must show no change here,
//! and a server change no change on the other two workloads. It reads
//! the store (recovery is part of set-up) while `cold_exhibits` writes
//! it.

use crate::client::{self, Daemon, JobKind, Mix, Session, Stop};
use crate::common::{digest, quick_window, secs, Cell, WorkDir};
use crate::layers::{self, Ledger, CLIENTS};
use crate::stats::{Summary, Tally};
use crate::{Ctx, EndToEnd, Outcome};
use dc_cpu::CpuConfig;
use dcbench::{cache, pool, BenchmarkId, Characterizer};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run, half before the session and half after it; the
/// median is reported.
const SETUP_REPS: usize = 400;

fn cells(master: u64) -> Vec<Cell> {
    BenchmarkId::data_analysis()
        .iter()
        .map(|&id| Cell {
            id,
            cfg: CpuConfig::westmere_e5645(),
            opts: quick_window(),
            master,
            corun: 1,
        })
        .collect()
}

/// What a user pays before the first request: recover the store into
/// the memo and start the daemon. Returns the seconds and the recovery
/// alone, in seconds.
fn setup(store: &Path) -> std::io::Result<(f64, f64, Daemon)> {
    cache::clear();
    let t = Instant::now();
    cache::attach_store(store, &dc_obs::Recorder::disabled())?;
    let recover = secs(t);
    let daemon = Daemon::start(pool::jobs())?;
    Ok((secs(t), recover, daemon))
}

/// `reps` set-ups, each torn down again, timed into `setups` and
/// `recovers`.
fn setup_reps(
    store: &Path,
    reps: usize,
    setups: &mut Vec<f64>,
    recovers: &mut Vec<f64>,
) -> std::io::Result<()> {
    for _ in 0..reps {
        let (s, r, d) = setup(store)?;
        setups.push(s);
        recovers.push(r);
        d.stop();
        cache::detach_store();
    }
    Ok(())
}

/// Score a session: every request is an operation, a simulation while
/// serving fails the run.
fn score(session: &Session, tally: &mut Tally) -> bool {
    for r in &session.reqs {
        tally.record(r.ok);
    }
    let sims = cache::sim_invocations();
    tally.record_many(sims, sims);
    sims == 0 && session.reqs.iter().all(|r| r.ok)
}

pub fn run(ctx: &Ctx) -> std::io::Result<Outcome> {
    let work = WorkDir::new(&ctx.root, "warm_daemon")?;
    let store = work.path("daemon.store");
    let cells = cells(ctx.master);

    // Populate the store (untimed, not set-up: an earlier process did it).
    cache::clear();
    cache::attach_store(&store, &dc_obs::Recorder::disabled())?;
    let counts: Vec<_> = pool::parallel_map(cells.clone(), |_, c| c.measure()[0]);
    cache::detach_store();

    let mut setups = Vec::new();
    let mut recovers = Vec::new();
    setup_reps(&store, SETUP_REPS / 2, &mut setups, &mut recovers)?;
    let (s, r, daemon) = setup(&store)?;
    setups.push(s);
    recovers.push(r);
    let mix = Mix::build(
        ctx.master,
        ctx.seed,
        "quick",
        false,
        BenchmarkId::data_analysis(),
    );
    // Offline renders hit the memo; count only what the daemon serves.
    dc_obs::metrics::global().reset_values();

    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    crate::common::reset_peak_rss();
    let session = client::run_session(daemon.addr(), &mix, ctx.seed, CLIENTS, Stop::At(deadline));
    let peak_mb = crate::common::peak_rss_mb();
    let mut correct = score(&session, &mut tally);
    let mut lines = vec![format!(
        "warm_daemon: {} requests from {CLIENTS} clients in {:.3}s, {} simulations, \
         stored counters digest {:016x}",
        session.reqs.len(),
        session.wall_s,
        cache::sim_invocations(),
        digest(&counts)
    )];
    if !ctx.trace {
        daemon.stop();
        cache::detach_store();
        // The other half of the set-ups, a session after the first, so
        // the median spans the run rather than one moment of it.
        setup_reps(&store, SETUP_REPS / 2, &mut setups, &mut recovers)?;
        let e2e = EndToEnd {
            setup: Summary::of(&setups),
            sim_mops: Summary {
                median: session.uops as f64 / session.wall_s / 1e6,
                n: 1,
            },
            req_per_s: session.reqs.len() as f64 / session.wall_s,
            requests: session.reqs.len(),
            result_p50: Summary::of(&session.rounds),
            tally,
        };
        return Ok(Outcome::end_to_end(e2e, correct, lines));
    }

    // The time-bounded session above gives the per-verb latencies; a
    // fixed-size traced session gives counts that repeat exactly.
    let mut ledger = Ledger::default();
    ledger.set("mem.peak_rss_mb", peak_mb);
    layers::server(&mut ledger, &session, &daemon)?;
    let untraced = client::run_session(
        daemon.addr(),
        &mix,
        ctx.seed,
        CLIENTS,
        Stop::After(layers::PROBE_ACTIONS),
    );
    dc_obs::metrics::global().reset_values();
    let phases = layers::phase_counters();
    let traced = client::run_session(
        daemon.addr(),
        &mix,
        ctx.seed,
        CLIENTS,
        Stop::After(layers::PROBE_ACTIONS),
    );
    ledger.phase_uops(phases);
    ledger.cache_counts();
    correct &= score(&traced, &mut tally) && untraced.reqs.iter().all(|r| r.ok);
    let (qw_sum, sv_sum) = {
        let (_, _, qw, _) = client::daemon_histogram(daemon.addr(), "dc_server_queue_wait_us")?;
        let (_, _, sv, _) = client::daemon_histogram(daemon.addr(), "dc_server_service_time_us")?;
        (qw, sv)
    };
    daemon.stop();
    cache::detach_store();
    ctx.write_request_spans("warm_daemon", &traced)?;
    ledger.set("trace.overhead_frac", traced.wall_s / untraced.wall_s - 1.0);
    ledger.sim_totals(&counts);

    // The daemon's jobs fan their entries over the pool as memo hits;
    // time that fan-out from the benchmark's side.
    let hits = crate::common::fan_out(&cells, true);
    ledger.set("pool.busy_frac", hits.busy_frac());
    ledger.set("pool.tail_ms", hits.tail_ms());
    layers::lookups(&mut ledger, &cells);
    let harness = Characterizer::new(CpuConfig::westmere_e5645(), quick_window(), ctx.master);
    let subset_us = layers::subset(&mut ledger, &harness);
    let (_, status, events) = JobKind::offline(&mix.jobs[0].body);
    layers::protocol(&mut ledger, &session.lines, &[status], &events);

    let r = layers::replay(&cells, &counts);
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
    // Recovery as set-up pays it, not as the probe store measured it.
    ledger.set("store.recover_ms", Summary::of(&recovers).median * 1e3);

    // Layer self time inside the traced session: the daemon's own queue
    // wait and service, parsing and rendering every line, and the
    // subset computations, against the client-observed total.
    let n = traced.reqs.len() as f64;
    let subsets = traced.reqs.iter().filter(|r| r.verb == 4).count() as f64;
    let client_us: f64 = traced.reqs.iter().map(|r| r.us).sum();
    let layer_us = qw_sum
        + sv_sum
        + n * (ledger.get("proto.parse_ns") + ledger.get("proto.render_ns")) / 1e3
        + subsets * subset_us;
    ledger.set("layers.sum_frac", layer_us / client_us);
    lines.push(format!(
        "traced session: {} requests in {:.3}s (untraced {:.3}s)",
        traced.reqs.len(),
        traced.wall_s,
        untraced.wall_s
    ));
    Ok(Outcome::traced(ledger, correct, tally, lines))
}
