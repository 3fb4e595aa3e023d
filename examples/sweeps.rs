//! Exhibit SW: microarchitectural sensitivity sweeps of the eleven
//! data-analysis workloads.
//!
//! ```text
//! cargo run --release --example sweeps                     # full grid, quick windows
//! cargo run --release --example sweeps -- --quick          # reduced grid (CI smoke)
//! cargo run --release --example sweeps -- --jsonl sw.jsonl # event artifact
//! ```
//!
//! Every distinct (workload, config) grid cell is one pure simulation,
//! memoized by the counter cache; each curve (one workload along one
//! axis) is one job across `DCBENCH_JOBS` workers and simulates its
//! cells together on one synthesized trace. The simulation count goes
//! to stderr (`sweeps: simulations: N`) and equals the number of
//! distinct cells at any width. With `--jsonl`, one `sweep_point`
//! event per cell plus one `sweep_axis` summary per axis are streamed
//! as JSON Lines in fixed grid order, so two runs with the same flags
//! produce **byte-identical** files at any `DCBENCH_JOBS` setting.
//!
//! Set `DCBENCH_STORE=path/to/store.log` to warm-start from (and write
//! new measurements through to) a persistent result store; a run
//! against a fully populated store does **zero** simulations and still
//! renders byte-identical exhibits.

use dc_obs::Recorder;
use dcbench::sweep::SweepAxis;
use dcbench::{cache, report, Characterizer};
use std::io::BufWriter;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut jsonl: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--jsonl" => jsonl = Some(it.next().expect("--jsonl takes a path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: sweeps [--quick] [--jsonl PATH]");
                std::process::exit(2);
            }
        }
    }

    // Sweeps multiply the matrix by the grid size, so both modes
    // measure through quick windows; --quick additionally shrinks the
    // grid to the three-axis smoke set CI byte-compares.
    let axes = if quick {
        SweepAxis::reduced_axes()
    } else {
        SweepAxis::default_axes()
    };

    // Store recovery telemetry stays out of the --jsonl artifact so
    // cold and warm runs remain byte-identical; load results go to
    // stderr instead.
    let store = cache::attach_from_env(&Recorder::disabled()).unwrap_or_else(|e| {
        eprintln!("dc-store: cannot open DCBENCH_STORE: {e}");
        std::process::exit(1);
    });
    if let Some(report) = &store {
        eprintln!(
            "dc-store: loaded {} record(s) \
             (corrupt {}, stale {}, torn {} byte(s), unknown {})",
            report.loaded,
            report.corrupt_skipped,
            report.stale_skipped,
            report.truncated_bytes,
            report.unknown_entries
        );
    }

    let recorder = match &jsonl {
        Some(path) => {
            let file =
                std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
            Recorder::jsonl(BufWriter::new(file))
        }
        None => Recorder::disabled(),
    };
    let bench = Characterizer::quick().with_recorder(recorder.clone());

    let figures = report::sweep_exhibit(&bench, &axes).unwrap_or_else(|e| panic!("{e}"));
    for figure in &figures {
        println!("{}", figure.render());
    }
    recorder.flush();
    if let Some(path) = jsonl {
        eprintln!("event artifact written to {path}");
    }
    eprintln!("sweeps: simulations: {}", cache::sim_invocations());
    if store.is_some() {
        eprintln!(
            "dc-store: simulations: {} (store hits {}, store misses {}, write errors {})",
            cache::sim_invocations(),
            cache::store_hits(),
            cache::store_misses(),
            cache::store_write_errors()
        );
    }
}
