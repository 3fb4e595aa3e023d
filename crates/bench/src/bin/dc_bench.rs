//! `dc-bench` — the perf-trajectory harness.
//!
//! Times the repo's hot paths — the full characterization matrix
//! sequentially, in parallel, and from a warm result cache, plus the
//! MapReduce engine and cluster-model paths behind Figures 2/5 — and
//! writes a machine-readable `BENCH_<label>.json` so CI can track the
//! trajectory and gate on regressions:
//!
//! ```text
//! cargo run --release -p dc-benches --bin dc-bench -- --label ci --quick \
//!     --baseline BENCH_baseline.json --tolerance 0.25
//! ```
//!
//! Each entry times one distinct code path. With `--baseline`, every
//! `full_matrix_*`, `chip_*`, `sweep_*`, `subset_*`, `server_*`,
//! `obs_disabled*`, and `metrics_disabled*` entry is compared against
//! the same-named entry in the baseline file; a wall-clock more than
//! `tolerance` above baseline, or a gated entry the baseline does not
//! list, fails the run (exit 1). `DCBENCH_JOBS` caps the parallel
//! phase's worker count, as everywhere else.
//!
//! Besides `BENCH_<label>.json`, the run writes
//! `BENCH_<label>.events.jsonl` — its own metadata as `dc-obs` events
//! (`bench_run_start` / one `bench_entry` per timing / `bench_run_end`),
//! validated in CI by `obs-schema-check`.

use dc_datagen::Scale;
use dc_mapreduce::engine::JobConfig;
use dc_obs::event::write_json_string;
use dc_obs::{Recorder, Value};
use dc_server::client::Client;
use dc_store::json::{parse_json, Json};
use dcbench::{cache, cluster_experiments, pool, sweep, Characterizer};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One timed entry of the emitted report.
struct BenchEntry {
    name: &'static str,
    wall_ms: f64,
    uops_per_s: f64,
    threads: usize,
}

struct Options {
    label: String,
    quick: bool,
    baseline: Option<String>,
    tolerance: f64,
    out_dir: String,
    /// Only time entries whose name starts with this prefix. Entries
    /// that depend on state a skipped entry would have left behind
    /// (warm memo cache, populated store) set it up untimed.
    only: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dc-bench [--label <name>] [--quick|--full] \
         [--baseline <BENCH_x.json>] [--tolerance <frac>] [--out <dir>] \
         [--only <name-prefix>]"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        label: "local".to_string(),
        quick: true,
        baseline: None,
        tolerance: 0.25,
        out_dir: ".".to_string(),
        only: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--label" => opts.label = args.next().unwrap_or_else(|| usage()),
            "--quick" => opts.quick = true,
            "--full" => opts.quick = false,
            "--baseline" => opts.baseline = Some(args.next().unwrap_or_else(|| usage())),
            "--tolerance" => {
                let v = args.next().unwrap_or_else(|| usage());
                match v.parse::<f64>() {
                    Ok(t) if t >= 0.0 => opts.tolerance = t,
                    _ => usage(),
                }
            }
            "--out" => opts.out_dir = args.next().unwrap_or_else(|| usage()),
            "--only" => opts.only = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    opts
}

/// Whether entry `name` is selected under an optional `--only` prefix.
fn selected(name: &str, only: Option<&str>) -> bool {
    only.is_none_or(|prefix| name.starts_with(prefix))
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// µops actually simulated per full-matrix pass (warm-up retires
/// through the pipeline too, so it is honest work).
fn matrix_uops(bench: &Characterizer) -> f64 {
    let per_entry = bench.options().warmup_ops + bench.options().max_ops;
    (dcbench::BenchmarkId::all().len() as u64 * per_entry) as f64
}

fn run_entries(quick: bool, only: Option<&str>) -> Vec<BenchEntry> {
    let bench = if quick {
        Characterizer::quick()
    } else {
        Characterizer::full()
    };
    let uops = matrix_uops(&bench);
    let jobs = pool::jobs();
    let want = |name: &str| selected(name, only);
    let mut entries = Vec::new();
    let mut push = |name, wall_ms: f64, work: f64, threads| {
        let rate = if wall_ms > 0.0 {
            work / (wall_ms / 1e3)
        } else {
            0.0
        };
        eprintln!("  {name:28} {wall_ms:10.1} ms  ({threads} thread(s))");
        entries.push(BenchEntry {
            name,
            wall_ms,
            uops_per_s: rate,
            threads,
        });
    };

    // One untimed simulation first: the process's cold start (page
    // faults, cold host caches) would otherwise land on whichever entry
    // runs first and inflate it past later runs of the same call.
    bench.run_uncached(dcbench::BenchmarkId::all()[0]);

    if want("full_matrix_sequential") || want("full_matrix_parallel") || want("full_matrix_cached")
    {
        eprintln!(
            "dc-bench: full characterization matrix ({} entries)",
            dcbench::BenchmarkId::all().len()
        );
    }
    if want("full_matrix_sequential") {
        cache::clear();
        let seq = time_ms(|| {
            bench.run_all_sequential();
        });
        push("full_matrix_sequential", seq, uops, 1);
    }

    let mut matrix_warm = false;
    if want("full_matrix_parallel") {
        cache::clear();
        let par = time_ms(|| {
            bench.run_all();
        });
        push("full_matrix_parallel", par, uops, jobs);
        matrix_warm = true;
    }

    // Cache stays warm from the parallel pass: this measures pure
    // lookup + metric derivation, the figN-regeneration steady state.
    // Under `--only`, warm the cache untimed when the parallel pass
    // was filtered out.
    if want("full_matrix_cached") {
        if !matrix_warm {
            cache::clear();
            bench.run_all();
        }
        let cached = time_ms(|| {
            bench.run_all();
        });
        push("full_matrix_cached", cached, uops, jobs);
    }

    // The same matrix under the default SMARTS plan — the fast path
    // for window-hungry consumers (sweeps, co-run grids).
    if want("full_matrix_sampled") {
        let plan = dc_cpu::SamplePlan::DEFAULT;
        let sampled_bench = bench.clone().with_sampling(plan.detail_ops, plan.ffwd_ops);
        cache::clear();
        let sam = time_ms(|| {
            sampled_bench.run_all_sequential();
        });
        push("full_matrix_sampled", sam, uops, 1);
    }

    if want("engine_wordcount_256k") || want("cluster_model_figure2") {
        eprintln!("dc-bench: engine + cluster hot paths");
    }
    if want("engine_wordcount_256k") {
        let docs = dc_datagen::text::documents(2013, Scale::bytes(256 << 10), 24);
        let doc_bytes: usize = docs.iter().map(String::len).sum();
        let engine = time_ms(|| {
            dc_analytics::wordcount::run(docs, &JobConfig::default())
                .expect("fault-free wordcount");
        });
        push(
            "engine_wordcount_256k",
            engine,
            doc_bytes as f64,
            JobConfig::default().map_slots,
        );
    }

    if want("cluster_model_figure2") {
        let cluster = time_ms(|| {
            cluster_experiments::figure2_speedups(Scale::bytes(48 << 10));
        });
        push("cluster_model_figure2", cluster, 0.0, 1);
    }

    let corun_width = 4;
    let corun_uops =
        corun_width as f64 * (bench.options().warmup_ops + bench.options().max_ops) as f64;
    let mut corun_warm = false;
    if want("chip_corun_sort_x4") {
        eprintln!("dc-bench: chip co-run path (4 Sort tasks, shared L3)");
        cache::clear();
        let chip = time_ms(|| {
            bench.corun_counts(dcbench::BenchmarkId::Sort, corun_width);
        });
        push("chip_corun_sort_x4", chip, corun_uops, 1);
        corun_warm = true;
    }

    // Warm: the co-run matrix is memoized like everything else, so this
    // measures pure cache lookup (populated untimed under `--only`).
    if want("chip_corun_cached") {
        if !corun_warm {
            bench.corun_counts(dcbench::BenchmarkId::Sort, corun_width);
        }
        let chip_warm = time_ms(|| {
            bench.corun_counts(dcbench::BenchmarkId::Sort, corun_width);
        });
        push("chip_corun_cached", chip_warm, corun_uops, 1);
    }

    // Observability overhead: the sampled characterization pass over
    // the eleven data-analysis workloads, once with the recorder
    // disabled (the default — must cost nothing, so it gates) and once
    // streaming JSONL to a sink (informational). Sampled runs are
    // never memoized, so both passes simulate the same work.
    let da = dcbench::BenchmarkId::data_analysis();
    let every = bench.options().max_ops / 8;
    let sample_uops =
        da.len() as f64 * (bench.options().warmup_ops + bench.options().max_ops) as f64;
    if want("obs_disabled_sampled_matrix") || want("obs_recorder_sampled_matrix") {
        eprintln!("dc-bench: observability overhead (sampled DA matrix)");
    }
    if want("obs_disabled_sampled_matrix") {
        let disabled = time_ms(|| {
            for &id in da {
                bench.run_intervals(id, every);
            }
        });
        push("obs_disabled_sampled_matrix", disabled, sample_uops, 1);
    }

    if want("obs_recorder_sampled_matrix") {
        let recording = bench
            .clone()
            .with_recorder(Recorder::jsonl(std::io::sink()));
        let recorded = time_ms(|| {
            for &id in da {
                recording.run_intervals(id, every);
            }
        });
        push("obs_recorder_sampled_matrix", recorded, sample_uops, 1);
    }

    // Metrics-registry overhead: the cold parallel matrix with the
    // global registry switched off (must cost nothing — gates against
    // its baseline). The registry is on by default, so
    // `full_matrix_parallel` is the enabled side of the pair. The
    // matrix crosses every instrumented path: cache counters per
    // lookup, pool gauges per parallel_map, simulator phase counters
    // per run.
    if want("metrics_disabled") {
        eprintln!("dc-bench: metrics-registry overhead (cold parallel matrix)");
        dc_obs::metrics::global().set_enabled(false);
        cache::clear();
        let off = time_ms(|| {
            bench.run_all();
        });
        dc_obs::metrics::global().set_enabled(true);
        push("metrics_disabled", off, uops, jobs);
    }

    // Sensitivity-sweep path: the eleven DA workloads along a two-point
    // L3 axis (half / paper-size), cold and then from the warm counter
    // cache. The cold pass is the per-axis cost unit EXPERIMENTS.md
    // quotes for Exhibit SW; the warm pass pins sweep regeneration to
    // cache-lookup speed.
    let axis = [sweep::SweepAxis::l3_bytes(vec![6 << 20, 12 << 20])];
    let sweep_uops = 2.0 * sample_uops;
    let mut sweep_warm = false;
    if want("sweep_l3_axis") {
        eprintln!("dc-bench: sensitivity sweep (L3 axis, 11 DA workloads)");
        cache::clear();
        let swept = time_ms(|| {
            sweep::run(&bench, da, &axis).expect("valid L3 grid");
        });
        push("sweep_l3_axis", swept, sweep_uops, jobs);
        sweep_warm = true;
    }

    if want("sweep_l3_cached") {
        if !sweep_warm {
            cache::clear();
            sweep::run(&bench, da, &axis).expect("valid L3 grid");
        }
        let swept_warm = time_ms(|| {
            sweep::run(&bench, da, &axis).expect("valid L3 grid");
        });
        push("sweep_l3_cached", swept_warm, sweep_uops, jobs);
    }

    // Same sweep through the persistent store: the cold pass simulates
    // everything and writes through (simulation + append + fsync cost);
    // the warm pass restarts with an empty memo and regenerates the
    // grid entirely from recovered store records — the cross-process
    // warm-start cost EXPERIMENTS.md quotes.
    if want("sweep_l3_store_cold") || want("sweep_l3_store_warm") {
        eprintln!("dc-bench: sensitivity sweep through the persistent store");
        let store_dir = std::env::temp_dir().join(format!("dc_bench_store_{}", std::process::id()));
        std::fs::create_dir_all(&store_dir).expect("mkdir store dir");
        let store_path = store_dir.join("bench_store.log");
        let quiet = Recorder::disabled();
        cache::clear();
        cache::attach_store(&store_path, &quiet).expect("open fresh store");
        if want("sweep_l3_store_cold") {
            let store_cold = time_ms(|| {
                sweep::run(&bench, da, &axis).expect("valid L3 grid");
            });
            push("sweep_l3_store_cold", store_cold, sweep_uops, jobs);
        } else {
            // Populate the store untimed so the warm pass has records.
            sweep::run(&bench, da, &axis).expect("valid L3 grid");
        }

        if want("sweep_l3_store_warm") {
            cache::clear();
            let store_warm = time_ms(|| {
                cache::attach_store(&store_path, &quiet).expect("reopen populated store");
                sweep::run(&bench, da, &axis).expect("valid L3 grid");
            });
            assert_eq!(
                cache::sim_invocations(),
                0,
                "a populated store must regenerate the sweep without simulating"
            );
            push("sweep_l3_store_warm", store_warm, sweep_uops, jobs);
        }
        cache::detach_store();
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    // Workload-subsetting pipeline (Exhibit SS): the eleven DA
    // workloads characterized, z-scored, PCA'd, clustered and rendered
    // — cold, then from the warm memo cache. The warm pass must
    // simulate nothing: it is the pure linear-algebra + render cost a
    // warm daemon pays per `subset` request.
    let window_name = if quick { "quick" } else { "full" };
    let mut subset_warm_ready = false;
    if want("subset_cold") {
        eprintln!("dc-bench: workload subsetting (Exhibit SS, 11 DA workloads)");
        cache::clear();
        let cold = time_ms(|| {
            let sub = dcbench::report::subset_exhibit(&bench, 4, dcbench::stats::Linkage::Complete);
            let _ = sub.to_json(window_name, bench.seed());
        });
        push("subset_cold", cold, sample_uops, jobs);
        subset_warm_ready = true;
    }
    if want("subset_warm") {
        if !subset_warm_ready {
            cache::clear();
            dcbench::report::subset_exhibit(&bench, 4, dcbench::stats::Linkage::Complete);
        }
        let sims_before = cache::sim_invocations();
        let warm = time_ms(|| {
            let sub = dcbench::report::subset_exhibit(&bench, 4, dcbench::stats::Linkage::Complete);
            let _ = sub.to_json(window_name, bench.seed());
        });
        assert_eq!(
            cache::sim_invocations(),
            sims_before,
            "a warm memo cache must regenerate the subset without simulating"
        );
        push("subset_warm", warm, sample_uops, jobs);
    }

    // Store recovery: `dc_store::recover` over a fixed 28-record log
    // built in memory (the cold matrix's 26 solo cells and two 4-core
    // co-runs), the read half of a warm start. No disk I/O: frame
    // checks and payload parsing only. Repeated so the entry is not a
    // sub-millisecond reading.
    if want("store_recover") {
        eprintln!("dc-bench: store recovery (28-record log in memory)");
        let log = recovery_log(&bench);
        const REPS: usize = 200;
        let recovered = time_ms(|| {
            for _ in 0..REPS {
                let recovery = dc_store::recover(std::hint::black_box(&log));
                assert_eq!(recovery.records.len(), 28, "every framed record recovers");
            }
        });
        push("store_recover", recovered, (REPS * 28) as f64, 1);
    }

    // Daemon request throughput: an in-process `dc-server` on an
    // ephemeral TCP port, four concurrent clients each pushing warm
    // submit+stream rounds end to end (accept → parse → queue →
    // executor → memo-cache hit → event replay → final response). A
    // cold warm-up submission first, so the timed rounds simulate
    // nothing and the number is pure protocol + scheduling cost.
    if want("server_throughput") {
        eprintln!("dc-bench: dc-server request throughput (warm submit+stream over TCP)");
        let server = dc_server::Server::start(dc_server::ServerConfig {
            workers: jobs,
            queue_cap: 256,
            recorder: Recorder::disabled(),
            ..dc_server::ServerConfig::default()
        });
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("bound address");
        {
            let server = server.clone();
            std::thread::spawn(move || server.serve_listener(&listener));
        }
        server_client(addr, 0, 1); // cold warm-up: the one simulated round
        const SERVER_CLIENTS: usize = 4;
        const SERVER_ROUNDS: usize = 8;
        let served = time_ms(|| {
            let handles: Vec<_> = (1..=SERVER_CLIENTS)
                .map(|c| std::thread::spawn(move || server_client(addr, c, SERVER_ROUNDS)))
                .collect();
            for h in handles {
                h.join().expect("bench client thread");
            }
        });
        push(
            "server_throughput",
            served,
            (SERVER_CLIENTS * SERVER_ROUNDS) as f64,
            SERVER_CLIENTS,
        );
        server.begin_shutdown();
        server.wait();
    }

    entries
}

/// The `store_recover` log: a generation header, one record per
/// benchmark entry and two 4-core Sort/Grep co-runs, with
/// pseudo-random counters of up to nine digits.
fn recovery_log(bench: &Characterizer) -> Vec<u8> {
    let header = format!(
        "{{\"format\":\"{}\",\"gen\":\"{}\"}}",
        dc_store::FORMAT_VERSION,
        dc_store::FIRST_GENERATION
    );
    let mut log = dc_store::frame_line(b'h', &header);
    let cells = dcbench::BenchmarkId::all()
        .iter()
        .map(|&id| (id, 1u32))
        .chain([
            (dcbench::BenchmarkId::Sort, 4),
            (dcbench::BenchmarkId::Grep, 4),
        ]);
    for (n, (id, corun)) in cells.enumerate() {
        let counts = (0..corun as usize)
            .map(|core| {
                let mut fields = [0u64; dc_store::COUNTER_FIELDS];
                for (f, v) in fields.iter_mut().enumerate() {
                    *v = dc_mapreduce::faults::splitmix64(((n * 8 + core) * 64 + f) as u64) >> 37;
                }
                dc_store::counts_from_array(&fields)
            })
            .collect();
        let record = dc_store::Record {
            key: dc_store::StoreKey {
                entry: id.name().to_string(),
                cfg_hash: dc_mapreduce::faults::splitmix64(n as u64),
                max_ops: bench.options().max_ops,
                warmup_ops: bench.options().warmup_ops,
                seed: bench.seed() + n as u64,
                corun,
                sample: None,
            },
            counts,
        };
        log.extend(dc_store::frame_line(
            b'r',
            &dc_store::encode_payload(&record),
        ));
    }
    log
}

/// One `server_throughput` client: `rounds` identical warm submissions
/// over a single connection, each followed to completion with `stream`
/// (blocks until the job is done — no sleep-polling in the timed path).
fn server_client(addr: std::net::SocketAddr, client: usize, rounds: usize) {
    let mut conn = Client::connect(addr, &format!("bench-c{client}-")).expect("connect dc-server");
    for _ in 0..rounds {
        let accepted = conn
            .submit("{\"entries\":[\"Sort\",\"Grep\"],\"window\":\"quick\",\"seed\":704}")
            .expect("submit reply");
        let job = match accepted.result_str("job") {
            Some(job) if accepted.is_ok() => job,
            _ => panic!("submit rejected: {}", accepted.raw),
        };
        let last = conn.stream(job, |_| {}).expect("stream reply");
        assert!(
            last.is_ok() && last.result_str("state") == Some("done"),
            "job did not finish cleanly: {}",
            last.raw
        );
    }
}

/// Mirror the run into `BENCH_<label>.events.jsonl` as `dc-obs` events,
/// so the bench harness itself exercises (and CI validates) the
/// documented event schema. Timestamps are entry indices: the wall
/// clock is already in the fields, and index timestamps keep the
/// artifact deterministic in shape.
fn write_events_jsonl(path: &str, opts: &Options, entries: &[BenchEntry]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let recorder = Recorder::jsonl(std::io::BufWriter::new(file));
    recorder.emit(
        0,
        "bench_run_start",
        vec![
            ("label", Value::str(opts.label.as_str())),
            (
                "window",
                Value::str(if opts.quick { "quick" } else { "full" }),
            ),
            ("jobs", Value::U64(pool::jobs() as u64)),
        ],
    );
    for (i, e) in entries.iter().enumerate() {
        recorder.emit(
            i as u64 + 1,
            "bench_entry",
            vec![
                ("name", Value::str(e.name)),
                ("wall_ms", Value::F64(e.wall_ms)),
                ("uops_per_s", Value::F64(e.uops_per_s)),
                ("threads", Value::U64(e.threads as u64)),
            ],
        );
    }
    recorder.emit(
        entries.len() as u64 + 1,
        "bench_run_end",
        vec![("entries", Value::U64(entries.len() as u64))],
    );
    recorder.flush();
    Ok(())
}

fn render_json(label: &str, quick: bool, entries: &[BenchEntry]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    out.push_str("  \"label\": ");
    write_json_string(&mut out, label);
    out.push_str(",\n");
    let _ = writeln!(
        out,
        "  \"window\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(out, "  \"jobs\": {},", pool::jobs());
    let _ = writeln!(out, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"uops_per_s\": {:.1}, \"threads\": {}}}{comma}",
            e.name, e.wall_ms, e.uops_per_s, e.threads
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Parse the (name, wall_ms) pairs of the `entries` array of a
/// `BENCH_*.json` emitted by this harness.
fn parse_baseline(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = parse_json(text)?;
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        return Err("no \"entries\" array".to_string());
    };
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| match (e.get("name"), e.get("wall_ms")) {
            (Some(Json::Str(name)), Some(Json::Num(wall))) => Ok((name.clone(), *wall)),
            _ => Err(format!("entry {i} lacks a string name or numeric wall_ms")),
        })
        .collect()
}

/// Absolute grace on top of the ratio gate, so sub-millisecond entries
/// (the warm-cache pass) cannot trip on scheduler noise.
const GATE_SLACK_MS: f64 = 50.0;

/// Name prefixes of the entries the baseline gates. The engine,
/// cluster-model and `obs_recorder_*` entries are informational only —
/// the contract is that the *disabled* instrumentation paths stay
/// free, not that instrumentation is.
const GATED_PREFIXES: &[&str] = &[
    "full_matrix",
    "chip_",
    "sweep_",
    "subset_",
    "server_",
    "obs_disabled",
    "metrics_disabled",
];

/// Compare every gated entry against the baseline; returns the list of
/// human-readable failures. A gated entry the baseline does not list is
/// a failure too, so a renamed or new entry cannot escape the gate.
fn regressions(current: &[BenchEntry], baseline: &[(String, f64)], tolerance: f64) -> Vec<String> {
    let mut bad = Vec::new();
    for e in current
        .iter()
        .filter(|e| GATED_PREFIXES.iter().any(|p| e.name.starts_with(p)))
    {
        let Some((_, base_ms)) = baseline.iter().find(|(n, _)| n == e.name) else {
            bad.push(format!(
                "{}: gated entry has no baseline line (add one to the baseline file)",
                e.name
            ));
            continue;
        };
        let limit = base_ms * (1.0 + tolerance) + GATE_SLACK_MS;
        if e.wall_ms > limit {
            bad.push(format!(
                "{}: {:.1} ms vs baseline {:.1} ms (> {:.0}% over)",
                e.name,
                e.wall_ms,
                base_ms,
                tolerance * 100.0
            ));
        }
    }
    bad
}

fn main() -> ExitCode {
    let opts = parse_args();
    let entries = run_entries(opts.quick, opts.only.as_deref());
    if entries.is_empty() {
        eprintln!(
            "dc-bench: --only '{}' matched no entries",
            opts.only.as_deref().unwrap_or("")
        );
        return ExitCode::from(2);
    }
    let json = render_json(&opts.label, opts.quick, &entries);

    let path = format!("{}/BENCH_{}.json", opts.out_dir, opts.label);
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("dc-bench: cannot write {path}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("dc-bench: wrote {path}");

    let events_path = format!("{}/BENCH_{}.events.jsonl", opts.out_dir, opts.label);
    if let Err(e) = write_events_jsonl(&events_path, &opts, &entries) {
        eprintln!("dc-bench: cannot write {events_path}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("dc-bench: wrote {events_path}");

    let seq = entries.iter().find(|e| e.name == "full_matrix_sequential");
    let par = entries.iter().find(|e| e.name == "full_matrix_parallel");
    if let (Some(seq), Some(par)) = (seq, par) {
        if par.wall_ms > 0.0 {
            eprintln!(
                "dc-bench: parallel speedup {:.2}x on {} worker(s)",
                seq.wall_ms / par.wall_ms,
                par.threads
            );
        }
    }

    if let Some(baseline_path) = &opts.baseline {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("dc-bench: cannot read baseline {baseline_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let baseline = match parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("dc-bench: cannot parse baseline {baseline_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let bad = regressions(&entries, &baseline, opts.tolerance);
        if !bad.is_empty() {
            for b in &bad {
                eprintln!("dc-bench: REGRESSION {b}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!(
            "dc-bench: no gated regression vs {baseline_path} (tolerance {:.0}%)",
            opts.tolerance * 100.0
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_through_the_baseline_parser() {
        let entries = vec![
            BenchEntry {
                name: "full_matrix_sequential",
                wall_ms: 1234.5,
                uops_per_s: 2.5e6,
                threads: 1,
            },
            BenchEntry {
                name: "full_matrix_parallel",
                wall_ms: 321.0,
                uops_per_s: 9.6e6,
                threads: 4,
            },
        ];
        // A label with JSON metacharacters still yields a parsable file.
        let label = "ci \"nightly\" \\ run";
        let json = render_json(label, true, &entries);
        let doc = parse_json(&json).expect("rendered report parses");
        assert_eq!(doc.get("label"), Some(&Json::Str(label.to_string())));
        let parsed = parse_baseline(&json).expect("baseline parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "full_matrix_sequential");
        assert!((parsed[0].1 - 1234.5).abs() < 1e-9);
        assert!((parsed[1].1 - 321.0).abs() < 1e-9);
        assert!(parse_baseline("{\"entries\": [{\"name\": \"x\"}]}").is_err());
        assert!(parse_baseline("not json").is_err());

        // The committed baseline: unique names, positive wall-clocks, and
        // no line for an entry this harness no longer emits.
        let committed = parse_baseline(include_str!("../../../../BENCH_baseline.json"))
            .expect("committed baseline parses");
        assert!(!committed.is_empty());
        for (i, (name, wall_ms)) in committed.iter().enumerate() {
            assert!(*wall_ms > 0.0, "{name}: wall_ms {wall_ms}");
            assert!(
                committed[..i].iter().all(|(n, _)| n != name),
                "duplicate baseline line {name}"
            );
        }
        for gone in ["full_matrix_soa", "metrics_enabled_matrix"] {
            assert!(committed.iter().all(|(n, _)| n != gone), "{gone}");
        }
    }

    #[test]
    fn field_extractors() {
        let line = r#"{"name": "x", "wall_ms": 12.5, "uops_per_s": 1e3, "threads": 2}"#;
        let entry = parse_json(line).expect("entry parses");
        assert_eq!(entry.get("name"), Some(&Json::Str("x".to_string())));
        assert_eq!(entry.get("wall_ms"), Some(&Json::Num(12.5)));
        assert_eq!(entry.get("threads"), Some(&Json::Num(2.0)));
        assert_eq!(entry.get("missing"), None);
        let parsed =
            parse_baseline(&format!("{{\"entries\": [{line}]}}")).expect("baseline parses");
        assert_eq!(parsed, vec![("x".to_string(), 12.5)]);
    }

    #[test]
    fn regression_gate_trips_only_past_tolerance() {
        let current = vec![BenchEntry {
            name: "full_matrix_parallel",
            wall_ms: 1400.0,
            uops_per_s: 0.0,
            threads: 4,
        }];
        let baseline = vec![("full_matrix_parallel".to_string(), 1000.0)];
        assert_eq!(regressions(&current, &baseline, 0.25).len(), 1);
        assert!(regressions(&current, &baseline, 0.5).is_empty());
        // Sub-slack entries (the warm-cache pass) never trip on noise.
        let tiny = vec![BenchEntry {
            name: "full_matrix_cached",
            wall_ms: 3.0,
            uops_per_s: 0.0,
            threads: 4,
        }];
        let tiny_base = vec![("full_matrix_cached".to_string(), 0.2)];
        assert!(regressions(&tiny, &tiny_base, 0.25).is_empty());
        // Non-matrix entries never gate.
        let engine = vec![BenchEntry {
            name: "engine_wordcount_256k",
            wall_ms: 900.0,
            uops_per_s: 0.0,
            threads: 4,
        }];
        let engine_base = vec![("engine_wordcount_256k".to_string(), 1.0)];
        assert!(regressions(&engine, &engine_base, 0.25).is_empty());
        // Chip co-run entries gate like the matrix ones.
        let chip = vec![BenchEntry {
            name: "chip_corun_sort_x4",
            wall_ms: 2000.0,
            uops_per_s: 0.0,
            threads: 1,
        }];
        let chip_base = vec![("chip_corun_sort_x4".to_string(), 1000.0)];
        assert_eq!(regressions(&chip, &chip_base, 0.25).len(), 1);
        assert!(regressions(&chip, &chip_base, 1.5).is_empty());
        // Sweep entries gate like the matrix ones.
        let swept = vec![BenchEntry {
            name: "sweep_l3_axis",
            wall_ms: 3000.0,
            uops_per_s: 0.0,
            threads: 4,
        }];
        let swept_base = vec![("sweep_l3_axis".to_string(), 1000.0)];
        assert_eq!(regressions(&swept, &swept_base, 0.25).len(), 1);
        assert!(regressions(&swept, &swept_base, 2.5).is_empty());
        // Subsetting entries gate like the matrix ones.
        let subsetting = vec![BenchEntry {
            name: "subset_cold",
            wall_ms: 3000.0,
            uops_per_s: 0.0,
            threads: 4,
        }];
        let subsetting_base = vec![("subset_cold".to_string(), 1000.0)];
        assert_eq!(regressions(&subsetting, &subsetting_base, 0.25).len(), 1);
        assert!(regressions(&subsetting, &subsetting_base, 2.5).is_empty());
        // Daemon throughput gates like the matrix ones.
        let daemon = vec![BenchEntry {
            name: "server_throughput",
            wall_ms: 2000.0,
            uops_per_s: 0.0,
            threads: 4,
        }];
        let daemon_base = vec![("server_throughput".to_string(), 1000.0)];
        assert_eq!(regressions(&daemon, &daemon_base, 0.25).len(), 1);
        assert!(regressions(&daemon, &daemon_base, 1.5).is_empty());
        // The recorder-disabled path gates; the recording path is
        // informational only.
        let obs = vec![
            BenchEntry {
                name: "obs_disabled_sampled_matrix",
                wall_ms: 2000.0,
                uops_per_s: 0.0,
                threads: 1,
            },
            BenchEntry {
                name: "obs_recorder_sampled_matrix",
                wall_ms: 9000.0,
                uops_per_s: 0.0,
                threads: 1,
            },
        ];
        let obs_base = vec![
            ("obs_disabled_sampled_matrix".to_string(), 1000.0),
            ("obs_recorder_sampled_matrix".to_string(), 1000.0),
        ];
        let bad = regressions(&obs, &obs_base, 0.25);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("obs_disabled_sampled_matrix"));
        // The metrics-registry-disabled path gates too.
        let metrics = vec![BenchEntry {
            name: "metrics_disabled",
            wall_ms: 2000.0,
            uops_per_s: 0.0,
            threads: 4,
        }];
        let metrics_base = vec![("metrics_disabled".to_string(), 1000.0)];
        let bad = regressions(&metrics, &metrics_base, 0.25);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("metrics_disabled"));
        // A gated entry the baseline does not list fails the gate; an
        // informational one without a line does not.
        let unlisted = vec![
            BenchEntry {
                name: "sweep_l3_renamed",
                wall_ms: 1.0,
                uops_per_s: 0.0,
                threads: 1,
            },
            BenchEntry {
                name: "engine_new_path",
                wall_ms: 1.0,
                uops_per_s: 0.0,
                threads: 1,
            },
        ];
        let bad = regressions(&unlisted, &metrics_base, 0.25);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("sweep_l3_renamed") && bad[0].contains("no baseline line"));
    }

    #[test]
    fn run_metadata_events_satisfy_the_documented_schema() {
        let dir = std::env::temp_dir().join("dc_bench_events_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let opts = Options {
            label: "schema-test".to_string(),
            quick: true,
            baseline: None,
            tolerance: 0.25,
            out_dir: dir.to_string_lossy().into_owned(),
            only: None,
        };
        let entries = vec![BenchEntry {
            name: "full_matrix_sequential",
            wall_ms: 12.5,
            uops_per_s: 1e6,
            threads: 1,
        }];
        let path = format!("{}/BENCH_{}.events.jsonl", opts.out_dir, opts.label);
        write_events_jsonl(&path, &opts, &entries).expect("write events");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(dc_benches::schema::validate_stream(&text), Ok(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn only_prefix_filter_selects_by_name_prefix() {
        // No filter: everything runs.
        assert!(selected("full_matrix_sequential", None));
        assert!(selected("server_throughput", None));
        // Exact name and shared prefixes both match.
        assert!(selected(
            "full_matrix_sequential",
            Some("full_matrix_sequential")
        ));
        assert!(selected("full_matrix_sequential", Some("full_matrix")));
        assert!(selected("full_matrix_parallel", Some("full_matrix")));
        assert!(selected("sweep_l3_store_warm", Some("sweep_")));
        // Non-matching prefixes exclude.
        assert!(!selected("server_throughput", Some("full_matrix")));
        assert!(!selected("full_matrix_cached", Some("full_matrix_seq")));
        // The empty prefix matches everything (same as no filter).
        assert!(selected("chip_corun_sort_x4", Some("")));
    }
}
