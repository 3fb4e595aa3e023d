//! The memoizing result cache: a second characterization of the same
//! `(entry, config, window, seed)` key must do zero simulation work.
//!
//! Kept in its own integration binary so the process-wide
//! simulation-invocation counter is not perturbed by concurrent tests;
//! the tests inside this binary serialize on one mutex for the same
//! reason.

use dc_cpu::{core::SimOptions, CpuConfig};
use dc_obs::Recorder;
use dcbench::{cache, BenchmarkId, Characterizer};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn clear_resets_telemetry_counters_with_the_memo() {
    // Regression: clear() used to drop the memo table but leave the
    // hit/miss/sim counters running, so any assertion phrased against
    // absolute counter values depended on which tests ran earlier in
    // the binary. Counters are cache telemetry; they reset with it.
    let _guard = serial();
    let c = Characterizer::new(
        CpuConfig::westmere_e5645(),
        SimOptions::exact(50_000, 20_000),
        0xC1EA_4000,
    );
    let _ = c.run(BenchmarkId::Sort); // miss
    let _ = c.run(BenchmarkId::Sort); // hit
    assert!(cache::sim_invocations() > 0);
    assert!(cache::cache_hits() > 0);
    cache::clear();
    assert_eq!(cache::sim_invocations(), 0, "clear() resets sim counter");
    assert_eq!(cache::cache_hits(), 0, "clear() resets hit counter");
    assert_eq!(cache::store_hits(), 0);
    assert_eq!(cache::store_misses(), 0);
    assert_eq!(cache::store_write_errors(), 0);
    assert_eq!(cache::len(), 0);
    // And the post-clear world behaves like a fresh process: the same
    // key is cold again, with counters counting from zero.
    let _ = c.run(BenchmarkId::Sort);
    assert_eq!(cache::sim_invocations(), 1);
    assert_eq!(cache::cache_hits(), 0);
    cache::clear();
}

#[test]
fn second_run_of_same_entry_does_zero_simulation_work() {
    let _guard = serial();
    let c = Characterizer::new(
        CpuConfig::westmere_e5645(),
        SimOptions::exact(50_000, 20_000),
        0xCAFE_2013,
    );

    let before = cache::sim_invocations();
    let first = c.run(BenchmarkId::Sort);
    let after_first = cache::sim_invocations();
    assert_eq!(after_first - before, 1, "cold run simulates exactly once");

    let hits_before = cache::cache_hits();
    let second = c.run(BenchmarkId::Sort);
    assert_eq!(
        cache::sim_invocations(),
        after_first,
        "warm run must not simulate"
    );
    assert_eq!(cache::cache_hits(), hits_before + 1);
    assert_eq!(first, second);

    // The raw-counts and events views share the same cached block.
    let _ = c.raw_counts(BenchmarkId::Sort);
    let _ = c.run_with_events(BenchmarkId::Sort);
    assert_eq!(
        cache::sim_invocations(),
        after_first,
        "all read paths share one cached block"
    );

    // A different window is a different key: it simulates again.
    let longer = Characterizer::new(
        CpuConfig::westmere_e5645(),
        SimOptions::exact(60_000, 20_000),
        0xCAFE_2013,
    );
    let _ = longer.run(BenchmarkId::Sort);
    assert_eq!(cache::sim_invocations(), after_first + 1);

    // So is a different machine config, even at the same window.
    let fatter_l3 = Characterizer::new(
        CpuConfig::westmere_e5645()
            .try_with_l3_bytes(24 << 20)
            .expect("a whole number of L3 sets"),
        SimOptions::exact(50_000, 20_000),
        0xCAFE_2013,
    );
    let _ = fatter_l3.run(BenchmarkId::Sort);
    assert_eq!(cache::sim_invocations(), after_first + 2);

    // The uncached escape hatch always simulates (and counts).
    let _ = c.run_uncached(BenchmarkId::Sort);
    assert_eq!(cache::sim_invocations(), after_first + 3);

    // run_all over a warm matrix costs zero additional simulations.
    dcbench::cache::clear();
    let cold = cache::sim_invocations();
    let _ = c.run_all();
    let warmed = cache::sim_invocations();
    assert_eq!(warmed - cold, BenchmarkId::all().len() as u64);
    let _ = c.run_all();
    assert_eq!(
        cache::sim_invocations(),
        warmed,
        "warm matrix re-simulates nothing"
    );

    // The same telemetry, as dc-obs events: a recorder-attached harness
    // emits one cache_miss per real cached simulation, one cache_hit
    // per satisfied lookup and one sim_uncached per cache bypass —
    // event totals must mirror the lifetime counters' deltas exactly.
    let (recorder, ring) = Recorder::ring(1024);
    let observed = Characterizer::new(
        CpuConfig::westmere_e5645(),
        SimOptions::exact(50_000, 20_000),
        0x0BCA_FE01, // a seed no other test uses: all-cold keys
    )
    .with_recorder(recorder);
    let sims_before = cache::sim_invocations();
    let hits_before = cache::cache_hits();
    let _ = observed.run(BenchmarkId::Sort); // miss
    let _ = observed.run(BenchmarkId::Sort); // hit
    let _ = observed.run(BenchmarkId::Grep); // miss
    let _ = observed.corun(BenchmarkId::Sort, 2); // miss (new width)
    let _ = observed.corun(BenchmarkId::Sort, 2); // hit
    let _ = observed.run_uncached(BenchmarkId::Sort); // uncached simulation
    let miss_events = ring.count_kind("cache_miss") as u64;
    let hit_events = ring.count_kind("cache_hit") as u64;
    let uncached_events = ring.count_kind("sim_uncached") as u64;
    assert_eq!(miss_events, 3);
    assert_eq!(hit_events, 2);
    assert_eq!(uncached_events, 1);
    assert_eq!(
        cache::sim_invocations() - sims_before,
        miss_events + uncached_events,
        "every simulation surfaced as a cache_miss or sim_uncached event"
    );
    assert_eq!(
        cache::cache_hits() - hits_before,
        hit_events,
        "every cache hit surfaced as a cache_hit event"
    );
    assert_eq!(ring.dropped(), 0, "ring was sized for the whole stream");
}

#[test]
fn registry_metrics_and_accessors_are_one_source_of_truth() {
    // Regression for the metrics promotion: the cache's telemetry
    // accessors used to be private atomics that could (in principle)
    // drift from whatever a metrics exporter reported. They now *are*
    // the `dcbench_*_total` counters in the process-wide registry, so
    // the accessor view, the registry snapshot and the event stream
    // must agree after any cold-then-warm sequence.
    let _guard = serial();
    cache::clear();
    let reg = dc_obs::metrics::global();
    let lookup = |name: &str| -> u64 {
        match reg.snapshot().get(name).map(|m| m.value.clone()) {
            Some(dc_obs::metrics::MetricValue::Counter(v)) => v,
            other => panic!("{name}: expected a counter, got {other:?}"),
        }
    };

    let (recorder, ring) = Recorder::ring(1024);
    let c = Characterizer::new(
        CpuConfig::westmere_e5645(),
        SimOptions::exact(50_000, 20_000),
        0x0BCA_FE02, // a seed no other test uses: all-cold keys
    )
    .with_recorder(recorder);
    let _ = c.run(BenchmarkId::Sort); // cold: simulates
    let _ = c.run(BenchmarkId::Grep); // cold: simulates
    let _ = c.run(BenchmarkId::Sort); // warm: pure hit
    let _ = c.run(BenchmarkId::Grep); // warm: pure hit

    // Accessors == registry counters, name for name.
    assert_eq!(cache::sim_invocations(), lookup("dcbench_sim_runs_total"));
    assert_eq!(cache::cache_hits(), lookup("dcbench_cache_hits_total"));
    assert_eq!(cache::store_hits(), lookup("dcbench_store_hits_total"));
    assert_eq!(cache::store_misses(), lookup("dcbench_store_misses_total"));
    assert_eq!(
        cache::store_write_errors(),
        lookup("dcbench_store_write_errors_total")
    );
    // Registry counters == event stream (cleared above, so absolute).
    assert_eq!(lookup("dcbench_sim_runs_total"), 2);
    assert_eq!(lookup("dcbench_cache_hits_total"), 2);
    assert_eq!(ring.count_kind("cache_miss") as u64, 2);
    assert_eq!(ring.count_kind("cache_hit") as u64, 2);

    // clear() zeroes the registry values too — phase boundaries reset
    // every view at once.
    cache::clear();
    assert_eq!(lookup("dcbench_sim_runs_total"), 0);
    assert_eq!(lookup("dcbench_cache_hits_total"), 0);
    assert_eq!(cache::sim_invocations(), 0);
}
