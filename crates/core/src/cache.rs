//! Process-wide memoizing cache for characterization results.
//!
//! Every exhibit is a pure function of `(benchmark entry, machine
//! config, measurement window, seed)`: the synthetic trace is seeded,
//! the core model is deterministic, so the measured [`PerfCounts`]
//! block for a given key never changes. Regenerating several figures
//! in one process (`characterize_all -- fig3 fig7 fig9`, the report
//! tests, the bench harness) used to re-simulate the same ~3.2 M-µop
//! window once per figure; the cache collapses that to once per key.
//!
//! Raw *counter blocks* are cached, not derived [`Metrics`] rows, so
//! `run`, `run_with_events` and `raw_counts` all share hits.
//!
//! The memo dies with the process; [`attach_store`] extends it across
//! processes by binding a `dc-store` append-only log: recovery seeds
//! the table at attach (every hit on a preloaded key is a `store_hit`),
//! and every subsequent miss writes through so the *next* process
//! starts warm. `DCBENCH_STORE=<path>` is the shared opt-in switch
//! ([`attach_from_env`]) used by `characterize_all` and `sweeps`.
//!
//! [`Metrics`]: dc_perfmon::Metrics

use crate::registry::BenchmarkId;
use dc_cpu::{core::SimOptions, CpuConfig, PerfCounts, SamplePlan};
use dc_obs::metrics::{self, Counter};
use dc_obs::{Recorder, Value};
use dc_store::{CompactStats, Record, Store, StoreKey};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Complete identity of one characterization measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The benchmark entry measured.
    pub id: BenchmarkId,
    /// [`CpuConfig::stable_hash`] of the simulated machine.
    pub cfg_hash: u64,
    /// Measured-window µops.
    pub max_ops: u64,
    /// Warm-up µops.
    pub warmup_ops: u64,
    /// Per-entry trace seed (already mixed with the entry id).
    pub seed: u64,
    /// Co-run width: how many copies of the entry shared the chip's L3
    /// (1 = the classic solo measurement). Part of the key because the
    /// same entry under contention produces different counters.
    pub corun: u32,
    /// The SMARTS sampling plan the window ran under, `None` for exact
    /// cycle-accurate simulation. Part of the key because sampled
    /// counters are extrapolations: a sampled block must never satisfy
    /// an exact lookup (or vice versa), and two different plans
    /// extrapolate differently.
    pub sample: Option<SamplePlan>,
}

impl CacheKey {
    /// Build the key for one solo entry under one harness configuration.
    pub fn new(id: BenchmarkId, cfg: &CpuConfig, opts: &SimOptions, seed: u64) -> Self {
        CacheKey {
            id,
            cfg_hash: cfg.stable_hash(),
            max_ops: opts.max_ops,
            warmup_ops: opts.warmup_ops,
            seed,
            corun: 1,
            sample: opts.sample,
        }
    }

    /// The same measurement at a different co-run width.
    pub fn with_corun(mut self, corun: u32) -> Self {
        self.corun = corun;
        self
    }
}

/// The cache's lifetime counters, registered once in the process-wide
/// metrics registry ([`dc_obs::metrics::global`]).
///
/// These used to be private `AtomicU64` statics mirrored into telemetry
/// events by hand; promoting them to registry counters means the
/// `stats` verb, the text exposition and the [`sim_invocations`]-style
/// accessors all read the *same cells* the hot path increments — event
/// counts and metric counters cannot disagree, because there is exactly
/// one increment site for both (`emit_lookup` and friends).
struct CacheMetrics {
    /// Simulations actually executed (cache misses + uncached runs):
    /// `dcbench_sim_runs_total`.
    sims: Counter,
    /// Lookups satisfied without simulating: `dcbench_cache_hits_total`.
    hits: Counter,
    /// Lookups satisfied by records preloaded from a persistent store:
    /// `dcbench_store_hits_total`.
    store_hits: Counter,
    /// Simulated misses that happened while a store was attached (each
    /// one became a write-through append): `dcbench_store_misses_total`.
    store_misses: Counter,
    /// Write-through appends that failed at the I/O layer. The store is
    /// an amortization layer, not a system of record, so append errors
    /// degrade to "this record won't warm the next run" rather than
    /// failing the measurement — but they are counted, never swallowed
    /// invisibly: `dcbench_store_write_errors_total`.
    write_errors: Counter,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = metrics::global();
        CacheMetrics {
            sims: reg.counter("dcbench_sim_runs_total", &[]),
            hits: reg.counter("dcbench_cache_hits_total", &[]),
            store_hits: reg.counter("dcbench_store_hits_total", &[]),
            store_misses: reg.counter("dcbench_store_misses_total", &[]),
            write_errors: reg.counter("dcbench_store_write_errors_total", &[]),
        }
    })
}

/// All mutable cache state, under **one** mutex.
///
/// The memo table, the preloaded-key set, and the attached store handle
/// used to live behind three separate locks, which made
/// [`attach_store`] racy against parallel workers: a worker could miss,
/// simulate, and check the (not-yet-installed) store handle while the
/// attach was still seeding the memo table — leaving that measurement
/// memoized but never written through, so the *next* process started
/// cold on it. With a single lock, an attach observes either the state
/// strictly before a miss's insertion (and catches the entry up itself)
/// or strictly after it (and the miss sees the installed handle); there
/// is no in-between. `tests/cache_attach_race.rs` pins the resulting
/// invariant: after any attach, every memoized measurement is durable.
struct CacheState {
    /// The memo table: measured counter blocks by key.
    memo: HashMap<CacheKey, Vec<PerfCounts>>,
    /// Keys whose memo entry was preloaded from a persistent store —
    /// hits on these are `store_hit`s (the measurement crossed a
    /// process boundary), hits on everything else are plain
    /// `cache_hit`s.
    from_store: HashSet<CacheKey>,
    /// The attached persistent store handle, if any (write-through
    /// target).
    store: Option<Store>,
}

fn state() -> &'static Mutex<CacheState> {
    static STATE: OnceLock<Mutex<CacheState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(CacheState {
            memo: HashMap::new(),
            from_store: HashSet::new(),
            store: None,
        })
    })
}

fn lock() -> MutexGuard<'static, CacheState> {
    // Cache payloads are plain counter blocks; a panicking simulation
    // never holds the lock, but recover from poisoning regardless.
    state().lock().unwrap_or_else(|p| p.into_inner())
}

/// The on-disk mirror of a [`CacheKey`] (the store crate cannot name
/// `BenchmarkId`, so entries are keyed by their stable registry name).
fn to_store_key(key: &CacheKey) -> StoreKey {
    StoreKey {
        entry: key.id.name().to_string(),
        cfg_hash: key.cfg_hash,
        max_ops: key.max_ops,
        warmup_ops: key.warmup_ops,
        seed: key.seed,
        corun: key.corun,
        sample: key.sample.map(|p| (p.detail_ops, p.ffwd_ops)),
    }
}

/// Map a recovered store key back to a cache key. `None` when the
/// entry name is unknown to this build's registry (a foreign or
/// future store file) — such records are skipped, not fatal.
fn from_store_key(key: &StoreKey) -> Option<CacheKey> {
    Some(CacheKey {
        id: BenchmarkId::from_name(&key.entry)?,
        cfg_hash: key.cfg_hash,
        max_ops: key.max_ops,
        warmup_ops: key.warmup_ops,
        seed: key.seed,
        corun: key.corun,
        sample: key.sample.map(|(detail_ops, ffwd_ops)| SamplePlan {
            detail_ops,
            ffwd_ops,
        }),
    })
}

/// Record that one real simulation ran (also called by uncached paths,
/// so the "zero simulation work" test can observe both).
pub(crate) fn note_simulation() {
    cache_metrics().sims.inc();
}

/// Emit the cache-telemetry event for one lookup. `ts` is 0 for every
/// cache event: lookups live in the host's logical time, not any
/// simulated clock; ordering comes from the recorder's `seq`.
fn emit_lookup(recorder: &Recorder, kind: &'static str, key: &CacheKey) {
    if recorder.is_enabled() {
        recorder.emit(
            0,
            kind,
            vec![
                ("entry", Value::str(key.id.name())),
                ("corun", Value::U64(u64::from(key.corun))),
            ],
        );
    }
}

/// Return the counter block for `key`, simulating via `compute` only on
/// a miss.
///
/// The lock is *not* held during `compute` so parallel workers can miss
/// on different keys concurrently; two threads racing on the same key
/// both simulate and insert the identical deterministic block — wasted
/// work in a pathological schedule, never wrong data.
///
/// Every lookup emits one `cache_hit` or `cache_miss` event through
/// `recorder` (a miss is exactly one real simulation), mirroring the
/// [`sim_invocations`]/[`cache_hits`] lifetime counters.
pub(crate) fn counts_for(
    key: CacheKey,
    recorder: &Recorder,
    compute: impl FnOnce() -> PerfCounts,
) -> PerfCounts {
    counts_vec_for(key, recorder, || vec![compute()])[0]
}

/// Vector-valued variant for chip co-runs: one counter block per core,
/// indexed by core, under one key. Solo lookups are the one-element
/// special case, so a width-1 co-run and a plain run share hits.
pub(crate) fn counts_vec_for(
    key: CacheKey,
    recorder: &Recorder,
    compute: impl FnOnce() -> Vec<PerfCounts>,
) -> Vec<PerfCounts> {
    match lookup(&key, recorder) {
        Some(hit) => hit,
        None => fill(key, recorder, compute()),
    }
}

/// Solo counter blocks for several keys that one computation fills
/// together. Each key is looked up on its own; `compute` receives the
/// indices of the keys that missed (never called when none did) and
/// returns their blocks in that order. Each missed block then goes
/// through the same insertion and write-through as a single miss: one
/// miss is one counted simulation and, with a store attached, one
/// record.
pub(crate) fn counts_group_for(
    keys: &[CacheKey],
    recorder: &Recorder,
    compute: impl FnOnce(&[usize]) -> Vec<PerfCounts>,
) -> Vec<PerfCounts> {
    let mut out: Vec<Option<PerfCounts>> = keys
        .iter()
        .map(|key| lookup(key, recorder).map(|hit| hit[0]))
        .collect();
    let missing: Vec<usize> = (0..keys.len()).filter(|&i| out[i].is_none()).collect();
    if !missing.is_empty() {
        let computed = compute(&missing);
        assert_eq!(computed.len(), missing.len(), "one block per missed key");
        for (&i, counts) in missing.iter().zip(computed) {
            out[i] = Some(fill(keys[i], recorder, vec![counts])[0]);
        }
    }
    out.into_iter()
        .map(|c| c.expect("every key hit or computed"))
        .collect()
}

/// The memoized blocks for `key`, counted and reported as a hit. A miss
/// returns `None` and counts and reports nothing, so a caller can try
/// the memo first and leave the miss to a full lookup elsewhere.
pub(crate) fn peek(key: &CacheKey, recorder: &Recorder) -> Option<Vec<PerfCounts>> {
    let st = lock();
    let hit = st.memo.get(key).cloned()?;
    let preloaded = st.from_store.contains(key);
    drop(st);
    cache_metrics().hits.inc();
    if preloaded {
        cache_metrics().store_hits.inc();
        emit_lookup(recorder, "store_hit", key);
    } else {
        emit_lookup(recorder, "cache_hit", key);
    }
    Some(hit)
}

/// [`peek`]; on a miss, also counts the simulation the caller is about
/// to run and reports the miss.
fn lookup(key: &CacheKey, recorder: &Recorder) -> Option<Vec<PerfCounts>> {
    let hit = peek(key, recorder);
    if hit.is_none() {
        note_simulation();
        emit_lookup(recorder, "cache_miss", key);
    }
    hit
}

/// Memoize the freshly simulated blocks of a missed `key` and write
/// them through to an attached store.
fn fill(key: CacheKey, recorder: &Recorder, counts: Vec<PerfCounts>) -> Vec<PerfCounts> {
    let mut st = lock();
    if st.memo.contains_key(&key) {
        // Two threads raced on the same cold key; the winner already
        // inserted (and, if a store is attached, wrote through) the
        // identical deterministic block. Wasted work, never wrong data
        // — and never a duplicate store record.
        return counts;
    }
    st.memo.insert(key, counts.clone());
    // Write-through: an attached store makes this measurement durable
    // for the next process. One framed append per miss, under the same
    // lock as the insertion so an in-flight attach can never observe
    // the entry memoized but not yet appended; I/O failure degrades to
    // a cold record next run (counted, not fatal).
    let append_failed = match st.store.as_mut() {
        Some(store) => {
            cache_metrics().store_misses.inc();
            let record = Record {
                key: to_store_key(&key),
                counts: counts.clone(),
            };
            Some(store.append(&record).is_err())
        }
        None => None,
    };
    drop(st);
    if let Some(failed) = append_failed {
        emit_lookup(recorder, "store_miss", &key);
        if failed {
            cache_metrics().write_errors.inc();
        }
    }
    counts
}

/// Total simulations executed by this process (misses + uncached runs).
pub fn sim_invocations() -> u64 {
    cache_metrics().sims.value()
}

/// Total lookups satisfied from the cache.
pub fn cache_hits() -> u64 {
    cache_metrics().hits.value()
}

/// Lookups satisfied by records preloaded from a persistent store.
pub fn store_hits() -> u64 {
    cache_metrics().store_hits.value()
}

/// Simulated misses that were written through to an attached store.
pub fn store_misses() -> u64 {
    cache_metrics().store_misses.value()
}

/// Write-through appends that failed at the I/O layer.
pub fn store_write_errors() -> u64 {
    cache_metrics().write_errors.value()
}

/// Number of distinct measurements currently cached.
pub fn len() -> usize {
    lock().memo.len()
}

/// Whether the cache is empty.
pub fn is_empty() -> bool {
    lock().memo.is_empty()
}

/// Drop every cached measurement AND reset the hit/miss/invocation
/// telemetry counters to zero. The counters must reset with the memo
/// table: callers assert on them relative to a `clear()` (the bench
/// harness between timed phases, the warm-start tests around store
/// attaches), and counters that survived the memo made every such
/// assertion test-order dependent. An attached store handle is *not*
/// detached — it is I/O state, not cache state — but its preloaded-key
/// set is dropped along with the memo entries it described.
pub fn clear() {
    let mut st = lock();
    st.memo.clear();
    st.from_store.clear();
    drop(st);
    let m = cache_metrics();
    m.sims.reset();
    m.hits.reset();
    m.store_hits.reset();
    m.store_misses.reset();
    m.write_errors.reset();
}

/// What attaching or loading a persistent store found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Verified records loaded into the memo table.
    pub loaded: usize,
    /// Verified records whose entry name this build's registry does not
    /// know (foreign or future store files) — skipped.
    pub unknown_entries: usize,
    /// Complete-but-corrupt log lines quarantined by recovery.
    pub corrupt_skipped: u64,
    /// Verified records skipped as belonging to a superseded generation.
    pub stale_skipped: u64,
    /// Torn-tail bytes truncated by recovery.
    pub truncated_bytes: u64,
    /// Records shadowed by a later write of the same key.
    pub superseded: u64,
    /// Measurements that were already memoized *before* the store was
    /// attached and absent from its log, written through at attach time
    /// so pre-attach work is just as durable as post-attach work.
    pub caught_up: usize,
}

/// Seed the memo table under `st`'s lock from recovered records.
/// Records whose key is already memoized are *not* re-inserted (the
/// local computation is bit-identical by determinism) and keep counting
/// as locally computed, so their hits stay `cache_hit`s.
fn seed_memo(st: &mut CacheState, recovery: &dc_store::Recovery, report: &mut StoreReport) {
    for record in &recovery.records {
        let Some(key) = from_store_key(&record.key) else {
            report.unknown_entries += 1;
            continue;
        };
        if let std::collections::hash_map::Entry::Vacant(slot) = st.memo.entry(key) {
            slot.insert(record.counts.clone());
            st.from_store.insert(key);
        }
        report.loaded += 1;
    }
}

/// Build the damage side of a [`StoreReport`] and emit the recovery
/// telemetry (`store_corrupt_skipped` / `store_truncated`, only when
/// there was damage to report).
fn damage_report(recovery: &dc_store::Recovery, recorder: &Recorder) -> StoreReport {
    let report = StoreReport {
        corrupt_skipped: recovery.corrupt_skipped,
        stale_skipped: recovery.stale_skipped,
        truncated_bytes: recovery.truncated_bytes,
        superseded: recovery.superseded,
        ..StoreReport::default()
    };
    if recorder.is_enabled() {
        if report.corrupt_skipped > 0 || report.stale_skipped > 0 {
            recorder.emit(
                0,
                "store_corrupt_skipped",
                vec![
                    ("records", Value::U64(report.corrupt_skipped)),
                    ("stale", Value::U64(report.stale_skipped)),
                ],
            );
        }
        if report.truncated_bytes > 0 {
            recorder.emit(
                0,
                "store_truncated",
                vec![("bytes", Value::U64(report.truncated_bytes))],
            );
        }
    }
    report
}

/// Attach a persistent store: recover `path` (repairing a torn tail or
/// damaged header in place), seed the memo table with every verified
/// record, write through any measurement memoized before the attach
/// that the log does not already hold, and keep the handle open so
/// subsequent misses write through. Replaces any previously attached
/// store.
///
/// Safe at **any** point in the process lifetime, including while
/// parallel workers are actively populating the memo table: seeding,
/// catch-up, and handle installation happen under the same lock as
/// miss insertion, so every measurement is durable the moment the
/// attach returns — there is no window in which a concurrent miss can
/// land memoized-but-unpersisted.
pub fn attach_store(path: impl AsRef<Path>, recorder: &Recorder) -> std::io::Result<StoreReport> {
    let (mut store, recovery) = Store::open(path.as_ref())?;
    let mut report = damage_report(&recovery, recorder);
    let in_store: HashSet<StoreKey> = recovery.records.iter().map(|r| r.key.clone()).collect();
    let mut st = lock();
    seed_memo(&mut st, &recovery, &mut report);
    // Catch-up write-through: measurements simulated before this attach
    // would otherwise stay process-local forever (the old racy window,
    // stretched to the whole pre-attach lifetime).
    for (key, counts) in &st.memo {
        let skey = to_store_key(key);
        if in_store.contains(&skey) {
            continue;
        }
        let record = Record {
            key: skey,
            counts: counts.clone(),
        };
        if store.append(&record).is_err() {
            cache_metrics().write_errors.inc();
        } else {
            report.caught_up += 1;
        }
    }
    st.store = Some(store);
    Ok(report)
}

/// Attach the store named by the `DCBENCH_STORE` environment variable,
/// if set (the shared warm-start switch for `characterize_all`,
/// `corun`, and `sweeps`). Returns `None` when the variable is unset
/// or empty.
pub fn attach_from_env(recorder: &Recorder) -> std::io::Result<Option<StoreReport>> {
    match std::env::var("DCBENCH_STORE") {
        Ok(path) if !path.is_empty() => attach_store(path, recorder).map(Some),
        _ => Ok(None),
    }
}

/// Warm the memo table from a store file *read-only*: no repair, no
/// write-through, no handle kept. For one-shot consumers that must not
/// mutate a shared store.
pub fn load_from(path: impl AsRef<Path>, recorder: &Recorder) -> std::io::Result<StoreReport> {
    let recovery = dc_store::scan(path.as_ref())?;
    let mut report = damage_report(&recovery, recorder);
    seed_memo(&mut lock(), &recovery, &mut report);
    Ok(report)
}

/// Export every currently memoized measurement to the store at `path`
/// (appending only records the store does not already hold). Returns
/// the number of records written. Works with or without an attached
/// store; the handle is closed on return.
pub fn persist_to(path: impl AsRef<Path>) -> std::io::Result<usize> {
    let (mut store, recovery) = Store::open(path.as_ref())?;
    let existing: HashSet<StoreKey> = recovery.records.into_iter().map(|r| r.key).collect();
    let entries: Vec<(CacheKey, Vec<PerfCounts>)> =
        lock().memo.iter().map(|(k, v)| (*k, v.clone())).collect();
    let mut written = 0usize;
    for (key, counts) in entries {
        let record = Record {
            key: to_store_key(&key),
            counts,
        };
        if existing.contains(&record.key) {
            continue;
        }
        store.append(&record)?;
        written += 1;
    }
    Ok(written)
}

/// Detach the attached store, if any (memoized measurements stay; they
/// simply stop being written through). Returns whether one was
/// attached.
pub fn detach_store() -> bool {
    let mut st = lock();
    let had = st.store.take().is_some();
    st.from_store.clear();
    had
}

/// Compact the attached store's log — dropping quarantined, stale, and
/// superseded frames — and emit a `store_compacted` event. `None` when
/// no store is attached.
pub fn compact_store(recorder: &Recorder) -> std::io::Result<Option<CompactStats>> {
    let mut st = lock();
    let Some(store) = st.store.as_mut() else {
        return Ok(None);
    };
    let stats = store.compact()?;
    drop(st);
    if recorder.is_enabled() {
        recorder.emit(
            0,
            "store_compacted",
            vec![
                ("live", Value::U64(stats.live)),
                ("dropped", Value::U64(stats.dropped)),
            ],
        );
    }
    Ok(Some(stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> CacheKey {
        CacheKey::new(
            BenchmarkId::Sort,
            &CpuConfig::westmere_e5645(),
            &SimOptions::quick(),
            seed,
        )
    }

    #[test]
    fn key_separates_config_window_and_seed() {
        let base = key(1);
        assert_eq!(base, key(1));
        assert_ne!(base, key(2));
        let fatter_l3 = CacheKey::new(
            BenchmarkId::Sort,
            &CpuConfig::westmere_e5645().with_l3_bytes(24 << 20),
            &SimOptions::quick(),
            1,
        );
        assert_ne!(base, fatter_l3);
        let longer = CacheKey::new(
            BenchmarkId::Sort,
            &CpuConfig::westmere_e5645(),
            &SimOptions::exact(1, 0),
            1,
        );
        assert_ne!(base, longer);
        let other_entry = CacheKey {
            id: BenchmarkId::Grep,
            ..base
        };
        assert_ne!(base, other_entry);
        assert_ne!(base, base.with_corun(4), "co-run width is part of the key");
        assert_eq!(base, base.with_corun(1), "width 1 is the solo key");
        let sampled = CacheKey::new(
            BenchmarkId::Sort,
            &CpuConfig::westmere_e5645(),
            &SimOptions::quick().with_sampling(25_000, 75_000),
            1,
        );
        assert_ne!(
            base, sampled,
            "a sampled extrapolation must never satisfy an exact lookup"
        );
        let other_plan = CacheKey::new(
            BenchmarkId::Sort,
            &CpuConfig::westmere_e5645(),
            &SimOptions::quick().with_sampling(10_000, 90_000),
            1,
        );
        assert_ne!(sampled, other_plan, "the plan itself is part of the key");
    }

    #[test]
    fn corun_vectors_round_trip() {
        let k = key(0xC05E_EDC0_5EED).with_corun(3);
        let blocks: Vec<PerfCounts> = (1..=3)
            .map(|i| PerfCounts {
                cycles: i,
                ..PerfCounts::default()
            })
            .collect();
        let mut computed = 0u32;
        let rec = Recorder::disabled();
        let a = counts_vec_for(k, &rec, || {
            computed += 1;
            blocks.clone()
        });
        let b = counts_vec_for(k, &rec, || {
            computed += 1;
            Vec::new()
        });
        assert_eq!(computed, 1, "warm lookup must not recompute");
        assert_eq!(a, blocks);
        assert_eq!(b, blocks);
    }

    #[test]
    fn miss_computes_then_hit_reuses() {
        // A seed no other test uses, so this binary's concurrency
        // cannot interleave on the same key.
        let k = key(0xDEAD_BEEF_0BAD_F00D);
        let mut computed = 0u32;
        let rec = Recorder::disabled();
        let a = counts_for(k, &rec, || {
            computed += 1;
            PerfCounts {
                cycles: 7,
                instructions: 3,
                ..PerfCounts::default()
            }
        });
        assert_eq!(computed, 1);
        let b = counts_for(k, &rec, || {
            computed += 1;
            PerfCounts::default()
        });
        assert_eq!(computed, 1, "second lookup must not recompute");
        assert_eq!(a, b);
    }

    #[test]
    fn lookups_emit_matching_telemetry_events() {
        // A seed no other test uses (same-key isolation).
        let k = key(0x0B5E_C0DE_2026);
        let (rec, buf) = Recorder::ring(64);
        let _ = counts_for(k, &rec, PerfCounts::default);
        let _ = counts_for(k, &rec, PerfCounts::default);
        let _ = counts_for(k, &rec, PerfCounts::default);
        assert_eq!(buf.count_kind("cache_miss"), 1);
        assert_eq!(buf.count_kind("cache_hit"), 2);
        let events = buf.snapshot();
        assert_eq!(events[0].kind, "cache_miss");
        assert_eq!(
            events[0].field("entry").and_then(Value::as_str),
            Some(BenchmarkId::Sort.name())
        );
        assert_eq!(events[0].field("corun").and_then(Value::as_u64), Some(1));
    }
}
