//! Deterministic process-wide metrics: counters, gauges and
//! log2-bucketed histograms.
//!
//! The paper reduces every workload to counter-derived numbers (IPC,
//! MPKI, stall breakdowns); this module gives the *runtime* the same
//! vocabulary. Where [`crate::Recorder`] is the flight recorder — a
//! totally-ordered stream of individual events — `metrics` is the
//! instrument panel: aggregated values cheap enough to keep hot on
//! every path and snapshot on demand.
//!
//! # Determinism contract
//!
//! Snapshots are **byte-reproducible**: two runs that record the same
//! values produce identical [`MetricsSnapshot`]s, identical JSON and
//! identical text exposition. Everything that makes that true:
//!
//! * counters are `u64`, gauges are `i64`, histogram bounds come from
//!   integer bucket edges — no floating point anywhere;
//! * quantiles are *bounds*, not interpolations: `p99` is the upper
//!   edge of the bucket containing the rank-`ceil(0.99·n)` sample
//!   (clamped to the observed max), computed with integer arithmetic;
//! * snapshots list metrics in `(name, labels)` order — the registry's
//!   own key order, so no hash or insertion order leaks into output.
//!
//! # Layout
//!
//! A [`Registry`] is one mutex-guarded ordered map from metric identity
//! `(name, sorted labels)` to its cell. Registration, snapshots and
//! resets are the *only* locking operations — the returned
//! [`Counter`]/[`Gauge`]/[`Histogram`] handles are `Arc`s onto atomic
//! cells, so the hot path is a relaxed atomic RMW (plus one load of the
//! registry-wide enabled flag).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::event::write_json_string;

/// Histogram bucket count: bucket 0 holds the value 0, bucket `i`
/// (1..=64) holds values in `[2^(i-1), 2^i - 1]`.
pub const BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper edge of bucket `i`.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Inclusive lower edge of bucket `i`.
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// An injected time source for latency measurement.
///
/// The daemon runs on [`MonotonicClock`]; tests run on [`FakeClock`] so
/// queue-wait and service-time histograms are byte-reproducible.
pub trait Clock: Send + Sync {
    /// Microseconds since an arbitrary (per-clock) origin. Must be
    /// monotonically non-decreasing.
    fn now_micros(&self) -> u64;
}

/// Wall-clock-free monotonic time anchored at construction.
pub struct MonotonicClock {
    origin: std::time::Instant,
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// A test clock that only moves when told to. Clones share the same
/// underlying instant, so a test can hold one handle while the system
/// under test holds another.
#[derive(Clone, Default)]
pub struct FakeClock {
    now: Arc<AtomicU64>,
}

impl FakeClock {
    /// A fake clock starting at `t` microseconds.
    pub fn at(t: u64) -> Self {
        let c = FakeClock::default();
        c.set(t);
        c
    }

    /// Jump to an absolute time.
    pub fn set(&self, t: u64) {
        self.now.store(t, Ordering::SeqCst);
    }

    /// Advance by `dt` microseconds.
    pub fn advance(&self, dt: u64) {
        self.now.fetch_add(dt, Ordering::SeqCst);
    }
}

impl Clock for FakeClock {
    fn now_micros(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A monotonically increasing `u64` counter handle.
///
/// Clones share one cell. `reset` exists for harness phase boundaries
/// (mirroring `dcbench::cache::clear`) and is the only non-monotonic
/// operation.
#[derive(Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Zero the counter (harness phase boundaries only).
    pub fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// A signed gauge handle (instantaneous level: queue depth, busy
/// workers…). Clones share one cell.
#[derive(Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicU64>, // stores i64 bits
}

impl Gauge {
    /// Set to an absolute level.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.store(v as u64, Ordering::Relaxed);
        }
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, dv: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(dv as u64, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current level.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed) as i64
    }

    /// Zero the gauge (harness phase boundaries only).
    pub fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistCells {
    fn new() -> Self {
        HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A log2-bucketed histogram handle. Clones share one set of cells.
///
/// `observe` is lock-free: one RMW per bucket/count/sum plus
/// `fetch_min`/`fetch_max`. Snapshots taken while observations are in
/// flight are *consistent enough* (each cell individually atomic);
/// byte-reproducibility is guaranteed at quiescent points, which is
/// when the stack snapshots.
#[derive(Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cells: Arc<HistCells>,
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let c = &self.cells;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: a poisoned sum is better than a
        // tiny one.
        let mut sum = c.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(v);
            match c
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => sum = cur,
            }
        }
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.cells;
        let count = c.count.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (i, b) in c.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_upper(i), n));
            }
        }
        HistogramSnapshot {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                c.min.load(Ordering::Relaxed)
            },
            max: c.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Clear all cells (harness phase boundaries only).
    pub fn reset(&self) {
        self.cells.reset();
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Frozen histogram state: exact count/sum/min/max plus the sparse
/// non-empty buckets as `(upper_edge, count)`, ascending by edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets, `(inclusive upper edge, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Deterministic bounds for quantile `num/den` (`0 < num <= den`):
    /// the rank-`ceil(num·n/den)` observation lies in `[lo, hi]`.
    /// Bounds come from the edges of the bucket holding that rank,
    /// clamped to the observed min/max. Returns `(0, 0)` when empty.
    pub fn quantile_bounds(&self, num: u64, den: u64) -> (u64, u64) {
        assert!(num > 0 && num <= den, "quantile must be in (0, 1]");
        if self.count == 0 {
            return (0, 0);
        }
        // rank = ceil(num * count / den), in 1..=count. u128 avoids
        // overflow for num * count.
        let rank = ((num as u128 * self.count as u128).div_ceil(den as u128)) as u64;
        let mut cum = 0u64;
        for &(upper, n) in &self.buckets {
            cum = cum.saturating_add(n);
            if cum >= rank {
                let lower = bucket_lower(bucket_index(upper));
                return (lower.max(self.min), upper.min(self.max));
            }
        }
        // Unreachable for well-formed snapshots; be safe anyway.
        (self.min, self.max)
    }

    /// Upper bound for quantile `num/den` (what the percentile columns
    /// report: a conservative SLO-style "no worse than" figure).
    pub fn quantile_upper(&self, num: u64, den: u64) -> u64 {
        self.quantile_bounds(num, den).1
    }

    /// Upper bound for the median.
    pub fn p50(&self) -> u64 {
        self.quantile_upper(1, 2)
    }

    /// Upper bound for the 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile_upper(9, 10)
    }

    /// Upper bound for the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile_upper(99, 100)
    }
}

/// The frozen value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One frozen metric: name, sorted labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric family name (`snake_case`, `_total` suffix on counters).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: MetricValue,
}

impl MetricSnapshot {
    /// Canonical identity string: `name` or `name{k="v",…}`.
    pub fn key(&self) -> String {
        render_key(&self.name, &self.labels)
    }
}

fn render_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

/// A frozen, sorted view of a whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All metrics, sorted by `(name, labels)`.
    pub metrics: Vec<MetricSnapshot>,
}

impl MetricsSnapshot {
    /// Look up a metric by canonical key (`name` or `name{k="v"}`).
    pub fn get(&self, key: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.key() == key)
    }

    /// Canonical JSON encoding (deterministic: sorted metrics, integer
    /// values only). Shape:
    ///
    /// ```json
    /// {"metrics":[
    ///   {"name":"x","labels":{"verb":"submit"},"type":"counter","value":4},
    ///   {"name":"h","labels":{},"type":"histogram","count":2,"sum":3,
    ///    "min":1,"max":2,"p50":1,"p90":3,"p99":3,"buckets":[[1,1],[3,1]]}
    /// ]}
    /// ```
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(64 + self.metrics.len() * 48);
        out.push_str("{\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(&mut out, &m.name);
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in m.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, k);
                out.push(':');
                write_json_string(&mut out, v);
            }
            out.push_str("},\"type\":");
            write_json_string(&mut out, m.value.type_name());
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, ",\"value\":{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, ",\"value\":{v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.p50(),
                        h.p90(),
                        h.p99()
                    );
                    for (j, (upper, n)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{upper},{n}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Prometheus-style text exposition: `# TYPE` header per family
    /// (first occurrence in sorted order), then one sample per line.
    /// Histograms expand to cumulative `_bucket{le="…"}` lines over the
    /// non-empty edges plus `le="+Inf"`, then `_sum` and `_count`.
    /// Output is byte-deterministic for a given snapshot.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(64 + self.metrics.len() * 64);
        let mut last_family: Option<&str> = None;
        for m in &self.metrics {
            if last_family != Some(m.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} {}", m.name, m.value.type_name());
                last_family = Some(m.name.as_str());
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{} {v}", render_key(&m.name, &m.labels));
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {v}", render_key(&m.name, &m.labels));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for &(upper, n) in &h.buckets {
                        cum += n;
                        let mut labels = m.labels.clone();
                        labels.push(("le".to_string(), upper.to_string()));
                        let _ = writeln!(
                            out,
                            "{} {cum}",
                            render_key(&format!("{}_bucket", m.name), &labels)
                        );
                    }
                    let mut labels = m.labels.clone();
                    labels.push(("le".to_string(), "+Inf".to_string()));
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_key(&format!("{}_bucket", m.name), &labels),
                        h.count
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_key(&format!("{}_sum", m.name), &m.labels),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_key(&format!("{}_count", m.name), &m.labels),
                        h.count
                    );
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

type MetricKey = (String, Vec<(String, String)>);

/// The metric registry. See the module docs for the layout and
/// determinism contract.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    slots: Mutex<BTreeMap<MetricKey, Slot>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            enabled: Arc::new(AtomicBool::new(true)),
            slots: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Registry {
    /// A fresh, enabled registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn recording on/off. Disabled handles early-return before
    /// touching their cells (the `metrics_disabled` bench path);
    /// values already recorded remain readable.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether handles record.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut ls: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        ls.sort();
        ls
    }

    fn slot<T, F, G>(&self, name: &str, labels: &[(&str, &str)], make: F, cast: G) -> T
    where
        F: FnOnce(&Arc<AtomicBool>) -> Slot,
        G: Fn(&Slot) -> Option<T>,
    {
        // Key on the *sorted* labels so label order never splits identity.
        let ls = Self::sorted_labels(labels);
        let mut map = self.slots();
        let slot = map
            .entry((name.to_string(), ls))
            .or_insert_with(|| make(&self.enabled));
        cast(slot)
            .unwrap_or_else(|| panic!("metric {name} already registered with a different type"))
    }

    /// Register (or fetch) a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.slot(
            name,
            labels,
            |enabled| {
                Slot::Counter(Counter {
                    enabled: enabled.clone(),
                    cell: Arc::new(AtomicU64::new(0)),
                })
            },
            |s| match s {
                Slot::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.slot(
            name,
            labels,
            |enabled| {
                Slot::Gauge(Gauge {
                    enabled: enabled.clone(),
                    cell: Arc::new(AtomicU64::new(0)),
                })
            },
            |s| match s {
                Slot::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Register (or fetch) a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.slot(
            name,
            labels,
            |enabled| {
                Slot::Histogram(Histogram {
                    enabled: enabled.clone(),
                    cells: Arc::new(HistCells::new()),
                })
            },
            |s| match s {
                Slot::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    fn slots(&self) -> MutexGuard<'_, BTreeMap<MetricKey, Slot>> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Freeze every registered metric into a snapshot, in
    /// `(name, labels)` order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self
            .slots()
            .iter()
            .map(|((name, labels), slot)| MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.value()),
                    Slot::Gauge(g) => MetricValue::Gauge(g.value()),
                    Slot::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot { metrics }
    }

    /// Zero every registered metric in place, keeping registrations
    /// (harness phase boundaries only).
    pub fn reset_values(&self) {
        for slot in self.slots().values() {
            match slot {
                Slot::Counter(c) => c.reset(),
                Slot::Gauge(g) => g.reset(),
                Slot::Histogram(h) => h.reset(),
            }
        }
    }
}

/// The process-wide registry the stack records into by default.
/// Returned as an `Arc` so components that take an injectable
/// `Arc<Registry>` (the daemon) can share it without a second scheme.
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

// ---------------------------------------------------------------------------
// Sparklines (dc-top)
// ---------------------------------------------------------------------------

/// ASCII intensity ramp used by [`sparkline`], dimmest to brightest.
pub const SPARK_RAMP: &[u8] = b" .:-=+*#%@";

/// Compress a bucket-count series into a fixed-width ASCII sparkline,
/// the same width-compression idiom `gantt` uses for timelines: each
/// output column covers `ceil(len/width)` input cells, takes their max,
/// and maps it onto [`SPARK_RAMP`] scaled by the global max. All
/// integer math — deterministic for a given series.
pub fn sparkline(counts: &[u64], width: usize) -> String {
    let width = width.max(1);
    if counts.is_empty() {
        return " ".repeat(width);
    }
    let cells_per_col = counts.len().div_ceil(width);
    let cols = counts.len().div_ceil(cells_per_col);
    let peak = counts.iter().copied().max().unwrap_or(0);
    let mut out = String::with_capacity(width);
    for c in 0..cols {
        let lo = c * cells_per_col;
        let hi = (lo + cells_per_col).min(counts.len());
        let m = counts[lo..hi].iter().copied().max().unwrap_or(0);
        let ch = if peak == 0 || m == 0 {
            SPARK_RAMP[0]
        } else {
            // Nonzero cells never render as blank: index 1..=last,
            // with the global peak always mapping to the last rune.
            let last = SPARK_RAMP.len() - 1;
            let idx = 1 + (m as u128 * (last as u128 - 1) / peak as u128) as usize;
            SPARK_RAMP[idx.min(last)]
        };
        out.push(ch as char);
    }
    while out.len() < width {
        out.push(' ');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_partition_the_u64_line() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKETS {
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper edge of bucket {i}");
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("reqs_total", &[("verb", "submit")]);
        c.inc();
        c.add(3);
        assert_eq!(c.value(), 4);
        // Same identity returns the same cell.
        assert_eq!(reg.counter("reqs_total", &[("verb", "submit")]).value(), 4);

        let g = reg.gauge("depth", &[]);
        g.set(7);
        g.dec();
        g.add(-2);
        assert_eq!(g.value(), 4);
        g.add(-10);
        assert_eq!(g.value(), -6);
    }

    #[test]
    fn label_order_does_not_split_identity() {
        let reg = Registry::new();
        reg.counter("c", &[("a", "1"), ("b", "2")]).inc();
        reg.counter("c", &[("b", "2"), ("a", "1")]).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.len(), 1);
        assert_eq!(snap.metrics[0].value, MetricValue::Counter(2));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x", &[]).inc();
        reg.gauge("x", &[]);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        let c = reg.counter("c", &[]);
        let h = reg.histogram("h", &[]);
        reg.set_enabled(false);
        c.inc();
        h.observe(5);
        assert_eq!(c.value(), 0);
        assert_eq!(h.count(), 0);
        reg.set_enabled(true);
        c.inc();
        assert_eq!(c.value(), 1);
    }

    #[test]
    fn histogram_quantile_bounds_are_bucket_edges() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[]);
        for v in [0, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 1106);
        // rank(p50) = 3 -> third smallest is 2, bucket [2,3].
        assert_eq!(s.quantile_bounds(1, 2), (2, 3));
        // rank(p99) = 6 -> 1000, bucket [512,1023] clamped to max.
        assert_eq!(s.quantile_bounds(99, 100), (512, 1000));
        assert_eq!(s.p99(), 1000);
        // Empty histogram reports zeros.
        assert_eq!(HistogramSnapshot::empty().p50(), 0);
    }

    #[test]
    fn snapshot_is_sorted_by_name_then_labels() {
        let reg = Registry::new();
        reg.counter("z_total", &[]).add(2);
        reg.counter("a_total", &[("k", "2")]).add(1);
        reg.counter("a_total", &[("k", "1")]).add(1);
        let snap = reg.snapshot();
        let keys: Vec<String> = snap.metrics.iter().map(|m| m.key()).collect();
        assert_eq!(
            keys,
            vec!["a_total{k=\"1\"}", "a_total{k=\"2\"}", "z_total"]
        );
    }

    #[test]
    fn json_and_text_are_byte_deterministic() {
        let build = || {
            let reg = Registry::new();
            reg.counter("dc_requests_total", &[("verb", "submit")])
                .add(4);
            reg.gauge("dc_queue_depth", &[]).set(2);
            let h = reg.histogram("dc_wait_us", &[]);
            for v in [0, 0, 3, 900] {
                h.observe(v);
            }
            reg.snapshot()
        };
        let (s1, s2) = (build(), build());
        assert_eq!(s1.to_json(), s2.to_json());
        assert_eq!(s1.render_text(), s2.render_text());

        let text = s1.render_text();
        assert_eq!(
            text,
            "# TYPE dc_queue_depth gauge\n\
             dc_queue_depth 2\n\
             # TYPE dc_requests_total counter\n\
             dc_requests_total{verb=\"submit\"} 4\n\
             # TYPE dc_wait_us histogram\n\
             dc_wait_us_bucket{le=\"0\"} 2\n\
             dc_wait_us_bucket{le=\"3\"} 3\n\
             dc_wait_us_bucket{le=\"1023\"} 4\n\
             dc_wait_us_bucket{le=\"+Inf\"} 4\n\
             dc_wait_us_sum 903\n\
             dc_wait_us_count 4\n"
        );
        assert!(s1.to_json().starts_with("{\"metrics\":[{\"name\":"));
    }

    #[test]
    fn fake_clock_is_deterministic() {
        let c = FakeClock::at(100);
        let shared = c.clone();
        assert_eq!(c.now_micros(), 100);
        shared.advance(50);
        assert_eq!(c.now_micros(), 150);
        let m = MonotonicClock::new();
        let a = m.now_micros();
        assert!(m.now_micros() >= a);
    }

    #[test]
    fn sparkline_compresses_and_scales() {
        assert_eq!(sparkline(&[], 4), "    ");
        assert_eq!(sparkline(&[0, 0], 2), "  ");
        let s = sparkline(&[1, 0, 0, 9], 4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.as_bytes()[3], SPARK_RAMP[SPARK_RAMP.len() - 1]);
        assert_ne!(s.as_bytes()[0], b' ', "nonzero cell never blank");
        // Width compression: 8 cells into 4 columns takes pairwise max.
        assert_eq!(sparkline(&[5, 0, 0, 5, 5, 0, 0, 5], 4).len(), 4);
    }

    #[test]
    fn concurrent_observations_all_land() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[]);
        let c = reg.counter("c", &[]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (h, c) = (h.clone(), c.clone());
                s.spawn(move || {
                    for v in 0..1000u64 {
                        h.observe(v);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 999);
        assert_eq!(snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4000);
    }
}
