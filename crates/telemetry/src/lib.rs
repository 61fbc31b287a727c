//! # goc-telemetry — workspace-wide observability primitives
//!
//! The engine runs as a long-lived service (ROADMAP, "Game-of-Coins as
//! a service"), and a service needs in-flight visibility, not just the
//! final report: request rates, rejection counts by reason, latency
//! distributions, step rates. This crate is the one instrumentation
//! substrate every layer shares:
//!
//! * [`Counter`] / [`Gauge`] — lock-free relaxed atomics. An increment
//!   is exactly one `fetch_add(1, Relaxed)`: no lock, no allocation,
//!   no branch on the hot path, whether or not a registry is watching.
//! * [`LatencyHistogram`] — a fixed-bucket histogram over the same
//!   geometric bucketing scheme `ensemble::aggregate::QuantileSketch`
//!   proved out for the Monte-Carlo layer ([`HIST_BUCKETS`] buckets,
//!   log-uniform over `[`[`HIST_LO`]`, `[`HIST_HI`]`]` seconds), with
//!   non-finite observations skipped and counted, never folded in.
//! * [`Registry`] — names the instruments and snapshots them on read.
//!   Registration is the only locking path (a `Mutex` around the name
//!   table, taken once per *instrument*, never per event). A
//!   [`Registry::disabled`] registry hands out detached instruments:
//!   call sites increment the same plain atomics and the registry
//!   keeps no names, so disabled instrumentation costs one relaxed
//!   atomic op per event and nothing on read.
//! * [`MetricsSnapshot`] — the snapshot-on-read form: a plain serde
//!   value for the wire (`Request::Metrics` / `Status`), with a
//!   Prometheus-style text exposition ([`MetricsSnapshot::render_text`])
//!   for scrapers and humans.
//! * [`Observe`] — the one observability handle: a [`Registry`] plus a
//!   [`TraceRecorder`], passed explicitly to every layer that records
//!   (ensemble, dynamics, server, backend, CLI). [`Observe::off`]
//!   observes nothing.
//!
//! ```
//! use goc_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let served = registry.counter("goc_server_served_total");
//! served.inc();
//! let wall = registry.histogram("goc_request_secs");
//! wall.observe(0.012);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("goc_server_served_total"), Some(1));
//! assert!(snap.render_text().contains("goc_server_served_total 1"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod quantile;
pub mod trace;

pub use trace::{TraceEvent, TraceEventKind, TraceLane, TracePhase, TraceRecorder, TraceSnapshot};

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Buckets of a [`LatencyHistogram`]. 64 log-uniform buckets over nine
/// decades resolve ~1.38× per bucket — enough to tell a 1 ms request
/// from a 2 ms one, at 512 bytes of counters per histogram.
pub const HIST_BUCKETS: usize = 64;

/// Lower edge of the histogram range, in seconds (1 µs — below the
/// resolution of anything the workspace times).
pub const HIST_LO: f64 = 1e-6;

/// Upper edge of the histogram range, in seconds (1000 s — beyond any
/// sane request or convergence wall time; larger values clamp here).
pub const HIST_HI: f64 = 1e3;

/// The geometric bucket index of `x` seconds — the shared
/// [`quantile`] scheme over the latency range (the same math
/// `QuantileSketch` uses over its count range).
fn bucket_of(x: f64) -> usize {
    quantile::bucket_of(x, HIST_LO, HIST_HI, HIST_BUCKETS)
}

/// The upper edge of bucket `i`, in seconds.
fn bucket_upper(i: usize) -> f64 {
    quantile::bucket_upper(i, HIST_LO, HIST_HI, HIST_BUCKETS)
}

// ---------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------

/// A monotonically increasing event count. Clones share the cell, so a
/// handle can live on a hot path while the registry snapshots the same
/// value.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter (what a disabled registry hands out).
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Adds one. One relaxed atomic op; never locks or allocates.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (in-flight requests, open sessions).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A detached gauge (what a disabled registry hands out).
    pub fn detached() -> Self {
        Gauge::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.cell.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the value outright.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Per-bucket observation counts (not cumulative; the text
    /// exposition accumulates on read).
    counts: Vec<AtomicU64>,
    /// Total finite observations (always the sum of `counts`).
    total: AtomicU64,
    /// Non-finite or negative observations, skipped by the buckets.
    skipped: AtomicU64,
    /// Sum of finite observations, in nanoseconds.
    sum_nanos: AtomicU64,
    /// Smallest finite observation, in nanoseconds (`u64::MAX` = none).
    min_nanos: AtomicU64,
    /// Largest finite observation, in nanoseconds.
    max_nanos: AtomicU64,
}

/// A fixed-bucket latency histogram over [`HIST_BUCKETS`] geometric
/// buckets spanning `[HIST_LO, HIST_HI]` seconds.
///
/// An observation is a handful of relaxed atomic ops (bucket, total,
/// sum, min/max) — no lock, no allocation. Snapshots are taken bucket
/// by bucket with relaxed loads; a snapshot raced against writers is a
/// *consistent underestimate* (its bucket sum still equals its total
/// by construction of [`LatencyHistogram::snapshot`]).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    core: Arc<HistogramCore>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        let counts = (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        LatencyHistogram {
            core: Arc::new(HistogramCore {
                counts,
                total: AtomicU64::new(0),
                skipped: AtomicU64::new(0),
                sum_nanos: AtomicU64::new(0),
                min_nanos: AtomicU64::new(u64::MAX),
                max_nanos: AtomicU64::new(0),
            }),
        }
    }
}

impl LatencyHistogram {
    /// A detached histogram (what a disabled registry hands out).
    pub fn detached() -> Self {
        LatencyHistogram::default()
    }

    /// Records one observation of `secs`. Non-finite or negative
    /// values are skipped and counted (`QuantileSketch`'s rule: a NaN
    /// must never poison a distribution silently).
    #[inline]
    pub fn observe(&self, secs: f64) {
        if !secs.is_finite() || secs < 0.0 {
            self.core.skipped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let nanos = (secs * 1e9).min(u64::MAX as f64) as u64;
        self.core.counts[bucket_of(secs)].fetch_add(1, Ordering::Relaxed);
        self.core.total.fetch_add(1, Ordering::Relaxed);
        self.core.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.core.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        self.core.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records a [`Duration`] observation.
    #[inline]
    pub fn observe_duration(&self, elapsed: Duration) {
        self.observe(elapsed.as_secs_f64());
    }

    /// Total finite observations recorded so far.
    pub fn count(&self) -> u64 {
        self.core.total.load(Ordering::Relaxed)
    }

    /// Snapshots the histogram. The bucket counts are read first and
    /// the reported `count` is their sum, so the invariant
    /// `sum(buckets) == count` holds even when writers race the read.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, cell) in self.core.counts.iter().enumerate() {
            let c = cell.load(Ordering::Relaxed);
            if c > 0 {
                count += c;
                buckets.push(BucketCount {
                    upper_secs: bucket_upper(i),
                    count: c,
                });
            }
        }
        let min_nanos = self.core.min_nanos.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: name.to_string(),
            count,
            skipped: self.core.skipped.load(Ordering::Relaxed),
            sum_secs: self.core.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            min_secs: if min_nanos == u64::MAX {
                0.0
            } else {
                min_nanos as f64 / 1e9
            },
            max_secs: self.core.max_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            buckets,
        }
    }
}

// ---------------------------------------------------------------------
// Snapshots (the wire / exposition form)
// ---------------------------------------------------------------------

/// One counter at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Registered name (may carry `{label="value"}` suffixes).
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// One non-empty histogram bucket at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Upper edge of the bucket, in seconds.
    pub upper_secs: f64,
    /// Observations that landed in this bucket (not cumulative).
    pub count: u64,
}

/// One histogram at snapshot time. `sum(buckets[].count) == count` by
/// construction ([`LatencyHistogram::snapshot`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Finite observations.
    pub count: u64,
    /// Non-finite / negative observations skipped by the buckets.
    pub skipped: u64,
    /// Sum of finite observations, seconds.
    pub sum_secs: f64,
    /// Smallest finite observation, seconds (0 when `count == 0`).
    pub min_secs: f64,
    /// Largest finite observation, seconds.
    pub max_secs: f64,
    /// The non-empty buckets, ascending by `upper_secs`.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile estimate, `q` in `[0, 1]`: exact min/max
    /// at the extremes, the bucket upper edge in between (the same
    /// contract as `QuantileSketch::quantile`).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min_secs;
        }
        if q >= 1.0 {
            return self.max_secs;
        }
        let rank = quantile::nearest_rank(q, self.count);
        let mut seen = 0u64;
        for bucket in &self.buckets {
            seen += bucket.count;
            if seen >= rank {
                return bucket.upper_secs.min(self.max_secs).max(self.min_secs);
            }
        }
        self.max_secs
    }
}

/// The snapshot-on-read form of a whole [`Registry`]: plain data, so it
/// crosses the wire as JSON and renders as a text exposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Whether the registry was collecting (a disabled registry
    /// snapshots empty, with this flag false).
    pub enabled: bool,
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Escapes a label value per the Prometheus exposition-format spec:
/// backslash, double quote, and line feed become `\\`, `\"`, and `\n`.
/// Any other byte passes through untouched.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Splices a `label="value"` pair into a metric name, inside the
/// existing `{...}` group when the name already carries one — how
/// callers spell labeled registrations, e.g.
/// `registry.counter(&with_label("goc_server_rejected_total", "reason", "draining"))`.
/// The value is escaped ([`escape_label_value`]) so a quote, backslash,
/// or newline can never break the exposition.
pub fn with_label(name: &str, label: &str, value: &str) -> String {
    let value = escape_label_value(value);
    match name.strip_suffix('}') {
        Some(open) => format!("{open},{label}=\"{value}\"}}"),
        None => format!("{name}{{{label}=\"{value}\"}}"),
    }
}

/// The metric family name: everything before the `{` of a labeled name.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Appends a family suffix (`_bucket`, `_sum`, `_count`) to a metric
/// name, keeping any label group after it per Prometheus convention:
/// `secs{kind="x"}` + `_sum` → `secs_sum{kind="x"}`.
fn with_suffix(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(idx) => format!("{}{}{}", &name[..idx], suffix, &name[idx..]),
        None => format!("{name}{suffix}"),
    }
}

impl MetricsSnapshot {
    /// An empty snapshot (what a disabled registry reports).
    pub fn empty() -> Self {
        MetricsSnapshot {
            enabled: false,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Looks up a counter value by exact registered name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Sums every counter whose family (the name with any `{label}`
    /// group stripped) is `family` — the total across all labeled
    /// variants.
    pub fn counter_family_total(&self, family: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| base_name(&c.name) == family)
            .map(|c| c.value)
            .sum()
    }

    /// Looks up a gauge value by exact registered name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by exact registered name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the Prometheus-style text exposition: one `# TYPE` line
    /// per metric family, `name value` samples, and the conventional
    /// cumulative `_bucket{le=...}` / `_sum` / `_count` triple per
    /// histogram. Deterministic: families appear in name order.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for c in &self.counters {
            let family = base_name(&c.name);
            if family != last_family {
                out.push_str(&format!("# TYPE {family} counter\n"));
                last_family = family.to_string();
            }
            out.push_str(&format!("{} {}\n", c.name, c.value));
        }
        for g in &self.gauges {
            let family = base_name(&g.name);
            if family != last_family {
                out.push_str(&format!("# TYPE {family} gauge\n"));
                last_family = family.to_string();
            }
            out.push_str(&format!("{} {}\n", g.name, g.value));
        }
        for h in &self.histograms {
            let family = base_name(&h.name);
            if family != last_family {
                out.push_str(&format!("# TYPE {family} histogram\n"));
                last_family = family.to_string();
            }
            let bucket_name = with_suffix(&h.name, "_bucket");
            let mut cumulative = 0u64;
            for bucket in &h.buckets {
                cumulative += bucket.count;
                let le = format!("{:.6}", bucket.upper_secs);
                out.push_str(&format!(
                    "{} {}\n",
                    with_label(&bucket_name, "le", &le),
                    cumulative
                ));
            }
            out.push_str(&format!(
                "{} {}\n",
                with_label(&bucket_name, "le", "+Inf"),
                h.count
            ));
            out.push_str(&format!(
                "{} {:.9}\n",
                with_suffix(&h.name, "_sum"),
                h.sum_secs
            ));
            out.push_str(&format!("{} {}\n", with_suffix(&h.name, "_count"), h.count));
        }
        out
    }

    /// The JSON form of the snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshots are plain data")
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct Slots {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, LatencyHistogram)>,
}

#[derive(Debug)]
struct RegistryInner {
    enabled: bool,
    slots: Mutex<Slots>,
}

/// Names instruments and snapshots them on read.
///
/// Clones share the underlying table, so one registry can be handed to
/// every layer of a process. Registering the same name twice returns a
/// handle to the *same* instrument — repeated runs accumulate instead
/// of shadowing. The `Mutex` guards registration and snapshot only;
/// increments on handed-out instruments never touch it.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An enabled, collecting registry.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                enabled: true,
                slots: Mutex::new(Slots::default()),
            }),
        }
    }

    /// A disabled registry: hands out detached instruments (plain
    /// relaxed atomics, unnamed and unretained) and snapshots empty.
    pub fn disabled() -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                enabled: false,
                slots: Mutex::new(Slots::default()),
            }),
        }
    }

    /// Whether this registry is collecting.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Registers (or re-opens) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.inner.enabled {
            return Counter::detached();
        }
        let mut slots = self.inner.slots.lock().expect("registry lock");
        if let Some((_, c)) = slots.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::default();
        slots.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Registers (or re-opens) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.inner.enabled {
            return Gauge::detached();
        }
        let mut slots = self.inner.slots.lock().expect("registry lock");
        if let Some((_, g)) = slots.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::default();
        slots.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Registers (or re-opens) the histogram `name`.
    pub fn histogram(&self, name: &str) -> LatencyHistogram {
        if !self.inner.enabled {
            return LatencyHistogram::detached();
        }
        let mut slots = self.inner.slots.lock().expect("registry lock");
        if let Some((_, h)) = slots.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = LatencyHistogram::default();
        slots.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// Snapshots every registered instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        if !self.inner.enabled {
            return MetricsSnapshot::empty();
        }
        let slots = self.inner.slots.lock().expect("registry lock");
        let mut counters: Vec<CounterSnapshot> = slots
            .counters
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSnapshot> = slots
            .gauges
            .iter()
            .map(|(name, g)| GaugeSnapshot {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = slots
            .histograms
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            enabled: true,
            counters,
            gauges,
            histograms,
        }
    }

    /// Renders the current state as a Prometheus-style text exposition.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

/// The one observability handle: where a layer's metrics and trace
/// records go. Both halves are cheap `Arc` clones, so the handle is
/// passed by reference down a call and cloned into long-lived owners
/// (a server, a run context). There is no global fallback: a layer
/// records exactly what the caller's handle collects.
#[derive(Debug, Clone)]
pub struct Observe {
    /// Metrics destination.
    pub registry: Registry,
    /// Flight-recorder destination.
    pub tracer: TraceRecorder,
}

impl Observe {
    /// Observes nothing: a disabled registry and a disabled recorder.
    pub fn off() -> Self {
        Observe {
            registry: Registry::disabled(),
            tracer: TraceRecorder::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let registry = Registry::new();
        let c = registry.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = registry.gauge("g");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c_total"), Some(5));
        assert_eq!(snap.gauge("g"), Some(-7));
    }

    #[test]
    fn registering_a_name_twice_shares_the_instrument() {
        let registry = Registry::new();
        registry.counter("shared").inc();
        registry.counter("shared").inc();
        assert_eq!(registry.snapshot().counter("shared"), Some(2));
        assert_eq!(registry.snapshot().counters.len(), 1);
        registry.histogram("h").observe(0.5);
        registry.histogram("h").observe(0.5);
        assert_eq!(registry.snapshot().histogram("h").unwrap().count, 2);
    }

    #[test]
    fn disabled_registries_stay_silent_but_instruments_work() {
        let registry = Registry::disabled();
        let c = registry.counter("never_seen");
        c.inc();
        assert_eq!(c.get(), 1, "detached instruments still count");
        let h = registry.histogram("never_seen_secs");
        h.observe(1.0);
        assert_eq!(h.count(), 1);
        let snap = registry.snapshot();
        assert!(!snap.enabled);
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.render_text().is_empty());
    }

    #[test]
    fn bucket_scheme_is_monotone_and_total_preserving() {
        let h = LatencyHistogram::default();
        let values = [0.0, 1e-9, 1e-6, 3.4e-4, 0.02, 1.0, 55.0, 999.0, 1e7];
        for v in values {
            h.observe(v);
        }
        let snap = h.snapshot("t");
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(
            snap.buckets.iter().map(|b| b.count).sum::<u64>(),
            snap.count
        );
        // Bucket uppers ascend; bucket_of is monotone in its input.
        for pair in snap.buckets.windows(2) {
            assert!(pair[0].upper_secs < pair[1].upper_secs);
        }
        let mut last = 0;
        for v in [1e-6, 1e-4, 1e-2, 1.0, 100.0] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket_of must be monotone");
            last = b;
        }
        assert_eq!(bucket_of(HIST_HI * 10.0), HIST_BUCKETS - 1);
        assert_eq!(bucket_of(0.0), 0);
    }

    #[test]
    fn non_finite_observations_are_skipped_and_counted() {
        let h = LatencyHistogram::default();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        h.observe(-1.0);
        h.observe(0.5);
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 1);
        assert_eq!(snap.skipped, 4);
        assert!((snap.sum_secs - 0.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_bracket_the_distribution() {
        let h = LatencyHistogram::default();
        for i in 1..=100 {
            h.observe(i as f64 / 1000.0); // 1ms ..= 100ms
        }
        let snap = h.snapshot("t");
        assert!((snap.quantile(0.0) - 0.001).abs() < 1e-9);
        assert!((snap.quantile(1.0) - 0.1).abs() < 1e-9);
        let p50 = snap.quantile(0.5);
        assert!(
            (0.04..=0.08).contains(&p50),
            "p50 {p50} should approximate 50ms within a bucket"
        );
        let p99 = snap.quantile(0.99);
        assert!(p99 >= p50 && p99 <= snap.max_secs);
    }

    #[test]
    fn text_exposition_follows_prometheus_conventions() {
        let registry = Registry::new();
        registry.counter("goc_served_total").add(3);
        registry
            .counter("goc_rejected_total{reason=\"draining\"}")
            .inc();
        registry
            .counter("goc_rejected_total{reason=\"session_limit\"}")
            .add(2);
        registry.gauge("goc_inflight").set(1);
        let h = registry.histogram("goc_request_secs");
        h.observe(0.001);
        h.observe(0.002);
        let text = registry.render_text();
        assert!(text.contains("# TYPE goc_served_total counter\n"));
        assert!(text.contains("goc_served_total 3\n"));
        // One TYPE line per family, not per labeled variant.
        assert_eq!(text.matches("# TYPE goc_rejected_total counter").count(), 1);
        assert!(text.contains("goc_rejected_total{reason=\"draining\"} 1\n"));
        assert!(text.contains("# TYPE goc_inflight gauge\n"));
        assert!(text.contains("goc_inflight 1\n"));
        assert!(text.contains("# TYPE goc_request_secs histogram\n"));
        assert!(text.contains("goc_request_secs_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("goc_request_secs_count 2\n"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn labels_splice_into_existing_groups() {
        assert_eq!(with_label("m", "le", "1"), "m{le=\"1\"}");
        assert_eq!(
            with_label("m{kind=\"status\"}", "le", "1"),
            "m{kind=\"status\",le=\"1\"}"
        );
        assert_eq!(base_name("m{kind=\"status\"}"), "m");
        assert_eq!(base_name("m"), "m");
    }

    #[test]
    fn label_values_escape_per_exposition_spec() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("line\nbreak"), "line\\nbreak");
        // with_label applies the escaping, so a hostile value cannot
        // terminate the quoted string or the sample line.
        let name = with_label("m", "path", "C:\\tmp\n\"x\"");
        assert_eq!(name, "m{path=\"C:\\\\tmp\\n\\\"x\\\"\"}");
        assert!(!name.contains('\n'));
        let registry = Registry::new();
        registry.counter(&name).inc();
        let text = registry.render_text();
        assert_eq!(text.lines().count(), 2, "one TYPE line + one sample");
        assert!(text.contains("m{path=\"C:\\\\tmp\\n\\\"x\\\"\"} 1\n"));
    }

    #[test]
    fn snapshots_round_trip_through_json() {
        let registry = Registry::new();
        registry.counter("a_total").add(7);
        registry.gauge("b").set(-2);
        registry.histogram("c_secs").observe(0.25);
        let snap = registry.snapshot();
        let json = snap.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        assert_eq!(back, snap);
        assert_eq!(back.counter_family_total("a_total"), 7);
    }
}
