//! Live metrics: a registry of lock-free counters, gauges and
//! log-bucketed histograms, with a background sampler and two exporters.
//!
//! The paper's empirical method is in-depth instrumentation of the
//! running engine — per-phase CPU cost, shuffle volume, progress and
//! time-to-first-answer. [`crate::metrics::Profile`] attributes CPU to
//! phases *after* a task finishes; this module is the *live* complement:
//! instruments update atomic cells while the job runs, and anything —
//! the in-process [`MetricsSampler`], a Prometheus scraper hitting
//! [`MetricsServer`], or a JSONL tail — can observe the whole registry
//! at any instant.
//!
//! # Architecture
//!
//! * [`MetricsRegistry`] — a cheaply cloneable handle to one
//!   `Mutex<BTreeMap<(name, sorted labels), cell>>`. The lock is taken
//!   only to **register** a metric (once per job, partition, task or
//!   tenant) and to snapshot; updates go through handles.
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — handles wrapping an
//!   `Arc` of atomic cells. Updating is one (or a few) relaxed atomic
//!   operations: no locks, no allocation, safe from any thread. Hot
//!   loops keep a handle and hit the atomics directly.
//! * [`Histogram`] buckets observations by the binary exponent of the
//!   value (one bucket per power of two), so p50/p95/p99 extraction is
//!   a 128-entry scan and any quantile is bounded by one octave of
//!   relative error.
//! * [`MetricsSampler`] — a background thread snapshotting the whole
//!   registry on start, on a period and on stop, and streaming each
//!   [`MetricsSnapshot`] to a writer as one JSONL line, keeping none.
//! * [`MetricsServer`] — a minimal blocking HTTP listener (std only)
//!   answering every GET with [`MetricsRegistry::render_prometheus`]
//!   text exposition.
//!
//! # Naming
//!
//! Metric names follow `onepass_<layer>_<name>` with `_total` suffixed
//! on counters (Prometheus convention); differing contexts (stage,
//! side, phase) are labels, never name fragments. The simulator
//! publishes mirrors of engine metrics under the same names with a
//! `source="sim"` label, so predicted-vs-actual comparison is a join on
//! metric name. Every name is minted once, in [`names`].

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::json::fmt_f64;

/// Every metric name the workspace publishes, minted here and nowhere
/// else, so the engine, the serving tier and the simulator's
/// `source="sim"` mirror cannot drift apart. Labels in braces.
pub mod names {
    /// Gauge `{stage}`: input splits known so far.
    pub const STAGE_SPLITS_TOTAL: &str = "onepass_stage_splits_total";
    /// Gauge `{stage}`: splits with a winning attempt.
    pub const STAGE_SPLITS_DONE: &str = "onepass_stage_splits_done";
    /// Gauge `{stage}`: done / total, 0..=1.
    pub const STAGE_PROGRESS_RATIO: &str = "onepass_stage_progress_ratio";
    /// Counter `{stage}`: backup clones launched against slow map tasks.
    /// Only the simulator publishes it: the engine never clones a map
    /// task.
    pub const STAGE_STRAGGLERS: &str = "onepass_stage_stragglers_total";
    /// Counter `{stage}`: map attempts enqueued, retries (and the
    /// simulator's clones) included.
    pub const STAGE_MAP_ATTEMPTS: &str = "onepass_stage_map_attempts_total";
    /// Counter `{stage}`: attempts that errored.
    pub const STAGE_FAILED_ATTEMPTS: &str = "onepass_stage_failed_attempts_total";
    /// Counter `{stage}`: map input records.
    pub const ENGINE_RECORDS_IN: &str = "onepass_engine_records_in_total";
    /// Counter `{stage}`: sink emissions.
    pub const ENGINE_RECORDS_OUT: &str = "onepass_engine_records_out_total";
    /// Counter `{stage}`: shuffled payload bytes.
    pub const ENGINE_SHUFFLE_BYTES: &str = "onepass_engine_shuffle_bytes_total";
    /// Counter `{stage}`: shuffle segments.
    pub const ENGINE_SHUFFLE_SEGMENTS: &str = "onepass_engine_shuffle_segments_total";
    /// Counter `{stage,side,phase}`: per-phase busy time — a task's
    /// [`Profile`](crate::metrics::Profile), published when it finishes.
    pub const ENGINE_PHASE_MICROS: &str = "onepass_engine_phase_micros_total";
    /// Histogram `{stage}`: shuffled / emitted records per map task that
    /// shipped its own output (1.0 = the combiner saved nothing).
    pub const ENGINE_COMBINE_RATIO: &str = "onepass_engine_combine_ratio";
    /// Histogram `{stage}`: shuffled / absorbed records per combine-table
    /// flush — the ratio of every hash map task over a combinable
    /// aggregate while its map slot combines. Once a slot stops combining
    /// (`in_node.rs`) its attempts ship themselves and observe none here;
    /// each observes `onepass_engine_combine_ratio`, at 1.0.
    pub const INNODE_COMBINE_RATIO: &str = "onepass_innode_combine_ratio";
    /// Histogram `{stage}`: time to each partition's first final answer,
    /// against the job (or plan) clock.
    pub const PLAN_TTFA_SECONDS: &str = "onepass_plan_ttfa_seconds";
    /// Gauge `{stage}`: splits queued on the stage's outgoing plan edges,
    /// sampled after each flush.
    pub const PLAN_EDGE_DEPTH: &str = "onepass_plan_edge_depth";
    /// Gauge `{stage}`: the finished job's wall clock.
    pub const JOB_WALL_SECONDS: &str = "onepass_job_wall_seconds";
    /// Counter `{stage,dir}`: bytes on the coordinator's worker sockets.
    pub const TRANSPORT_BYTES: &str = "onepass_transport_bytes_total";
    /// Histogram `{stage}`: heartbeat round trips.
    pub const TRANSPORT_RTT_SECONDS: &str = "onepass_transport_rtt_seconds";
    /// Gauge: bytes resident in the dataset cache.
    pub const CACHE_RESIDENT_BYTES: &str = "onepass_cache_resident_bytes";
    /// Counter: fully-resident dataset fetches.
    pub const CACHE_HITS: &str = "onepass_cache_hits_total";
    /// Gauge: tenants seated.
    pub const SERVE_TENANTS: &str = "onepass_serve_tenants";
    /// Gauge: shared sessions open; tenants ÷ sessions is how many
    /// subscribers one pass over the stream serves.
    pub const SERVE_SESSIONS: &str = "onepass_serve_sessions";
    /// Counter: subscriptions admitted.
    pub const SERVE_ADMITTED: &str = "onepass_serve_admitted_total";
    /// Counter: subscriptions rejected.
    pub const SERVE_REJECTED: &str = "onepass_serve_rejected_total";
    /// Counter: records fed.
    pub const SERVE_INGEST_RECORDS: &str = "onepass_serve_ingest_records_total";
    /// Counter: early answers fanned out.
    pub const SERVE_EARLY_ANSWERS: &str = "onepass_serve_early_answers_total";
    /// Counter: final answers fanned out.
    pub const SERVE_FINAL_ANSWERS: &str = "onepass_serve_final_answers_total";
    /// Histogram: subscribe → first answer, over tenants.
    pub const SERVE_TTFA_SECONDS: &str = "onepass_serve_ttfa_seconds";
    /// Gauge `{tenant}`: that tenant's time to first answer.
    pub const SERVE_TENANT_TTFA_SECONDS: &str = "onepass_serve_tenant_ttfa_seconds";
    /// Histogram: gap between consecutive answers of a subscription.
    pub const SERVE_STALENESS_SECONDS: &str = "onepass_serve_answer_staleness_seconds";
    /// Counter: records a session's DLQ took in.
    pub const SERVE_DLQ_POISONED: &str = "onepass_serve_dlq_poisoned_total";
    /// Counter: DLQ records that succeeded on retry.
    pub const SERVE_DLQ_RECOVERED: &str = "onepass_serve_dlq_recovered_total";
    /// Counter: DLQ records given up on.
    pub const SERVE_DLQ_DEAD: &str = "onepass_serve_dlq_dead_total";
    /// Counter: governor sheds sessions honoured.
    pub const SERVE_SHEDS: &str = "onepass_serve_sheds_total";
    /// Counter: bytes those sheds freed.
    pub const SERVE_SHED_BYTES: &str = "onepass_serve_shed_bytes_total";
    /// Counter: feeds that stalled on the ingest pressure gate.
    pub const SERVE_BACKPRESSURE_STALLS: &str = "onepass_serve_backpressure_stalls_total";
}

/// Histogram bucket count: one bucket per binary exponent.
const NUM_BUCKETS: usize = 128;

/// Exponent of the lowest bucket: bucket 0 spans `[2^MIN_EXP, 2^(MIN_EXP+1))`,
/// i.e. everything below ~2.3e-10 (and all non-positive values) lands there.
/// The top bucket ends at `2^(MIN_EXP + NUM_BUCKETS)` = 2^96 — wide enough
/// for nanoseconds-to-hours durations and byte counts alike.
const MIN_EXP: i32 = -32;

/// Atomic f64 add via compare-exchange on the bit pattern.
fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing counter handle.
///
/// Cloning shares the underlying cell; `inc` is one relaxed atomic add.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not registered anywhere — updates go to a private cell.
    pub fn detached() -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The gate for optional metrics: `registry`'s cell when there is a
    /// registry, a detached one when metrics are off — so a probe site
    /// holds a handle, never an `Option` of one.
    pub fn of(registry: Option<&MetricsRegistry>, name: &str, labels: &[(&str, &str)]) -> Self {
        registry.map_or_else(Self::detached, |r| r.counter(name, labels))
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn inc(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

/// A last-value-wins gauge handle (stored as f64 bits in an atomic).
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// A gauge not registered anywhere (no-op default).
    pub fn detached() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0)),
        }
    }

    /// `registry`'s cell, or a detached one (see [`Counter::of`]).
    pub fn of(registry: Option<&MetricsRegistry>, name: &str, labels: &[(&str, &str)]) -> Self {
        registry.map_or_else(Self::detached, |r| r.gauge(name, labels))
    }

    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adjust the gauge by `delta` (CAS loop; still lock-free).
    #[inline]
    pub fn add(&self, delta: f64) {
        atomic_f64_add(&self.bits, delta);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gauge({})", self.value())
    }
}

struct HistogramCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    /// Sum of observed values, as f64 bits.
    sum_bits: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_upper_bound(i), n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

/// Bucket index for a value: its binary exponent, clamped into range.
/// Non-positive and subnormal values land in bucket 0.
fn bucket_index(v: f64) -> usize {
    // NaN fails the is_finite check, so the comparison never sees it.
    if v <= 0.0 || !v.is_finite() {
        return 0;
    }
    let exp = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    (exp - MIN_EXP).clamp(0, NUM_BUCKETS as i32 - 1) as usize
}

/// Exclusive upper bound of bucket `i`: `2^(MIN_EXP + i + 1)`.
fn bucket_upper_bound(i: usize) -> f64 {
    (2.0f64).powi(MIN_EXP + i as i32 + 1)
}

/// A log-bucketed histogram handle.
///
/// One bucket per power of two of the observed value; `observe` is two
/// relaxed atomic adds plus one CAS-loop f64 add for the sum. Quantiles
/// extracted from a snapshot are upper bounds with at most one octave
/// (2×) of relative error — plenty for "did TTFA regress 10×" questions,
/// at a fraction of the cost of exact reservoirs.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// A histogram not registered anywhere (no-op default).
    pub fn detached() -> Self {
        Histogram {
            core: Arc::new(HistogramCore::new()),
        }
    }

    /// `registry`'s cell, or a detached one (see [`Counter::of`]).
    pub fn of(registry: Option<&MetricsRegistry>, name: &str, labels: &[(&str, &str)]) -> Self {
        registry.map_or_else(Self::detached, |r| r.histogram(name, labels))
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        self.core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.core.sum_bits, v);
    }

    /// Record a duration, in seconds.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Snapshot the current bucket contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core.snapshot()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.snapshot();
        write!(f, "Histogram(count={}, sum={})", s.count, s.sum)
    }
}

/// A point-in-time copy of one histogram's buckets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Non-empty buckets as `(exclusive_upper_bound, count)`, ascending.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// containing that rank — i.e. a value `>=` the true quantile, within
    /// one octave. Returns `0.0` for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper;
            }
        }
        self.buckets.last().map(|&(u, _)| u).unwrap_or(0.0)
    }

    /// Mean of the observed values (exact — tracked as a running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A registered metric's atomic cell; its variant is the metric's kind.
#[derive(Clone)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        }
    }
}

/// A metric's identity: its name and its labels, sorted by label name.
type MetricKey = (String, Vec<(String, String)>);

struct RegistryInner {
    created: Instant,
    metrics: Mutex<BTreeMap<MetricKey, Cell>>,
}

/// The metrics registry: one ordered map from name and sorted labels to
/// a cell. Cloning shares the same metric set.
///
/// The lock is taken to register a metric (once per job, partition,
/// task or tenant, never per record) and to snapshot; updates go through
/// handles. Handles obtained from [`counter`](MetricsRegistry::counter) /
/// [`gauge`](MetricsRegistry::gauge) /
/// [`histogram`](MetricsRegistry::histogram) stay valid for the life of
/// the registry; asking twice for the same name + labels, in any label
/// order, returns a handle to the same cell.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricsRegistry({} metrics)", self.len())
    }
}

impl MetricsRegistry {
    /// An empty registry; `at_s` timestamps count from this instant.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                created: Instant::now(),
                metrics: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Seconds since the registry was created.
    pub fn elapsed_s(&self) -> f64 {
        self.inner.created.elapsed().as_secs_f64()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.metrics.lock().len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell registered under `name` + `labels`, made by `new` if there
    /// is none.
    ///
    /// # Panics
    /// If the cell there is not of `kind`.
    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: &'static str,
        new: fn() -> Cell,
    ) -> Cell {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let mut metrics = self.inner.metrics.lock();
        let cell = metrics
            .entry((name.to_string(), labels))
            .or_insert_with(new);
        assert!(
            cell.kind() == kind,
            "metric `{name}` already registered as a {}, requested as a {kind}",
            cell.kind()
        );
        cell.clone()
    }

    /// Get-or-register a counter.
    ///
    /// # Panics
    /// If `name` + `labels` was already registered with a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, labels, "counter", || Cell::Counter(Arc::default())) {
            Cell::Counter(cell) => Counter { cell },
            _ => unreachable!(),
        }
    }

    /// Get-or-register a gauge.
    ///
    /// # Panics
    /// If `name` + `labels` was already registered with a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, labels, "gauge", || Cell::Gauge(Arc::default())) {
            Cell::Gauge(bits) => Gauge { bits },
            _ => unreachable!(),
        }
    }

    /// Get-or-register a histogram.
    ///
    /// # Panics
    /// If `name` + `labels` was already registered with a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, labels, "histogram", || {
            Cell::Histogram(Arc::new(HistogramCore::new()))
        }) {
            Cell::Histogram(core) => Histogram { core },
            _ => unreachable!(),
        }
    }

    /// Snapshot every metric, sorted by name then labels (the map's own
    /// order).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self
            .inner
            .metrics
            .lock()
            .iter()
            .map(|((name, labels), cell)| MetricSample {
                name: name.clone(),
                labels: labels.clone(),
                value: match cell {
                    Cell::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => SampleValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                    Cell::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot {
            at_s: self.elapsed_s(),
            metrics,
        }
    }

    /// Render the whole registry in Prometheus text exposition format
    /// (version 0.0.4). Histograms are emitted as summaries with
    /// `quantile` labels for p50/p95/p99 plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        let mut last_name = "";
        for m in &snap.metrics {
            if m.name != last_name {
                let ty = match &m.value {
                    SampleValue::Counter(_) => "counter",
                    SampleValue::Gauge(_) => "gauge",
                    SampleValue::Histogram(_) => "summary",
                };
                out.push_str("# TYPE ");
                out.push_str(&m.name);
                out.push(' ');
                out.push_str(ty);
                out.push('\n');
            }
            match &m.value {
                SampleValue::Counter(v) => {
                    out.push_str(&m.name);
                    prom_labels(&mut out, &m.labels, None);
                    out.push(' ');
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&m.name);
                    prom_labels(&mut out, &m.labels, None);
                    out.push(' ');
                    out.push_str(&fmt_f64(*v));
                    out.push('\n');
                }
                SampleValue::Histogram(h) => {
                    for q in ["0.5", "0.95", "0.99"] {
                        out.push_str(&m.name);
                        prom_labels(&mut out, &m.labels, Some(q));
                        out.push(' ');
                        out.push_str(&fmt_f64(h.quantile(q.parse().unwrap())));
                        out.push('\n');
                    }
                    out.push_str(&m.name);
                    out.push_str("_sum");
                    prom_labels(&mut out, &m.labels, None);
                    out.push(' ');
                    out.push_str(&fmt_f64(h.sum));
                    out.push('\n');
                    out.push_str(&m.name);
                    out.push_str("_count");
                    prom_labels(&mut out, &m.labels, None);
                    out.push(' ');
                    out.push_str(&h.count.to_string());
                    out.push('\n');
                }
            }
            last_name = &m.name;
        }
        out
    }
}

/// Escape a Prometheus label value: backslash, double quote, newline.
fn prom_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn prom_labels(out: &mut String, labels: &[(String, String)], quantile: Option<&str>) {
    if labels.is_empty() && quantile.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&prom_escape(v));
        out.push('"');
    }
    if let Some(q) = quantile {
        if !first {
            out.push(',');
        }
        out.push_str("quantile=\"");
        out.push_str(q);
        out.push('"');
    }
    out.push('}');
}

/// One sampled metric inside a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric name (`onepass_<layer>_<name>`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SampleValue,
}

/// The value part of a [`MetricSample`].
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram bucket snapshot.
    Histogram(HistogramSnapshot),
}

/// A whole-registry snapshot at one instant.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Seconds since registry creation.
    pub at_s: f64,
    /// Every metric, sorted by name then labels.
    pub metrics: Vec<MetricSample>,
}

fn jsonl_labels(out: &mut String, labels: &[(String, String)]) {
    out.push_str("\"labels\":{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(&crate::json::escape(k));
        out.push_str("\":\"");
        out.push_str(&crate::json::escape(v));
        out.push('"');
    }
    out.push('}');
}

impl MetricsSnapshot {
    /// Render the snapshot as one JSONL line:
    ///
    /// ```json
    /// {"type":"metrics","at_s":1.5,
    ///  "counters":[{"name":"...","labels":{"stage":"s0"},"value":3}],
    ///  "gauges":[{"name":"...","labels":{},"value":0.5}],
    ///  "histograms":[{"name":"...","labels":{},"count":3,"sum":1.5,
    ///                 "p50":0.25,"p95":0.5,"p99":0.5}]}
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for m in &self.metrics {
            let (buf, tail) = match &m.value {
                SampleValue::Counter(v) => (&mut counters, format!("\"value\":{v}}}")),
                SampleValue::Gauge(v) => (&mut gauges, format!("\"value\":{}}}", fmt_f64(*v))),
                SampleValue::Histogram(h) => (
                    &mut histograms,
                    format!(
                        "\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                        h.count,
                        fmt_f64(h.sum),
                        fmt_f64(h.quantile(0.5)),
                        fmt_f64(h.quantile(0.95)),
                        fmt_f64(h.quantile(0.99)),
                    ),
                ),
            };
            if !buf.is_empty() {
                buf.push(',');
            }
            buf.push_str("{\"name\":\"");
            buf.push_str(&crate::json::escape(&m.name));
            buf.push_str("\",");
            jsonl_labels(buf, &m.labels);
            buf.push(',');
            buf.push_str(&tail);
        }
        format!(
            "{{\"type\":\"metrics\",\"at_s\":{},\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}]}}\n",
            fmt_f64(self.at_s),
            counters,
            gauges,
            histograms,
        )
    }

    /// Check one line against the schema [`to_jsonl`](Self::to_jsonl)
    /// writes (what `onepass metrics-validate` runs over a `--metrics-out`
    /// file). Returns the line's sample count, or what is wrong with it.
    pub fn check_jsonl_line(line: &str) -> std::result::Result<usize, String> {
        use crate::json::Json;
        let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).is_some();
        let doc = Json::parse(line).map_err(|_| "not valid JSON".to_string())?;
        if doc.get("type").and_then(Json::as_str) != Some("metrics") {
            return Err("missing \"type\":\"metrics\"".into());
        }
        if !num(&doc, "at_s") {
            return Err("missing numeric at_s".into());
        }
        // Each section with the numeric fields its entries carry.
        let sections: [(&str, &[&str]); 3] = [
            ("counters", &["value"]),
            ("gauges", &["value"]),
            ("histograms", &["count", "sum", "p50", "p95", "p99"]),
        ];
        let mut samples = 0;
        for (section, values) in sections {
            let entries = doc.get(section).and_then(Json::as_arr);
            for e in entries.ok_or_else(|| format!("missing {section} array"))? {
                let fault = if e.get("name").and_then(Json::as_str).is_none() {
                    "without a name"
                } else if e.get("labels").is_none() {
                    "without labels"
                } else if !values.iter().all(|k| num(e, k)) {
                    "with missing/non-numeric values"
                } else {
                    samples += 1;
                    continue;
                };
                return Err(format!("{section} entry {fault}"));
            }
        }
        Ok(samples)
    }

    /// Find a sample by name and (subset of) labels.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSample> {
        self.metrics.iter().find(|m| {
            m.name == name
                && labels
                    .iter()
                    .all(|(k, v)| m.labels.iter().any(|(mk, mv)| mk == k && mv == v))
        })
    }
}

/// Background thread snapshotting a registry on start and then on a
/// period, writing each snapshot to a writer as one JSONL line as it is
/// taken. Stopping (or dropping) the sampler writes a final snapshot and
/// flushes, so even a sub-period run yields two lines.
pub struct MetricsSampler {
    stop: mpsc::Sender<()>,
    handle: Option<JoinHandle<()>>,
}

impl fmt::Debug for MetricsSampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricsSampler(running={})", self.handle.is_some())
    }
}

impl MetricsSampler {
    /// Start sampling `registry` every `period`, streaming each snapshot
    /// to `writer`.
    pub fn start_streaming(
        registry: MetricsRegistry,
        period: Duration,
        mut writer: Box<dyn std::io::Write + Send>,
    ) -> Self {
        let (stop, stopped) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("metrics-sampler".into())
            .spawn(move || {
                let mut last = false;
                loop {
                    let _ = writer.write_all(registry.snapshot().to_jsonl().as_bytes());
                    if last {
                        break;
                    }
                    last = !matches!(
                        stopped.recv_timeout(period),
                        Err(mpsc::RecvTimeoutError::Timeout)
                    );
                }
                let _ = writer.flush();
            })
            .expect("spawn metrics-sampler");
        MetricsSampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the sampler once its final snapshot is written and flushed.
    /// Dropping it does this too; a second call does nothing.
    pub fn stop(&mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsSampler {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Longest request head [`MetricsServer`] reads before it answers anyway
/// (`GET /metrics` with a scraper's headers is a few hundred bytes).
const MAX_HEAD: usize = 8 << 10;
/// Longest [`MetricsServer`] waits for a request head, however it drips.
const HEAD_DEADLINE: Duration = Duration::from_secs(1);

/// A minimal blocking HTTP listener serving Prometheus text exposition.
///
/// Every request — the path is ignored — is answered `200 OK` with
/// `Content-Type: text/plain; version=0.0.4` and the current
/// [`MetricsRegistry::render_prometheus`] body. One connection is served
/// at a time; scrapers poll, they don't flood. Dropping the server stops
/// the listener thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricsServer({})", self.addr)
    }
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port) and
    /// serve `registry` until dropped.
    pub fn serve(registry: MetricsRegistry, addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("metrics-http".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((mut conn, _)) => {
                            let _ = conn.set_nonblocking(false);
                            let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
                            // Drain the request line + headers, best effort
                            // and bounded: a client that never terminates
                            // its head is answered (and closed) all the same.
                            let deadline = Instant::now() + HEAD_DEADLINE;
                            let mut head = [0u8; MAX_HEAD];
                            let mut filled = 0;
                            while filled < MAX_HEAD && Instant::now() < deadline {
                                match conn.read(&mut head[filled..]) {
                                    Ok(0) | Err(_) => break,
                                    Ok(n) => {
                                        // Scan the new bytes only, plus the
                                        // three a terminator may straddle.
                                        let from = filled.saturating_sub(3);
                                        filled += n;
                                        if head[from..filled].windows(4).any(|w| w == b"\r\n\r\n") {
                                            break;
                                        }
                                    }
                                }
                            }
                            let body = registry.render_prometheus();
                            let resp = format!(
                                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                                body.len(),
                                body
                            );
                            let _ = conn.write_all(resp.as_bytes());
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn metrics-http");
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("onepass_test_total", &[("stage", "s0")]);
        c.inc(3);
        c.inc(2);
        let g = reg.gauge("onepass_test_progress", &[]);
        g.set(0.25);
        g.add(0.25);
        let h = reg.histogram("onepass_test_seconds", &[]);
        h.observe(1.0);
        h.observe_duration(Duration::from_secs(1));

        assert_eq!(c.value(), 5);
        assert_eq!(g.value(), 0.5);
        let snap = reg.snapshot();
        assert_eq!(reg.len(), 3);
        match &snap
            .find("onepass_test_total", &[("stage", "s0")])
            .unwrap()
            .value
        {
            SampleValue::Counter(v) => assert_eq!(*v, 5),
            other => panic!("wrong kind: {other:?}"),
        }
        match &snap.find("onepass_test_seconds", &[]).unwrap().value {
            SampleValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 2.0);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn same_name_and_labels_share_a_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("onepass_shared_total", &[("k", "v")]);
        let b = reg.counter("onepass_shared_total", &[("k", "v")]);
        a.inc(1);
        b.inc(1);
        assert_eq!(a.value(), 2);
        // Different labels are a different cell.
        let c = reg.counter("onepass_shared_total", &[("k", "w")]);
        assert_eq!(c.value(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _c = reg.counter("onepass_kind_total", &[]);
        let _g = reg.gauge("onepass_kind_total", &[]);
    }

    // Satellite: quantile extraction pinned at bucket boundaries.
    #[test]
    fn histogram_quantiles_at_bucket_boundaries() {
        let h = Histogram::detached();
        // 1.0 has exponent 0 → bucket [1, 2); every quantile reports the
        // bucket's upper bound.
        for _ in 0..100 {
            h.observe(1.0);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 2.0);
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!(s.quantile(0.99), 2.0);
        assert_eq!(s.quantile(1.0), 2.0);
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    fn histogram_exact_powers_of_two_fall_in_their_own_bucket() {
        let h = Histogram::detached();
        // One observation per bucket: 1, 2, 4, 8 land in [1,2), [2,4),
        // [4,8), [8,16) respectively.
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets.len(), 4);
        assert_eq!(s.buckets[0], (2.0, 1));
        assert_eq!(s.buckets[3], (16.0, 1));
        // rank(0.5 * 4) = 2 → second bucket's upper bound.
        assert_eq!(s.quantile(0.5), 4.0);
        // rank(0.75 * 4) = 3 → third bucket.
        assert_eq!(s.quantile(0.75), 8.0);
        assert_eq!(s.quantile(1.0), 16.0);
    }

    #[test]
    fn histogram_boundary_value_just_below_a_power_stays_below() {
        let h = Histogram::detached();
        // 2.0 - ulp is still in [1, 2); 2.0 itself is in [2, 4).
        h.observe(1.9999999999999998);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(2.0, 1)]);
    }

    #[test]
    fn histogram_pathological_values_clamp_to_bucket_zero() {
        let h = Histogram::detached();
        h.observe(0.0);
        h.observe(-5.0);
        h.observe(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets.len(), 1);
        assert_eq!(s.buckets[0].1, 3);
        // The shared bottom bucket's upper bound: 2^(MIN_EXP + 1).
        assert_eq!(s.buckets[0].0, (2.0f64).powi(MIN_EXP + 1));
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let s = Histogram::detached().snapshot();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("onepass_a_total", &[("stage", "s\"0")]).inc(7);
        reg.gauge("onepass_b", &[]).set(1.5);
        reg.histogram("onepass_c_seconds", &[]).observe(1.0);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE onepass_a_total counter\n"));
        assert!(text.contains("onepass_a_total{stage=\"s\\\"0\"} 7\n"));
        assert!(text.contains("# TYPE onepass_b gauge\n"));
        assert!(text.contains("onepass_b 1.5\n"));
        assert!(text.contains("# TYPE onepass_c_seconds summary\n"));
        assert!(text.contains("onepass_c_seconds{quantile=\"0.5\"} 2\n"));
        assert!(text.contains("onepass_c_seconds_sum 1\n"));
        assert!(text.contains("onepass_c_seconds_count 1\n"));
        // Every non-comment line is `name{...} value` with a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, val) = line.rsplit_once(' ').expect("value separator");
            val.parse::<f64>().expect("numeric value");
        }
    }

    #[test]
    fn snapshot_jsonl_parses_and_carries_sections() {
        let reg = MetricsRegistry::new();
        reg.counter("onepass_a_total", &[("stage", "s0")]).inc(7);
        reg.gauge("onepass_b", &[]).set(0.5);
        reg.histogram("onepass_c_seconds", &[]).observe(0.25);
        let line = reg.snapshot().to_jsonl();
        assert!(line.ends_with('\n'));
        let doc = Json::parse(line.trim()).expect("valid JSON");
        assert_eq!(doc.get("type").and_then(Json::as_str), Some("metrics"));
        assert!(doc.get("at_s").and_then(Json::as_f64).is_some());
        let counters = doc.get("counters").and_then(Json::as_arr).unwrap();
        assert_eq!(counters.len(), 1);
        assert_eq!(
            counters[0].get("name").and_then(Json::as_str),
            Some("onepass_a_total")
        );
        assert_eq!(counters[0].get("value").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            counters[0]
                .get("labels")
                .and_then(|l| l.get("stage"))
                .and_then(Json::as_str),
            Some("s0")
        );
        let hists = doc.get("histograms").and_then(Json::as_arr).unwrap();
        assert_eq!(hists[0].get("count").and_then(Json::as_f64), Some(1.0));
        assert!(hists[0].get("p95").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn snapshot_lines_pass_the_schema_check_and_broken_ones_fail() {
        let reg = MetricsRegistry::new();
        assert_eq!(
            MetricsSnapshot::check_jsonl_line(reg.snapshot().to_jsonl().trim()),
            Ok(0)
        );
        reg.counter("onepass_a_total", &[("stage", "s\"0")]).inc(7);
        reg.counter("onepass_b_total", &[]).inc(1);
        reg.gauge("onepass_c", &[("side", "map")]).set(-0.5);
        reg.histogram("onepass_d_seconds", &[]).observe(0.25);
        let line = reg.snapshot().to_jsonl();
        assert_eq!(MetricsSnapshot::check_jsonl_line(line.trim()), Ok(4));

        let broken = [
            ("{\"type\":\"metrics\"", "not valid JSON"),
            (
                "{\"at_s\":1,\"counters\":[],\"gauges\":[],\"histograms\":[]}",
                "missing \"type\":\"metrics\"",
            ),
            (
                "{\"type\":\"metrics\",\"at_s\":\"1\",\"counters\":[],\"gauges\":[],\"histograms\":[]}",
                "missing numeric at_s",
            ),
            (
                "{\"type\":\"metrics\",\"at_s\":1,\"counters\":[],\"histograms\":[]}",
                "missing gauges array",
            ),
            (
                "{\"type\":\"metrics\",\"at_s\":1,\"counters\":[{\"labels\":{},\"value\":1}],\"gauges\":[],\"histograms\":[]}",
                "counters entry without a name",
            ),
            (
                "{\"type\":\"metrics\",\"at_s\":1,\"counters\":[],\"gauges\":[{\"name\":\"g\",\"value\":1}],\"histograms\":[]}",
                "gauges entry without labels",
            ),
            (
                "{\"type\":\"metrics\",\"at_s\":1,\"counters\":[{\"name\":\"c\",\"labels\":{},\"value\":\"7\"}],\"gauges\":[],\"histograms\":[]}",
                "counters entry with missing/non-numeric values",
            ),
            (
                "{\"type\":\"metrics\",\"at_s\":1,\"counters\":[],\"gauges\":[],\"histograms\":[{\"name\":\"h\",\"labels\":{},\"count\":1,\"sum\":1,\"p50\":1,\"p95\":1}]}",
                "histograms entry with missing/non-numeric values",
            ),
        ];
        for (line, why) in broken {
            assert_eq!(
                MetricsSnapshot::check_jsonl_line(line),
                Err(why.to_string()),
                "{line}"
            );
        }
    }

    /// A writer the test keeps a handle on while the sampler owns a clone.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn lines(&self) -> Vec<String> {
            let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
            text.lines().map(str::to_string).collect()
        }
    }

    #[test]
    fn sampler_collects_snapshots() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("onepass_work_total", &[]);
        c.inc(1);
        let buf = SharedBuf::default();
        let mut sampler =
            MetricsSampler::start_streaming(reg, Duration::from_millis(5), Box::new(buf.clone()));
        // Wait for the start line and a periodic one to reach the writer,
        // not for time to pass; then `stop` writes the final one, which
        // sees this update.
        while buf.lines().len() < 2 {
            std::thread::yield_now();
        }
        c.inc(9);
        sampler.stop();
        let lines = buf.lines();
        assert!(
            lines.len() >= 3,
            "the start line, a periodic one and the final one"
        );
        for line in &lines {
            assert_eq!(MetricsSnapshot::check_jsonl_line(line), Ok(1), "{line}");
        }
        let last = Json::parse(lines.last().unwrap()).unwrap();
        let counters = last.get("counters").and_then(Json::as_arr).unwrap();
        assert_eq!(counters[0].get("value").and_then(Json::as_f64), Some(10.0));
    }

    #[test]
    fn threads_registering_one_name_in_any_label_order_share_one_cell() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let reg = &reg;
                s.spawn(move || {
                    let labels = [("stage", "s0"), ("side", "map"), ("dir", "in")];
                    let mut order = labels.to_vec();
                    order.rotate_left(t as usize % 3);
                    if t % 2 == 1 {
                        order.reverse();
                    }
                    let c = reg.counter("onepass_race_total", &order);
                    for _ in 0..1000 {
                        c.inc(t + 1);
                    }
                });
            }
        });
        assert_eq!(reg.len(), 1);
        let c = reg.counter(
            "onepass_race_total",
            &[("dir", "in"), ("side", "map"), ("stage", "s0")],
        );
        assert_eq!(c.value(), 1000 * (1..=8).sum::<u64>());
    }

    /// Both exporters of a fixed registry, pinned as text: names and
    /// label sets in sorted order whatever order they were registered or
    /// labelled in.
    #[test]
    fn exporters_render_a_fixed_registry_as_pinned_text() {
        let reg = MetricsRegistry::new();
        reg.histogram("onepass_c_seconds", &[("stage", "s1")])
            .observe(0.25);
        reg.gauge("onepass_b", &[("tenant", "t\"2"), ("side", "map")])
            .set(-0.5);
        reg.counter("onepass_a_total", &[("stage", "s1"), ("dir", "out")])
            .inc(7);
        reg.counter("onepass_a_total", &[("stage", "s0"), ("dir", "out")])
            .inc(3);
        let h = reg.histogram("onepass_c_seconds", &[("stage", "s0")]);
        for v in [1.0, 3.0, 3.5] {
            h.observe(v);
        }
        reg.gauge("onepass_b", &[]).set(2.0);
        let mut snap = reg.snapshot();
        snap.at_s = 1.5;
        assert_eq!(reg.render_prometheus(), PINNED_PROMETHEUS);
        assert_eq!(snap.to_jsonl(), PINNED_JSONL);
    }

    const PINNED_PROMETHEUS: &str = "\
# TYPE onepass_a_total counter
onepass_a_total{dir=\"out\",stage=\"s0\"} 3
onepass_a_total{dir=\"out\",stage=\"s1\"} 7
# TYPE onepass_b gauge
onepass_b 2
onepass_b{side=\"map\",tenant=\"t\\\"2\"} -0.5
# TYPE onepass_c_seconds summary
onepass_c_seconds{stage=\"s0\",quantile=\"0.5\"} 4
onepass_c_seconds{stage=\"s0\",quantile=\"0.95\"} 4
onepass_c_seconds{stage=\"s0\",quantile=\"0.99\"} 4
onepass_c_seconds_sum{stage=\"s0\"} 7.5
onepass_c_seconds_count{stage=\"s0\"} 3
onepass_c_seconds{stage=\"s1\",quantile=\"0.5\"} 0.5
onepass_c_seconds{stage=\"s1\",quantile=\"0.95\"} 0.5
onepass_c_seconds{stage=\"s1\",quantile=\"0.99\"} 0.5
onepass_c_seconds_sum{stage=\"s1\"} 0.25
onepass_c_seconds_count{stage=\"s1\"} 1
";
    const PINNED_JSONL: &str = concat!(
        "{\"type\":\"metrics\",\"at_s\":1.5,",
        "\"counters\":[",
        "{\"name\":\"onepass_a_total\",\"labels\":{\"dir\":\"out\",\"stage\":\"s0\"},\"value\":3},",
        "{\"name\":\"onepass_a_total\",\"labels\":{\"dir\":\"out\",\"stage\":\"s1\"},\"value\":7}],",
        "\"gauges\":[",
        "{\"name\":\"onepass_b\",\"labels\":{},\"value\":2},",
        "{\"name\":\"onepass_b\",\"labels\":{\"side\":\"map\",\"tenant\":\"t\\\"2\"},\"value\":-0.5}],",
        "\"histograms\":[",
        "{\"name\":\"onepass_c_seconds\",\"labels\":{\"stage\":\"s0\"},",
        "\"count\":3,\"sum\":7.5,\"p50\":4,\"p95\":4,\"p99\":4},",
        "{\"name\":\"onepass_c_seconds\",\"labels\":{\"stage\":\"s1\"},",
        "\"count\":1,\"sum\":0.25,\"p50\":0.5,\"p95\":0.5,\"p99\":0.5}]}\n",
    );

    #[test]
    fn http_server_answers_with_exposition() {
        use std::io::{Read, Write};
        let reg = MetricsRegistry::new();
        reg.counter("onepass_http_total", &[]).inc(42);
        let server = MetricsServer::serve(reg, "127.0.0.1:0").expect("bind");
        let mut conn = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"));
        assert!(resp.contains("text/plain; version=0.0.4"));
        assert!(resp.contains("onepass_http_total 42\n"));
    }

    /// A client that streams a request head with no terminator is cut off
    /// at the head cap instead of being buffered (and rescanned) for as
    /// long as it cares to send, and the accept thread serves the next
    /// scraper.
    #[test]
    fn http_server_cuts_off_a_head_that_never_ends() {
        use std::io::{Read, Write};
        let reg = MetricsRegistry::new();
        reg.counter("onepass_http_total", &[]).inc(7);
        let server = MetricsServer::serve(reg, "127.0.0.1:0").expect("bind");
        let mut hostile = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        let started = Instant::now();
        let chunk = [b'x'; 4096];
        let mut sent = 0usize;
        // Stream until the server hangs up (a write fails) or 5 s pass.
        while started.elapsed() < Duration::from_secs(5) && hostile.write_all(&chunk).is_ok() {
            sent += chunk.len();
        }
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "server took {sent} bytes of request head and never hung up"
        );
        drop(hostile);
        let mut conn = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        conn.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        assert!(resp.contains("onepass_http_total 7\n"), "{resp}");
    }
}
