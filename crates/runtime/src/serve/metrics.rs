//! The `onepass_serve_*` metrics family.
//!
//! All instruments live in the engine's [`MetricsRegistry`] so the
//! existing exporters (Prometheus endpoint, JSONL sampler) serve them
//! with no extra plumbing. Per-tenant time-to-first-answer is exported as
//! a labeled gauge (`tenant="..."`) so a scraper can assert every tenant
//! actually got an answer — the serving smoke test does exactly that —
//! while the unlabeled histogram carries the p50/p99 the load harness
//! reports.

use std::sync::Mutex;
use std::time::Duration;

use onepass_core::obs::{Counter, Gauge, Histogram, MetricsRegistry};

use super::tenant::TenantClose;

/// Registered instruments; every probe no-ops when the registry is off.
pub(crate) struct ServeMetrics {
    registry: Option<MetricsRegistry>,
    tenants_active: Gauge,
    sessions: Gauge,
    admitted_total: Counter,
    rejected_total: Counter,
    ingest_records_total: Counter,
    early_answers_total: Counter,
    final_answers_total: Counter,
    ttfa_seconds: Histogram,
    staleness_seconds: Histogram,
    dlq_poisoned_total: Counter,
    dlq_recovered_total: Counter,
    dlq_dead_total: Counter,
    sheds_total: Counter,
    shed_bytes_total: Counter,
    backpressure_stalls_total: Option<Counter>,
    /// Guards per-tenant gauge creation (shard workers race).
    tenant_gauge_lock: Mutex<()>,
}

impl ServeMetrics {
    pub(crate) fn new(registry: Option<MetricsRegistry>) -> ServeMetrics {
        match registry {
            None => ServeMetrics {
                registry: None,
                tenants_active: Gauge::detached(),
                sessions: Gauge::detached(),
                admitted_total: Counter::detached(),
                rejected_total: Counter::detached(),
                ingest_records_total: Counter::detached(),
                early_answers_total: Counter::detached(),
                final_answers_total: Counter::detached(),
                ttfa_seconds: Histogram::detached(),
                staleness_seconds: Histogram::detached(),
                dlq_poisoned_total: Counter::detached(),
                dlq_recovered_total: Counter::detached(),
                dlq_dead_total: Counter::detached(),
                sheds_total: Counter::detached(),
                shed_bytes_total: Counter::detached(),
                backpressure_stalls_total: None,
                tenant_gauge_lock: Mutex::new(()),
            },
            Some(r) => ServeMetrics {
                tenants_active: r.gauge("onepass_serve_tenants", &[]),
                sessions: r.gauge("onepass_serve_sessions", &[]),
                admitted_total: r.counter("onepass_serve_admitted_total", &[]),
                rejected_total: r.counter("onepass_serve_rejected_total", &[]),
                ingest_records_total: r.counter("onepass_serve_ingest_records_total", &[]),
                early_answers_total: r.counter("onepass_serve_early_answers_total", &[]),
                final_answers_total: r.counter("onepass_serve_final_answers_total", &[]),
                ttfa_seconds: r.histogram("onepass_serve_ttfa_seconds", &[]),
                staleness_seconds: r.histogram("onepass_serve_answer_staleness_seconds", &[]),
                dlq_poisoned_total: r.counter("onepass_serve_dlq_poisoned_total", &[]),
                dlq_recovered_total: r.counter("onepass_serve_dlq_recovered_total", &[]),
                dlq_dead_total: r.counter("onepass_serve_dlq_dead_total", &[]),
                sheds_total: r.counter("onepass_serve_sheds_total", &[]),
                shed_bytes_total: r.counter("onepass_serve_shed_bytes_total", &[]),
                backpressure_stalls_total: Some(
                    r.counter("onepass_serve_backpressure_stalls_total", &[]),
                ),
                tenant_gauge_lock: Mutex::new(()),
                registry: Some(r),
            },
        }
    }

    /// The ingest backpressure stall counter, for the pressure gate.
    pub(crate) fn backpressure_stalls(&self) -> Option<Counter> {
        self.backpressure_stalls_total.clone()
    }

    pub(crate) fn on_admitted(&self, active_now: usize) {
        self.admitted_total.inc(1);
        self.tenants_active.set(active_now as f64);
    }

    pub(crate) fn on_rejected(&self) {
        self.rejected_total.inc(1);
    }

    pub(crate) fn set_active(&self, active_now: usize) {
        self.tenants_active.set(active_now as f64);
    }

    /// Shared sessions opened (`+`) or dropped (`-`); tenants ÷ sessions
    /// is how many subscribers one pass over the stream serves.
    pub(crate) fn on_sessions(&self, delta: i64) {
        self.sessions.add(delta as f64);
    }

    pub(crate) fn on_ingest(&self, records: u64) {
        self.ingest_records_total.inc(records);
    }

    pub(crate) fn on_answers(&self, n: u64, is_final: bool) {
        if is_final {
            self.final_answers_total.inc(n);
        } else {
            self.early_answers_total.inc(n);
        }
    }

    /// Record a tenant's time-to-first-answer: once into the family
    /// histogram, once into a per-tenant labeled gauge.
    pub(crate) fn on_first_answer(&self, tenant: &str, ttfa: Duration) {
        self.ttfa_seconds.observe_duration(ttfa);
        if let Some(r) = &self.registry {
            let _guard = self.tenant_gauge_lock.lock().expect("tenant gauge lock");
            r.gauge("onepass_serve_tenant_ttfa_seconds", &[("tenant", tenant)])
                .set(ttfa.as_secs_f64().max(f64::MIN_POSITIVE));
        }
    }

    pub(crate) fn on_staleness(&self, gap: Duration) {
        self.staleness_seconds.observe_duration(gap);
    }

    /// A session closed: its DLQ totals and sheds, counted once however
    /// many tenants subscribed to it.
    pub(crate) fn on_close(&self, close: &TenantClose, sheds: u64, shed_bytes: u64) {
        self.dlq_poisoned_total.inc(close.dlq_poisoned);
        self.dlq_recovered_total.inc(close.dlq_recovered);
        self.dlq_dead_total.inc(close.dlq_dead);
        self.sheds_total.inc(sheds);
        self.shed_bytes_total.inc(shed_bytes);
    }
}
