//! The `onepass_serve_*` metrics family.
//!
//! All instruments live in the engine's [`MetricsRegistry`] so the
//! existing exporters (Prometheus endpoint, JSONL sampler) serve them
//! with no extra plumbing. Per-tenant time-to-first-answer is exported as
//! a labeled gauge (`tenant="..."`) so a scraper can assert every tenant
//! actually got an answer — the serving smoke test does exactly that —
//! while the unlabeled histogram carries the p50/p99 the load harness
//! reports.

use std::time::Duration;

use onepass_core::obs::{names, Counter, Gauge, Histogram, MetricsRegistry};

use super::tenant::TenantClose;

/// The family's instruments, each the [`names`] constant of the same
/// name: registered cells, or detached ones when the registry is off.
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
    backpressure_stalls_total: Counter,
}

impl ServeMetrics {
    pub(crate) fn new(registry: Option<MetricsRegistry>) -> ServeMetrics {
        let r = registry.as_ref();
        let counter = |name| Counter::of(r, name, &[]);
        let gauge = |name| Gauge::of(r, name, &[]);
        let histogram = |name| Histogram::of(r, name, &[]);
        ServeMetrics {
            tenants_active: gauge(names::SERVE_TENANTS),
            sessions: gauge(names::SERVE_SESSIONS),
            admitted_total: counter(names::SERVE_ADMITTED),
            rejected_total: counter(names::SERVE_REJECTED),
            ingest_records_total: counter(names::SERVE_INGEST_RECORDS),
            early_answers_total: counter(names::SERVE_EARLY_ANSWERS),
            final_answers_total: counter(names::SERVE_FINAL_ANSWERS),
            ttfa_seconds: histogram(names::SERVE_TTFA_SECONDS),
            staleness_seconds: histogram(names::SERVE_STALENESS_SECONDS),
            dlq_poisoned_total: counter(names::SERVE_DLQ_POISONED),
            dlq_recovered_total: counter(names::SERVE_DLQ_RECOVERED),
            dlq_dead_total: counter(names::SERVE_DLQ_DEAD),
            sheds_total: counter(names::SERVE_SHEDS),
            shed_bytes_total: counter(names::SERVE_SHED_BYTES),
            backpressure_stalls_total: counter(names::SERVE_BACKPRESSURE_STALLS),
            registry,
        }
    }

    /// The ingest backpressure stall counter, for the pressure gate.
    pub(crate) fn backpressure_stalls(&self) -> Counter {
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
            r.gauge(names::SERVE_TENANT_TTFA_SECONDS, &[("tenant", tenant)])
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
