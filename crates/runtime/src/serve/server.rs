//! The in-process multi-tenant serving core.
//!
//! One [`Server`] owns a shared ingest stream, a job-wide
//! [`MemoryGovernor`] pool, fair-share admission, and a fixed set of
//! *shard* worker threads. Tenants are sharded at admission; each shard
//! worker owns its tenants' [`TenantSession`]s outright (no per-tenant
//! locking) and feeds every ingest batch to each of them in turn. Early
//! answers flow to per-tenant event channels as they surface; finals flow
//! at close.
//!
//! Backpressure: every shard queue is gated by the engine's
//! [`PressureGate`] on the shared governor — when tenant hash state
//! pushes the pool over its high-water mark, ingest stalls on a shrunken
//! queue depth until the governor's cross-tenant rebalancing and shedding
//! catch up. A tenant that stops draining its events slows only its own
//! channel; a disconnected tenant (dropped receiver) is detached and its
//! seat and leases are released.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use onepass_core::error::{Error, Result};
use onepass_core::governor::MemoryGovernor;
use onepass_core::obs::MetricsRegistry;

use crate::shuffle::PressureGate;
use crate::stream::{SessionOptions, StreamAnswer};

use super::admission::{AdmissionConfig, FairShareAdmission};
use super::dlq::DlqConfig;
use super::metrics::ServeMetrics;
use super::query::QueryCatalog;
use super::tenant::{TenantClose, TenantSession};

/// Serving configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Global memory pool shared by every tenant's sessions, bytes.
    pub pool_bytes: usize,
    /// Spill policy arbitrating shed victims *across* tenants.
    pub policy: Arc<dyn onepass_core::governor::SpillPolicy>,
    /// Pool fraction above which ingest backpressure engages.
    pub high_water: f64,
    /// Admission control knobs.
    pub admission: AdmissionConfig,
    /// Shard worker threads tenants are distributed over.
    pub shards: usize,
    /// Bounded depth of each shard's ingest queue, in batches.
    pub queue_depth: usize,
    /// Per-tenant dead-letter queue knobs.
    pub dlq: DlqConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pool_bytes: 256 << 20,
            policy: onepass_core::governor::policy_by_name("largest-consumer")
                .expect("largest-consumer is registered"),
            high_water: onepass_core::governor::DEFAULT_HIGH_WATER,
            admission: AdmissionConfig::default(),
            shards: 4,
            queue_depth: 64,
            dlq: DlqConfig::default(),
        }
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("pool_bytes", &self.pool_bytes)
            .field("shards", &self.shards)
            .field("max_tenants", &self.admission.max_tenants)
            .finish()
    }
}

/// What a tenant's event channel delivers.
#[derive(Debug)]
pub enum TenantEvent {
    /// Early answers surfaced mid-stream by stage 0's incremental hash.
    Early(Vec<StreamAnswer>),
    /// The tenant's final answers and accounting, delivered once at
    /// stream close. The channel closes afterwards.
    Final(TenantClose),
    /// The tenant's session failed; the tenant has been detached.
    Error(String),
}

/// The subscriber's end of a tenant: an event stream.
pub struct TenantHandle {
    /// Tenant id.
    pub id: String,
    /// Subscribed query name.
    pub query: String,
    events: Receiver<TenantEvent>,
}

impl std::fmt::Debug for TenantHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantHandle")
            .field("id", &self.id)
            .field("query", &self.query)
            .finish()
    }
}

impl TenantHandle {
    /// The live event stream.
    pub fn events(&self) -> &Receiver<TenantEvent> {
        &self.events
    }

    /// Block until the final answers arrive, collecting any early
    /// answers seen on the way. Errors if the tenant failed or the
    /// server went away without closing.
    pub fn wait_final(&self) -> Result<(Vec<StreamAnswer>, TenantClose)> {
        let mut earlies = Vec::new();
        loop {
            match self.events.recv() {
                Ok(TenantEvent::Early(a)) => earlies.extend(a),
                Ok(TenantEvent::Final(close)) => return Ok((earlies, close)),
                Ok(TenantEvent::Error(e)) => {
                    return Err(Error::InvalidState(format!(
                        "tenant {} failed: {e}",
                        self.id
                    )))
                }
                Err(_) => {
                    return Err(Error::InvalidState(format!(
                        "tenant {}'s server went away before close",
                        self.id
                    )))
                }
            }
        }
    }
}

struct TenantState {
    session: TenantSession,
    /// Ingest family the tenant's query consumes; batches of any other
    /// family skip this tenant.
    ingest: Arc<str>,
    events: Sender<TenantEvent>,
    admitted_at: Instant,
    answered: bool,
    last_emit: Instant,
}

enum ShardMsg {
    Admit(Box<TenantState>),
    Batch(Arc<str>, Arc<Vec<Vec<u8>>>),
    Close,
}

struct Shard {
    tx: Sender<ShardMsg>,
}

struct Shared {
    admission: FairShareAdmission,
    metrics: ServeMetrics,
}

/// The multi-tenant serving core. Cheap to clone handles are not needed
/// — share via `Arc<Server>` or borrow.
pub struct Server {
    config: ServeConfig,
    catalog: QueryCatalog,
    governor: MemoryGovernor,
    gate: PressureGate,
    shared: Arc<Shared>,
    shards: Vec<Shard>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_shard: AtomicUsize,
    closed: AtomicBool,
    ingest_records: AtomicU64,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("active_tenants", &self.shared.admission.active())
            .finish()
    }
}

impl Server {
    /// Start the serving core: spawn shard workers, build the shared
    /// governor pool. `registry` enables the `onepass_serve_*` metrics
    /// family (pass `None` to skip every probe).
    pub fn start(
        config: ServeConfig,
        catalog: QueryCatalog,
        registry: Option<MetricsRegistry>,
    ) -> Result<Server> {
        if config.shards == 0 {
            return Err(Error::Config("serve needs at least one shard".into()));
        }
        super::install_poison_panic_filter();
        let governor = MemoryGovernor::new(
            config.pool_bytes,
            Arc::clone(&config.policy),
            config.high_water,
        );
        let metrics = ServeMetrics::new(registry);
        let gate = PressureGate::new(governor.clone(), config.queue_depth);
        let gate = match metrics.backpressure_stalls() {
            Some(c) => gate.with_stall_metric(c),
            None => gate,
        };
        let shared = Arc::new(Shared {
            admission: FairShareAdmission::new(config.admission, config.pool_bytes),
            metrics,
        });
        let mut shards = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let (tx, rx) = bounded::<ShardMsg>(config.queue_depth);
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("serve-shard-{i}"))
                .spawn(move || shard_worker(rx, shared))
                .expect("spawn shard worker");
            shards.push(Shard { tx });
            workers.push(handle);
        }
        Ok(Server {
            config,
            catalog,
            governor,
            gate,
            shared,
            shards,
            workers: Mutex::new(workers),
            next_shard: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            ingest_records: AtomicU64::new(0),
        })
    }

    /// The serving catalog.
    pub fn catalog(&self) -> &QueryCatalog {
        &self.catalog
    }

    /// The shared governor (for introspection).
    pub fn governor(&self) -> &MemoryGovernor {
        &self.governor
    }

    /// Active tenants right now.
    pub fn active_tenants(&self) -> usize {
        self.shared.admission.active()
    }

    /// Admission counter snapshot (admitted / queued / rejected).
    pub fn admission_counters(&self) -> super::admission::AdmissionCounters {
        self.shared.admission.counters()
    }

    /// Admit a tenant for `query`. Blocks (bounded) while the house is
    /// full; errors on rejection or unknown query. The returned handle's
    /// event channel delivers early answers as they surface and the final
    /// answers at [`Server::close`].
    pub fn subscribe(&self, tenant_id: &str, query: &str) -> Result<TenantHandle> {
        if self.closed.load(Ordering::Acquire) {
            return Err(Error::InvalidState("server is closed".into()));
        }
        let compiled = self.catalog.resolve(query)?;
        let share = self.shared.admission.admit().map_err(|e| {
            self.shared.metrics.on_rejected();
            Error::InvalidState(format!("tenant {tenant_id} rejected: {e}"))
        })?;
        let partitions = compiled.total_partitions().max(1);
        let opts = SessionOptions {
            governor: Some(self.governor.clone()),
            lease_bytes: Some((share / partitions).max(1024)),
        };
        let session = match TenantSession::open(tenant_id, query, &compiled, &opts, self.config.dlq)
        {
            Ok(s) => s,
            Err(e) => {
                self.shared.admission.release();
                return Err(e);
            }
        };
        let (tx, rx) = unbounded();
        let state = Box::new(TenantState {
            session,
            ingest: Arc::from(compiled.ingest.as_str()),
            events: tx,
            admitted_at: Instant::now(),
            answered: false,
            last_emit: Instant::now(),
        });
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        if self.shards[shard].tx.send(ShardMsg::Admit(state)).is_err() {
            self.shared.admission.release();
            return Err(Error::InvalidState("server shards are gone".into()));
        }
        self.shared
            .metrics
            .on_admitted(self.shared.admission.active());
        Ok(TenantHandle {
            id: tenant_id.to_string(),
            query: query.to_string(),
            events: rx,
        })
    }

    /// Feed one ingest batch of `family` records to every tenant whose
    /// query consumes that family. Applies governor backpressure per
    /// shard queue before enqueueing.
    pub fn feed(&self, family: &str, records: Vec<Vec<u8>>) -> Result<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(Error::InvalidState("server is closed".into()));
        }
        self.ingest_records
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        self.shared.metrics.on_ingest(records.len() as u64);
        let family: Arc<str> = Arc::from(family);
        let batch = Arc::new(records);
        for shard in &self.shards {
            self.gate.admit(&shard.tx);
            shard
                .tx
                .send(ShardMsg::Batch(Arc::clone(&family), Arc::clone(&batch)))
                .map_err(|_| Error::InvalidState("server shards are gone".into()))?;
        }
        Ok(())
    }

    /// Records ingested so far.
    pub fn ingest_records(&self) -> u64 {
        self.ingest_records.load(Ordering::Relaxed)
    }

    /// Close the ingest stream: every tenant's cascade closes and its
    /// finals are delivered on its event channel; shard workers exit.
    /// Idempotent.
    pub fn close(&self) -> Result<()> {
        if self.closed.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        for shard in &self.shards {
            // A shard whose worker already exited has hung up; ignore.
            let _ = shard.tx.send(ShardMsg::Close);
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for w in workers {
            w.join()
                .map_err(|_| Error::InvalidState("serve shard worker panicked".into()))?;
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// One shard worker: owns its tenants, feeds them every batch, ships
/// events, and closes them at end of stream.
fn shard_worker(rx: Receiver<ShardMsg>, shared: Arc<Shared>) {
    let mut tenants: Vec<TenantState> = Vec::new();
    let release = |n: usize| {
        for _ in 0..n {
            shared.admission.release();
        }
        shared.metrics.set_active(shared.admission.active());
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Admit(state) => tenants.push(*state),
            ShardMsg::Batch(family, batch) => {
                let mut dropped = 0;
                tenants.retain_mut(|t| {
                    let keep = feed_tenant(t, &family, &batch, &shared);
                    if !keep {
                        dropped += 1;
                    }
                    keep
                });
                if dropped > 0 {
                    release(dropped);
                }
            }
            ShardMsg::Close => {
                let n = tenants.len();
                for t in tenants.drain(..) {
                    let TenantState {
                        session,
                        ingest: _,
                        events,
                        admitted_at,
                        answered,
                        last_emit,
                    } = t;
                    let (sheds, shed_bytes) = session.shed_stats();
                    let tenant_id = session.id().to_string();
                    match session.close() {
                        Ok(close) => {
                            let now = Instant::now();
                            if !answered {
                                shared
                                    .metrics
                                    .on_first_answer(&tenant_id, now - admitted_at);
                            } else {
                                shared.metrics.on_staleness(now - last_emit);
                            }
                            shared.metrics.on_answers(close.answers.len() as u64, true);
                            shared.metrics.on_close(&close, sheds, shed_bytes);
                            let _ = events.send(TenantEvent::Final(close));
                        }
                        Err(e) => {
                            let _ = events.send(TenantEvent::Error(e.to_string()));
                        }
                    }
                }
                release(n);
                break;
            }
        }
    }
}

/// Feed one tenant; returns whether to keep it (false = failed or
/// disconnected).
fn feed_tenant(t: &mut TenantState, family: &str, batch: &[Vec<u8>], shared: &Shared) -> bool {
    if t.ingest.as_ref() != family {
        return true;
    }
    match t.session.feed(batch) {
        Ok(answers) => {
            if answers.is_empty() {
                return true;
            }
            // TTFA on a tenant's first answer, inter-answer staleness on
            // the rest.
            let now = Instant::now();
            if !t.answered {
                t.answered = true;
                shared
                    .metrics
                    .on_first_answer(t.session.id(), now - t.admitted_at);
            } else {
                shared.metrics.on_staleness(now - t.last_emit);
            }
            t.last_emit = now;
            shared.metrics.on_answers(answers.len() as u64, false);
            // A dropped receiver means the subscriber went away — detach.
            t.events.send(TenantEvent::Early(answers)).is_ok()
        }
        Err(e) => {
            let _ = t.events.send(TenantEvent::Error(e.to_string()));
            false
        }
    }
}
