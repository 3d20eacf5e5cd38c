//! The in-process multi-tenant serving core.
//!
//! One [`Server`] owns a shared ingest stream, a job-wide
//! [`MemoryGovernor`] pool, fair-share admission, and a fixed set of
//! *shard* worker threads. The unit of work is the *shared session*: one
//! [`TenantSession`] cascade per distinct (query, start offset), owned
//! outright by the shard worker its query maps to (no locking), with
//! tenants as its subscribers. Every ingest batch is mapped, hashed and
//! aggregated once per session; its subscribers share each batch of early
//! answers as it surfaces and the finals at close, behind an [`Arc`].
//!
//! Join rule: a tenant joins its query's session iff that session has not
//! yet been fed a batch of its ingest family; otherwise a new session
//! opens for it. The shard queue's FIFO order (subscription vs batch) is
//! the only arbiter, so a tenant sees exactly the batches enqueued after
//! its subscription, and a lone tenant is a group of one. A joining
//! tenant brings its fair share to the session's leases, a leaving one
//! takes it away, and the last one out drops the session and its leases.
//!
//! Backpressure: every shard queue is gated by the engine's
//! [`PressureGate`] on the shared governor — when session hash state
//! pushes the pool over its high-water mark, ingest stalls on a shrunken
//! queue depth until the governor's cross-session rebalancing and
//! shedding catch up. A tenant that stops draining its events slows only
//! its own channel; a disconnected tenant (dropped receiver) is detached
//! and its seat and share are released.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
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
    /// Global memory pool shared by every session, bytes.
    pub pool_bytes: usize,
    /// Spill policy arbitrating shed victims *across* sessions.
    pub policy: Arc<dyn onepass_core::governor::SpillPolicy>,
    /// Admission control knobs.
    pub admission: AdmissionConfig,
    /// Shard worker threads queries are distributed over.
    pub shards: usize,
    /// Bounded depth of each shard's ingest queue, in batches.
    pub queue_depth: usize,
    /// Per-session dead-letter queue knobs.
    pub dlq: DlqConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pool_bytes: 256 << 20,
            policy: Arc::new(onepass_core::governor::LargestConsumer),
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

/// What a tenant's event channel delivers. Answers arrive behind an
/// [`Arc`]: every subscriber of a session holds the same allocation, so
/// fanning a batch out costs a reference count per tenant whatever its
/// size.
#[derive(Debug)]
pub enum TenantEvent {
    /// Early answers surfaced mid-stream by stage 0's incremental hash.
    Early(Arc<[StreamAnswer]>),
    /// The tenant's final answers and accounting, delivered once at
    /// stream close. The channel closes afterwards.
    Final(Arc<TenantClose>),
    /// The tenant's session failed (or could not open); the tenant has
    /// been detached.
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
    pub fn wait_final(&self) -> Result<(Vec<StreamAnswer>, Arc<TenantClose>)> {
        let mut earlies = Vec::new();
        loop {
            match self.events.recv() {
                Ok(TenantEvent::Early(a)) => earlies.extend_from_slice(&a),
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

/// One tenant's seat in a shared session.
struct Subscriber {
    id: String,
    events: Sender<TenantEvent>,
    admitted_at: Instant,
    answered: bool,
    last_emit: Instant,
}

enum ShardMsg {
    /// A tenant for the named query; joins or opens a session.
    Subscribe(String, Subscriber),
    Batch(Arc<str>, Arc<Vec<Vec<u8>>>),
    Close,
}

struct Shared {
    catalog: QueryCatalog,
    governor: MemoryGovernor,
    dlq: DlqConfig,
    admission: FairShareAdmission,
    metrics: ServeMetrics,
}

/// The multi-tenant serving core. Cheap to clone handles are not needed
/// — share via `Arc<Server>` or borrow.
pub struct Server {
    config: ServeConfig,
    gate: PressureGate,
    shared: Arc<Shared>,
    /// One queue per shard worker.
    shards: Vec<Sender<ShardMsg>>,
    /// One per shard: its worker reports here once its sessions closed.
    closed_acks: Vec<Receiver<()>>,
    /// Reaped on drop, not at close (see [`shard_worker`]).
    workers: Vec<std::thread::JoinHandle<()>>,
    closed: AtomicBool,
    ingest_records: AtomicU64,
    /// Subscriptions that made it into a shard queue, ever.
    subscribed: AtomicUsize,
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
    /// family (pass `None` to skip every probe). A shard thread the system
    /// will not spawn is an `Error::Io`.
    pub fn start(
        config: ServeConfig,
        catalog: QueryCatalog,
        registry: Option<MetricsRegistry>,
    ) -> Result<Server> {
        if config.shards == 0 {
            return Err(Error::Config("serve needs at least one shard".into()));
        }
        super::install_poison_panic_filter();
        let governor = MemoryGovernor::new(config.pool_bytes, Arc::clone(&config.policy));
        let metrics = ServeMetrics::new(registry);
        let gate = PressureGate::new(
            governor.clone(),
            config.queue_depth,
            metrics.backpressure_stalls(),
        );
        let shared = Arc::new(Shared {
            catalog,
            governor,
            dlq: config.dlq,
            admission: FairShareAdmission::new(config.admission, config.pool_bytes),
            metrics,
        });
        let mut shards = Vec::with_capacity(config.shards);
        let mut closed_acks = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let (tx, rx) = bounded::<ShardMsg>(config.queue_depth);
            let (ack_tx, ack_rx) = bounded::<()>(1);
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("serve-shard-{i}"))
                .spawn(move || shard_worker(rx, ack_tx, shared))?;
            shards.push(tx);
            closed_acks.push(ack_rx);
            workers.push(handle);
        }
        Ok(Server {
            config,
            gate,
            shared,
            shards,
            closed_acks,
            workers,
            closed: AtomicBool::new(false),
            ingest_records: AtomicU64::new(0),
            subscribed: AtomicUsize::new(0),
        })
    }

    /// The serving catalog.
    pub fn catalog(&self) -> &QueryCatalog {
        &self.shared.catalog
    }

    /// The shared governor (for introspection).
    pub fn governor(&self) -> &MemoryGovernor {
        &self.shared.governor
    }

    /// Active tenants right now: seats taken. A seat is taken *before* its
    /// subscription is queued (admission can refuse; a full shard queue can
    /// only make the subscriber wait), so this runs ahead of
    /// [`subscribed`](Server::subscribed) while a subscriber is blocked.
    pub fn active_tenants(&self) -> usize {
        self.shared.admission.active()
    }

    /// Subscriptions enqueued so far — the number to wait on before
    /// starting ingest: a shard queue orders a subscription against every
    /// batch fed after this counted it, so each of these tenants sees the
    /// stream from its first batch.
    pub fn subscribed(&self) -> usize {
        self.subscribed.load(Ordering::Acquire)
    }

    /// Admission counter snapshot (admitted / queued / rejected).
    pub fn admission_counters(&self) -> super::admission::AdmissionCounters {
        self.shared.admission.counters()
    }

    /// Admit a tenant for `query`. Blocks (bounded) while the house is
    /// full; errors on rejection or unknown query. The tenant joins its
    /// query's session if that has not started on the stream yet, else a
    /// new session opens at the current offset (one that cannot open
    /// reports [`TenantEvent::Error`]). The returned handle's event
    /// channel delivers early answers as they surface and the final
    /// answers at [`Server::close`].
    pub fn subscribe(&self, tenant_id: &str, query: &str) -> Result<TenantHandle> {
        if self.closed.load(Ordering::Acquire) {
            return Err(Error::InvalidState("server is closed".into()));
        }
        // One shard per query, so its queue orders every subscription to
        // the query against every batch.
        let shard = self.shared.catalog.position(query)? % self.shards.len();
        self.shared.admission.admit().map_err(|e| {
            self.shared.metrics.on_rejected();
            Error::InvalidState(format!("tenant {tenant_id} rejected: {e}"))
        })?;
        let (tx, rx) = unbounded();
        let now = Instant::now();
        let subscriber = Subscriber {
            id: tenant_id.to_string(),
            events: tx,
            admitted_at: now,
            answered: false,
            last_emit: now,
        };
        let msg = ShardMsg::Subscribe(query.to_string(), subscriber);
        if self.shards[shard].send(msg).is_err() {
            self.shared.admission.release();
            return Err(Error::InvalidState("server shards are gone".into()));
        }
        // Release, paired with the Acquire load in `subscribed`: a feeder
        // that reads this count sends its batches after the `send` above
        // returned, so the shard queue holds the subscription first.
        self.subscribed.fetch_add(1, Ordering::Release);
        self.shared
            .metrics
            .on_admitted(self.shared.admission.active());
        Ok(TenantHandle {
            id: tenant_id.to_string(),
            query: query.to_string(),
            events: rx,
        })
    }

    /// Feed one ingest batch of `family` records to every session whose
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
            self.gate.admit(shard);
            shard
                .send(ShardMsg::Batch(Arc::clone(&family), Arc::clone(&batch)))
                .map_err(|_| Error::InvalidState("server shards are gone".into()))?;
        }
        Ok(())
    }

    /// Records ingested so far.
    pub fn ingest_records(&self) -> u64 {
        self.ingest_records.load(Ordering::Relaxed)
    }

    /// Close the ingest stream: every session's cascade closes and its
    /// finals are delivered on each subscriber's event channel before
    /// this returns. Idempotent. The shard threads exit when the server
    /// drops.
    pub fn close(&self) -> Result<()> {
        if self.closed.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        for shard in &self.shards {
            // A shard whose worker already exited has hung up; its
            // acknowledgement below reports it.
            let _ = shard.send(ShardMsg::Close);
        }
        for ack in &self.closed_acks {
            // A worker that died drops its sender without acknowledging.
            ack.recv()
                .map_err(|_| Error::InvalidState("serve shard worker panicked".into()))?;
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.close();
        // Hanging up every queue ends each worker's linger loop.
        self.shards.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Shared {
    /// Free `n` seats (tenants closed, failed or detached).
    fn release_seats(&self, n: usize) {
        for _ in 0..n {
            self.admission.release();
        }
        self.metrics.set_active(self.admission.active());
    }
}

impl Subscriber {
    /// Account one delivery: TTFA on the tenant's first answer,
    /// inter-answer staleness on the rest.
    fn observe_answer(&mut self, now: Instant, metrics: &ServeMetrics) {
        if self.answered {
            metrics.on_staleness(now - self.last_emit);
        } else {
            self.answered = true;
            metrics.on_first_answer(&self.id, now - self.admitted_at);
        }
        self.last_emit = now;
    }
}

/// One cascade per (query, start offset) and the tenants subscribed to
/// it.
struct SharedSession {
    query: String,
    cascade: TenantSession,
    /// Ingest family the query consumes; other batches skip the session.
    ingest: String,
    /// Bytes per partition lease each subscriber brings and takes away.
    share: isize,
    /// Fed a batch of its family already: closed to new subscribers.
    started: bool,
    subscribers: Vec<Subscriber>,
}

impl SharedSession {
    /// Open `query`'s cascade on its first subscriber's fair share; the
    /// caller seats that founder.
    fn open(query: String, founder: &str, shared: &Shared) -> Result<SharedSession> {
        let compiled = shared.catalog.resolve(&query)?;
        let partitions = compiled.total_partitions().max(1);
        let share = (shared.admission.fair_share_bytes() / partitions).max(1024);
        let opts = SessionOptions {
            governor: Some(shared.governor.clone()),
            lease_bytes: Some(share),
        };
        let cascade = TenantSession::open(founder, &query, &compiled, &opts, shared.dlq)?;
        Ok(SharedSession {
            query,
            cascade,
            ingest: compiled.ingest,
            share: share as isize,
            started: false,
            subscribers: Vec::new(),
        })
    }

    /// Seat one more tenant; its fair share grows every lease.
    fn join(&mut self, subscriber: Subscriber) {
        self.cascade.resize_leases(self.share);
        self.subscribers.push(subscriber);
    }

    /// Feed one batch; returns whether the session lives on (false = it
    /// failed, or its last subscriber left).
    fn feed(&mut self, family: &str, batch: &[Vec<u8>], shared: &Shared) -> bool {
        if self.ingest != family {
            return true;
        }
        self.started = true;
        match self.cascade.feed(batch) {
            Ok(answers) => {
                if !answers.is_empty() {
                    self.publish(answers, shared);
                }
                !self.subscribers.is_empty()
            }
            Err(e) => {
                fail(&self.subscribers, &e, shared);
                false
            }
        }
    }

    /// Hand one batch of early answers to every subscriber. A dropped
    /// receiver means the subscriber went away — it is detached, and its
    /// seat and share with it.
    fn publish(&mut self, answers: Vec<StreamAnswer>, shared: &Shared) {
        let now = Instant::now();
        let before = self.subscribers.len();
        shared
            .metrics
            .on_answers((answers.len() * before) as u64, false);
        let answers: Arc<[StreamAnswer]> = answers.into();
        self.subscribers.retain_mut(|sub| {
            sub.observe_answer(now, &shared.metrics);
            sub.events
                .send(TenantEvent::Early(Arc::clone(&answers)))
                .is_ok()
        });
        let left = before - self.subscribers.len();
        if left > 0 {
            self.cascade.resize_leases(-self.share * left as isize);
            shared.release_seats(left);
        }
    }

    /// Close the cascade and deliver its finals (or its error) to every
    /// subscriber.
    fn close(mut self, shared: &Shared) {
        let (sheds, shed_bytes) = self.cascade.shed_stats();
        match self.cascade.close() {
            Ok(close) => {
                shared.metrics.on_close(&close, sheds, shed_bytes);
                let finals = (close.answers.len() * self.subscribers.len()) as u64;
                shared.metrics.on_answers(finals, true);
                let now = Instant::now();
                let close = Arc::new(close);
                for sub in &mut self.subscribers {
                    sub.observe_answer(now, &shared.metrics);
                    let _ = sub.events.send(TenantEvent::Final(Arc::clone(&close)));
                }
                shared.release_seats(self.subscribers.len());
            }
            Err(e) => fail(&self.subscribers, &e, shared),
        }
    }
}

/// Tell every subscriber its session failed, and free their seats.
fn fail(subscribers: &[Subscriber], e: &Error, shared: &Shared) {
    for sub in subscribers {
        let _ = sub.events.send(TenantEvent::Error(e.to_string()));
    }
    shared.release_seats(subscribers.len());
}

/// One shard worker: owns its queries' sessions, seats tenants in them,
/// feeds each session every batch once, and closes them at end of stream.
///
/// After acknowledging the close it lingers until the server drops. glibc
/// gives each thread a malloc arena, returns it to a free list when the
/// thread exits, and hands a new thread the arena freed last. Exiting
/// after the threads that consumed the finals means the next server's
/// shards take the shards' arenas and a consumer thread gets its own
/// back. Otherwise the arenas rotate between roles, a consumer's large
/// buffers (say, one rendered dump per tenant) land in a new arena each
/// time, and peak RSS depends on where the last arena's few long-lived
/// small blocks happened to sit.
fn shard_worker(rx: Receiver<ShardMsg>, closed: Sender<()>, shared: Arc<Shared>) {
    serve_shard(&rx, &shared);
    let _ = closed.send(());
    // Late arrivals raced `close` past its closed check: a subscription is
    // refused, a batch comes after the end of the stream and is dropped.
    while let Ok(msg) = rx.recv() {
        if let ShardMsg::Subscribe(_, subscriber) = msg {
            let e = Error::InvalidState("server is closed".into());
            fail(&[subscriber], &e, &shared);
        }
    }
}

/// The shard's sessions from the first message to the close.
fn serve_shard(rx: &Receiver<ShardMsg>, shared: &Shared) {
    let mut sessions: Vec<SharedSession> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Subscribe(query, subscriber) => {
                // At most one session per query has yet to start.
                let joinable = sessions.iter_mut().find(|s| !s.started && s.query == query);
                match joinable {
                    Some(session) => session.join(subscriber),
                    None => match SharedSession::open(query, &subscriber.id, shared) {
                        Ok(mut session) => {
                            session.subscribers.push(subscriber);
                            shared.metrics.on_sessions(1);
                            sessions.push(session);
                        }
                        Err(e) => fail(&[subscriber], &e, shared),
                    },
                }
            }
            ShardMsg::Batch(family, batch) => {
                let before = sessions.len();
                sessions.retain_mut(|s| s.feed(&family, &batch, shared));
                shared
                    .metrics
                    .on_sessions(sessions.len() as i64 - before as i64);
            }
            ShardMsg::Close => {
                shared.metrics.on_sessions(-(sessions.len() as i64));
                for session in sessions.drain(..) {
                    session.close(shared);
                }
                break;
            }
        }
    }
}
