//! The coordinator side of the TCP transport.
//!
//! When [`EngineConfig::transport`](crate::EngineConfig) is
//! [`Transport::Tcp`](super::Transport), the executor builds a
//! [`TcpCluster`] instead of spawning local map workers. The cluster owns
//! one framed connection per worker process and bridges them onto the
//! engine's existing machinery:
//!
//! * **Map dispatch** — per-worker dispatcher threads pull
//!   [`MapAssignment`]s from the scheduler's normal work queue, ship the
//!   split to a worker (`NewSplit`), and turn the worker's
//!   `MapOk`/`MapFailed` into the [`MapEvent`]s the scheduler already
//!   understands. The scheduler's retry budget, speculation, and
//!   straggler logic run completely unchanged.
//! * **Shuffle routing** — every worker's segments flow back through the
//!   coordinator's [`ShuffleTx`], so volume accounting and backpressure
//!   are identical across transports; from there they reach either local
//!   reducers (in-proc receivers) or remote reduce partitions via
//!   per-partition forwarder threads.
//! * **Fault tolerance** — each partition's forwarded stream is retained
//!   in a log; when a worker dies (socket EOF, or missed heartbeats), its
//!   reduce partitions are replayed in full onto a surviving worker and
//!   its in-flight map attempts are failed back to the scheduler, which
//!   reruns them elsewhere. Attempt-aware dedup on the reduce side makes
//!   the rerun invisible in the output. A hosted reduce runs one attempt;
//!   when it fails, its worker says so and stays connected, and the
//!   partition's log is replayed onto a live worker (that one included)
//!   while the job's retry budget lasts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use crossbeam::thread::Scope;

use onepass_core::error::{Error, Result};
use onepass_core::obs::{names, Counter, Histogram, MetricsRegistry};
use onepass_core::trace::{LocalTracer, Tracer, Track};
use onepass_core::SegmentBuf;
use onepass_groupby::{EmitKind, Sink};

use super::tcp::Conn;
use super::wire::{self, Frame};
use crate::executor::TimedSink;
use crate::map_task::MapTaskStats;
use crate::reduce_task::ReduceResult;
use crate::report::{OpenTask, TaskKind, TaskSpan};
use crate::scheduler::{MapAssignment, MapEvent};
use crate::shuffle::{Segment, ShuffleMsg, ShuffleTx};

/// Builds a fresh staging sink for one remote reduce partition (used at
/// assignment and again on replay, so a replayed partition can never
/// double-emit).
pub(crate) type SinkFactory<'a> = Box<dyn Fn(usize) -> TimedSink + Send + Sync + 'a>;

/// How long a worker may go without answering heartbeats before it is
/// declared dead. Deliberately conservative: socket EOF is the primary
/// death signal (a killed process closes its sockets immediately); the
/// timeout only catches wedged-but-connected workers.
const PONG_TIMEOUT: Duration = Duration::from_secs(10);
/// Heartbeat period.
const PING_EVERY: Duration = Duration::from_millis(250);
/// Forwarder poll tick (how quickly forwarders notice done/abort flags).
const FORWARD_TICK: Duration = Duration::from_millis(50);

/// Waiters for map attempts shipped to a worker and not yet answered,
/// keyed by `(task, attempt)`.
type InflightMap = HashMap<(usize, usize), Sender<Result<MapTaskStats>>>;

/// One connected worker process.
struct WorkerLink {
    id: usize,
    conn: Arc<Conn>,
    alive: AtomicBool,
    /// Map attempts shipped to this worker and not yet answered; the
    /// waiter receives the attempt's result (or a worker-lost error).
    inflight: Mutex<InflightMap>,
    /// Outstanding heartbeat: nonce and send time.
    ping: Mutex<(u64, Instant)>,
    last_pong: Mutex<Instant>,
}

/// Replay state for one remote reduce partition.
struct PartInner {
    /// Link id currently hosting this partition.
    owner: usize,
    /// Everything forwarded to the owner, retained verbatim for replay.
    log: Vec<ShuffleMsg>,
    /// Output staged from the current owner; discarded wholesale (and
    /// rebuilt) on replay so a half-emitted dead owner leaves no trace.
    stage: Option<TimedSink>,
    /// The partition's lifetime, open since its reduce was first placed
    /// (a replay onto a new owner continues it); taken when it finishes.
    task: Option<OpenTask>,
    /// Why the owner's reduce attempt failed, until the partition is
    /// replayed: the job's error should no worker be left to take over.
    failure: Option<String>,
    /// Attempts that failed (a lost owner's included) before the current
    /// one; the result the last owner sends counts only its own.
    replays: usize,
}

struct PartitionState {
    done: AtomicBool,
    inner: Mutex<PartInner>,
}

/// A connected set of worker processes executing one job, driven by the
/// executor. Lives on the executor's stack so scoped worker threads can
/// borrow it directly.
pub(crate) struct TcpCluster<'a> {
    links: Vec<WorkerLink>,
    parts: Vec<PartitionState>,
    remote_reduce: bool,
    /// Attempts allowed per reduce partition: a failed one is replayed
    /// from the partition's log until this many have run.
    reduce_attempts: usize,
    start: Instant,
    aborting: AtomicBool,
    closing: AtomicBool,
    /// Wakes the heartbeat loop at `close`, so a job's wall time is not
    /// rounded up to the next `PING_EVERY`.
    close_tx: Sender<()>,
    close_rx: Receiver<()>,
    /// Serializes death handling (and replay) so two concurrent failure
    /// detections can't both re-home the same partition.
    death_lock: Mutex<()>,
    sink_factory: SinkFactory<'a>,
    /// Terminal per-partition outcomes for `await_remote_reduces`.
    done_tx: Sender<Result<()>>,
    done_rx: Receiver<Result<()>>,
    /// Scheduler queue handles, consumed by the bail-out thread if every
    /// worker dies (so the scheduler's retry budget exhausts instead of
    /// the job hanging on an empty worker pool).
    bail: Mutex<Option<(Receiver<MapAssignment>, Sender<MapEvent>)>>,
    /// First reason a worker refused the job (not a hosted reduce's
    /// failure), surfaced as the fatal error.
    rejection: Mutex<Option<String>>,
    rtt: Histogram,
    tracer: &'a Tracer,
    track_offset: u64,
}

impl<'a> TcpCluster<'a> {
    /// Dial every worker, announce the job, and (if this job's reduces run
    /// remotely) assign partitions round-robin.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn connect(
        workers: &[String],
        job_name: &str,
        knobs: Vec<(String, String)>,
        reducers: usize,
        remote_reduce: bool,
        reduce_attempts: usize,
        start: Instant,
        metrics: Option<&MetricsRegistry>,
        tracer: &'a Tracer,
        track_offset: u64,
        sink_factory: SinkFactory<'a>,
    ) -> Result<Self> {
        if workers.is_empty() {
            return Err(Error::Config(
                "transport tcp requires at least one worker address".into(),
            ));
        }
        let bytes = |dir| {
            let labels = [("stage", job_name), ("dir", dir)];
            Counter::of(metrics, names::TRANSPORT_BYTES, &labels)
        };
        let (tx_bytes, rx_bytes) = (bytes("tx"), bytes("rx"));
        let mut links = Vec::with_capacity(workers.len());
        for (id, addr) in workers.iter().enumerate() {
            let conn = Conn::connect(addr, tx_bytes.clone(), rx_bytes.clone())?;
            conn.send(&Frame::JobInit {
                name: job_name.to_string(),
                knobs: knobs.clone(),
            })?;
            links.push(WorkerLink {
                id,
                conn: Arc::new(conn),
                alive: AtomicBool::new(true),
                inflight: Mutex::new(HashMap::new()),
                ping: Mutex::new((0, Instant::now())),
                last_pong: Mutex::new(Instant::now()),
            });
        }
        let mut parts = Vec::new();
        if remote_reduce {
            for p in 0..reducers {
                let owner = p % links.len();
                links[owner].conn.send(&Frame::ReduceTask {
                    partition: p as u64,
                })?;
                parts.push(PartitionState {
                    done: AtomicBool::new(false),
                    inner: Mutex::new(PartInner {
                        owner,
                        log: Vec::new(),
                        stage: Some(sink_factory(p)),
                        task: Some(TaskSpan::open(TaskKind::Reduce, p, tracer, track_offset)),
                        failure: None,
                        replays: 0,
                    }),
                });
            }
        }
        let (done_tx, done_rx) = unbounded();
        let (close_tx, close_rx) = unbounded();
        Ok(TcpCluster {
            links,
            parts,
            remote_reduce,
            reduce_attempts,
            start,
            aborting: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            close_tx,
            close_rx,
            death_lock: Mutex::new(()),
            sink_factory,
            done_tx,
            done_rx,
            bail: Mutex::new(None),
            rejection: Mutex::new(None),
            rtt: Histogram::of(
                metrics,
                names::TRANSPORT_RTT_SECONDS,
                &[("stage", job_name)],
            ),
            tracer,
            track_offset,
        })
    }

    /// Stash scheduler queue handles for the all-workers-dead bail-out.
    pub(crate) fn set_bail(&self, task_rx: Receiver<MapAssignment>, evt_tx: Sender<MapEvent>) {
        *self.bail.lock().unwrap() = Some((task_rx, evt_tx));
    }

    /// First reason a worker refused the job, if any (the most useful
    /// error when the job subsequently fails).
    pub(crate) fn rejection(&self) -> Option<String> {
        self.rejection.lock().unwrap().clone()
    }

    /// Mark the job as aborting: forwarders stop, deaths stop replaying.
    pub(crate) fn set_aborting(&self) {
        self.aborting.store(true, Ordering::SeqCst);
    }

    /// End of job: stop heartbeats and sever every connection so reader
    /// threads unblock and exit.
    pub(crate) fn close(&self) {
        self.closing.store(true, Ordering::SeqCst);
        let _ = self.close_tx.send(());
        for link in &self.links {
            link.conn.shutdown();
        }
    }

    /// Spawn one reader thread per connection (frames → engine events)
    /// plus the heartbeat thread.
    pub(crate) fn spawn_io<'scope, 'env>(
        &'scope self,
        scope: &Scope<'scope, 'env>,
        shuffle_tx: &'scope ShuffleTx,
        red_res_tx: Sender<Result<(ReduceResult, TaskSpan, TimedSink)>>,
    ) {
        for link in &self.links {
            let red_res_tx = red_res_tx.clone();
            scope.spawn(move |scope| self.read_loop(scope, link, shuffle_tx, &red_res_tx));
        }
        drop(red_res_tx);
        scope.spawn(move |_| self.heartbeat_loop());
    }

    fn read_loop<'scope, 'env>(
        &'scope self,
        scope: &Scope<'scope, 'env>,
        link: &WorkerLink,
        shuffle_tx: &ShuffleTx,
        red_res_tx: &Sender<Result<(ReduceResult, TaskSpan, TimedSink)>>,
    ) {
        while let Ok(frame) = link.conn.recv() {
            match frame {
                Frame::Segment {
                    map_task,
                    attempt,
                    partition,
                    sorted,
                    combined,
                    records,
                } => {
                    // Into the coordinator fabric: accounting and
                    // backpressure happen here, exactly as for local map
                    // workers. `records` still points into the frame body
                    // it arrived in, and is forwarded as those bytes.
                    shuffle_tx.send_segment(Segment {
                        map_task: map_task as usize,
                        attempt: attempt as usize,
                        partition: partition as usize,
                        sorted,
                        combined,
                        records,
                    });
                }
                Frame::MapDone { map_task, attempt } => {
                    shuffle_tx.map_done(map_task as usize, attempt as usize);
                }
                Frame::MapOk {
                    task,
                    attempt,
                    stats,
                } => {
                    self.complete_inflight(link, task as usize, attempt as usize, Ok(stats));
                }
                Frame::MapFailed {
                    task,
                    attempt,
                    error,
                } => {
                    self.complete_inflight(
                        link,
                        task as usize,
                        attempt as usize,
                        Err(Error::InvalidState(error)),
                    );
                }
                Frame::FinalBatch {
                    partition,
                    kind,
                    records,
                } => self.stage_batch(link, partition as usize, kind, &records),
                Frame::ReduceDone { result } => self.finish_partition(link, result, red_res_tx),
                Frame::Pong { nonce } => {
                    let (sent_nonce, sent_at) = *link.ping.lock().unwrap();
                    if sent_nonce == nonce {
                        self.rtt.observe_duration(sent_at.elapsed());
                    }
                    *link.last_pong.lock().unwrap() = Instant::now();
                }
                Frame::JobRejected { reason } => {
                    let failed = wire::failed_partition(&reason).filter(|&p| p < self.parts.len());
                    let Some(p) = failed else {
                        self.rejection
                            .lock()
                            .unwrap()
                            .get_or_insert_with(|| format!("{}: {reason}", link.conn.peer()));
                        break;
                    };
                    // A hosted reduce attempt failed and the worker stays
                    // up. The replay runs on its own thread: it may write
                    // the log back to this very worker, whose frames this
                    // loop must keep reading meanwhile.
                    let mut inner = self.parts[p].inner.lock().unwrap();
                    if inner.owner == link.id {
                        inner.failure = Some(reason);
                        let from = link.id;
                        scope.spawn(move |_| self.retry_partition(from, p));
                    }
                }
                // Coordinator→worker shapes echoed back, or protocol
                // noise: ignore rather than kill the job.
                _ => {}
            }
        }
        self.on_worker_down(link.id);
    }

    /// Deliver a map attempt's terminal result to its dispatcher.
    fn complete_inflight(
        &self,
        link: &WorkerLink,
        task: usize,
        attempt: usize,
        result: Result<MapTaskStats>,
    ) {
        if let Some(tx) = link.inflight.lock().unwrap().remove(&(task, attempt)) {
            let _ = tx.send(result);
        }
    }

    /// Stage a batch of reduce output from `link`, unless the partition
    /// has since been re-homed (stale batches from a dying owner).
    fn stage_batch(&self, link: &WorkerLink, partition: usize, kind: u8, records: &SegmentBuf) {
        let Some(part) = self.parts.get(partition) else {
            return;
        };
        if part.done.load(Ordering::SeqCst) {
            return;
        }
        let emit_kind = if kind == 0 {
            EmitKind::Early
        } else {
            EmitKind::Final
        };
        let mut inner = part.inner.lock().unwrap();
        if inner.owner != link.id {
            return;
        }
        if let Some(stage) = inner.stage.as_mut() {
            for (k, v) in records.iter() {
                stage.emit(k, v, emit_kind);
            }
        }
    }

    /// A remote reduce partition completed: commit its staged output and
    /// hand the engine a result shaped exactly like a local reducer's.
    fn finish_partition(
        &self,
        link: &WorkerLink,
        mut result: ReduceResult,
        red_res_tx: &Sender<Result<(ReduceResult, TaskSpan, TimedSink)>>,
    ) {
        let partition = result.partition;
        let Some(part) = self.parts.get(partition) else {
            return;
        };
        let mut inner = part.inner.lock().unwrap();
        if inner.owner != link.id || part.done.swap(true, Ordering::SeqCst) {
            return;
        }
        let (Some(mut sink), Some(task)) = (inner.stage.take(), inner.task.take()) else {
            return;
        };
        result.attempts = result.attempts.max(1) + inner.replays;
        drop(inner);
        sink.close();
        let span = task.close(result.attempts - 1, self.start);
        let _ = red_res_tx.send(Ok((result, span, sink)));
        let _ = self.done_tx.send(Ok(()));
    }

    fn heartbeat_loop(&self) {
        let mut nonce = 0u64;
        // A timeout is a heartbeat tick; a message is `close`.
        while self.close_rx.recv_timeout(PING_EVERY) == Err(RecvTimeoutError::Timeout) {
            for link in &self.links {
                if !link.alive.load(Ordering::SeqCst) {
                    continue;
                }
                nonce += 1;
                *link.ping.lock().unwrap() = (nonce, Instant::now());
                if link.conn.send(&Frame::Ping { nonce }).is_err() {
                    self.on_worker_down(link.id);
                    continue;
                }
                let silent = link.last_pong.lock().unwrap().elapsed();
                if silent > PONG_TIMEOUT {
                    self.on_worker_down(link.id);
                }
            }
        }
    }

    /// Spawn dispatcher threads bridging the scheduler's work queue onto
    /// worker connections. `map_workers` (the in-proc pool size) caps the
    /// cluster-wide dispatch concurrency so local and distributed runs
    /// schedule comparably.
    pub(crate) fn spawn_map_dispatch<'scope, 'env>(
        &'scope self,
        scope: &Scope<'scope, 'env>,
        task_rx: Receiver<MapAssignment>,
        evt_tx: Sender<MapEvent>,
        map_workers: usize,
    ) {
        let slots = map_workers.div_ceil(self.links.len()).max(1);
        for link in &self.links {
            for _ in 0..slots {
                let task_rx = task_rx.clone();
                let evt_tx = evt_tx.clone();
                scope.spawn(move |_| self.dispatch_loop(link, &task_rx, &evt_tx));
            }
        }
    }

    fn dispatch_loop(
        &self,
        link: &WorkerLink,
        task_rx: &Receiver<MapAssignment>,
        evt_tx: &Sender<MapEvent>,
    ) {
        while let Ok(asg) = task_rx.recv() {
            if !asg.delay.is_zero() {
                std::thread::sleep(asg.delay);
            }
            let task = TaskSpan::open(TaskKind::Map, asg.task, self.tracer, self.track_offset);
            let _ = evt_tx.send(MapEvent::Started {
                task: asg.task,
                attempt: asg.attempt,
                at: task.started(self.start),
            });
            let result = match self.run_remote_map(link, &asg) {
                // A worker-lost failure of a cancelled (speculative
                // loser) attempt is not a real failure; don't charge the
                // retry budget.
                Err(_) if asg.cancel.load(Ordering::SeqCst) => Err(Error::Cancelled),
                other => other,
            };
            let span = task.close(asg.attempt, self.start);
            let _ = evt_tx.send(MapEvent::Finished {
                task: asg.task,
                attempt: asg.attempt,
                speculative: asg.speculative,
                span,
                result,
            });
            // A dead link stops pulling work so it can't starve the
            // retry budget; surviving dispatchers (or the bail-out
            // thread) drain the queue.
            if !link.alive.load(Ordering::SeqCst) {
                break;
            }
        }
    }

    /// Ship one map attempt to `link` and wait for its result.
    fn run_remote_map(&self, link: &WorkerLink, asg: &MapAssignment) -> Result<MapTaskStats> {
        let lost = || Error::InvalidState(format!("worker {} lost", link.conn.peer()));
        let (wtx, wrx) = bounded(1);
        link.inflight
            .lock()
            .unwrap()
            .insert((asg.task, asg.attempt), wtx);
        let sent = link.alive.load(Ordering::SeqCst)
            && link
                .conn
                .send(&Frame::NewSplit {
                    task: asg.task as u64,
                    attempt: asg.attempt as u64,
                    split: Arc::clone(&asg.split),
                })
                .is_ok();
        if !sent {
            // Fail our own waiter unless the death handler already did.
            if let Some(tx) = link
                .inflight
                .lock()
                .unwrap()
                .remove(&(asg.task, asg.attempt))
            {
                let _ = tx.send(Err(lost()));
            }
        }
        wrx.recv().unwrap_or_else(|_| Err(lost()))
    }

    /// Handle a worker death: fail its in-flight map attempts back to the
    /// scheduler and replay its reduce partitions onto survivors.
    /// Idempotent; safe to call from any thread.
    fn on_worker_down(&self, id: usize) {
        let guard = self.death_lock.lock().unwrap();
        let link = &self.links[id];
        if !link.alive.swap(false, Ordering::SeqCst) {
            return;
        }
        // Force the link's reader out of recv even if death was declared
        // by heartbeat while the socket is technically still open.
        link.conn.shutdown();
        let waiters: Vec<_> = link.inflight.lock().unwrap().drain().collect();
        for (_key, tx) in waiters {
            let _ = tx.send(Err(Error::InvalidState(format!(
                "worker {} lost",
                link.conn.peer()
            ))));
        }
        if self.closing.load(Ordering::SeqCst) {
            return;
        }
        let mut trace = self
            .tracer
            .local(Track::new("transport", self.track_offset));
        trace.instant("worker_dead", "transport", &[("worker", id as f64)]);
        let mut cascade = Vec::new();
        if self.remote_reduce && !self.aborting.load(Ordering::SeqCst) {
            for (p, part) in self.parts.iter().enumerate() {
                if part.done.load(Ordering::SeqCst) {
                    continue;
                }
                let mut inner = part.inner.lock().unwrap();
                if inner.owner != id {
                    continue;
                }
                let failure = inner.failure.take();
                let Some(new_owner) = self.pick_alive(id) else {
                    let reason = failure.unwrap_or_else(|| {
                        format!("all workers lost before partition {p} completed")
                    });
                    let _ = self.done_tx.send(Err(Error::InvalidState(reason)));
                    continue;
                };
                let ok = self.replay(p, &mut inner, new_owner, &mut trace);
                if !ok && !cascade.contains(&new_owner) {
                    cascade.push(new_owner);
                }
            }
        }
        let all_dead = self.links.iter().all(|l| !l.alive.load(Ordering::SeqCst));
        let bail = if all_dead {
            self.bail.lock().unwrap().take()
        } else {
            None
        };
        drop(guard);
        // A replacement that failed mid-replay is itself dead; recurse
        // (the death lock is released, and `alive` makes this idempotent).
        for target in cascade {
            self.on_worker_down(target);
        }
        if let Some((task_rx, evt_tx)) = bail {
            // Every worker is gone: insta-fail queued assignments so the
            // scheduler's retry budget exhausts (fatal) instead of the
            // job hanging on an empty pool. Detached thread; exits when
            // the scheduler drops its sender.
            let (start, tracer, offset) = (self.start, self.tracer.clone(), self.track_offset);
            std::thread::spawn(move || {
                while let Ok(asg) = task_rx.recv() {
                    let task = TaskSpan::open(TaskKind::Map, asg.task, &tracer, offset);
                    let _ = evt_tx.send(MapEvent::Started {
                        task: asg.task,
                        attempt: asg.attempt,
                        at: task.started(start),
                    });
                    let span = task.close(asg.attempt, start);
                    let _ = evt_tx.send(MapEvent::Finished {
                        task: asg.task,
                        attempt: asg.attempt,
                        speculative: asg.speculative,
                        span,
                        result: Err(Error::InvalidState("all workers lost".into())),
                    });
                }
            });
        }
    }

    /// The first live worker after `after`, in link order and wrapping
    /// round to `after` itself.
    fn pick_alive(&self, after: usize) -> Option<usize> {
        let n = self.links.len();
        (1..=n)
            .map(|i| (after + i) % n)
            .find(|&id| self.links[id].alive.load(Ordering::SeqCst))
    }

    /// Re-home partition `p` onto worker `to`: discard what the failed
    /// attempt staged, then send `ReduceTask` and the whole retained log.
    /// The new attempt re-emits everything, so output stays exactly-once.
    /// False if `to` could not be written to: it is dead too.
    fn replay(&self, p: usize, inner: &mut PartInner, to: usize, trace: &mut LocalTracer) -> bool {
        // `verbatim` of the log's `segments` arrived over the wire and are
        // replayed as the framed bytes they came in as.
        let segments = inner.log.iter().filter_map(|m| match m {
            ShuffleMsg::Segment(seg) => Some(&seg.records),
            _ => None,
        });
        let verbatim = segments
            .clone()
            .filter(|r| r.framed_bytes().is_some())
            .count();
        trace.instant(
            "reduce_replay",
            "transport",
            &[
                ("partition", p as f64),
                ("to", to as f64),
                ("segments", segments.count() as f64),
                ("verbatim", verbatim as f64),
            ],
        );
        inner.owner = to;
        inner.replays += 1;
        inner.stage = Some((self.sink_factory)(p));
        let conn = &self.links[to].conn;
        conn.send(&Frame::ReduceTask {
            partition: p as u64,
        })
        .is_ok()
            && inner
                .log
                .iter()
                .all(|msg| send_shuffle_frame(conn, p, msg).is_ok())
    }

    /// A hosted reduce attempt of partition `p` failed on worker `from`,
    /// which stays connected: replay the partition onto the next live
    /// worker (`from` itself when it is the only one) while the job's
    /// retry budget lasts. Once it is spent, the failure is the job's.
    fn retry_partition(&self, from: usize, p: usize) {
        let guard = self.death_lock.lock().unwrap();
        if self.aborting.load(Ordering::SeqCst) || self.closing.load(Ordering::SeqCst) {
            return;
        }
        let part = &self.parts[p];
        let mut inner = part.inner.lock().unwrap();
        // A death handled since has re-homed the partition already.
        if inner.owner != from || part.done.load(Ordering::SeqCst) {
            return;
        }
        let Some(reason) = inner.failure.take() else {
            return;
        };
        let to = match self.pick_alive(from) {
            Some(to) if inner.replays + 1 < self.reduce_attempts => to,
            _ => {
                let _ = self.done_tx.send(Err(Error::InvalidState(reason)));
                return;
            }
        };
        let mut trace = self
            .tracer
            .local(Track::new("transport", self.track_offset));
        let ok = self.replay(p, &mut inner, to, &mut trace);
        drop(inner);
        drop(guard);
        if !ok {
            self.on_worker_down(to);
        }
    }

    /// Spawn one forwarder per partition, bridging the coordinator fabric
    /// onto the owning worker's connection and retaining every message
    /// for replay.
    pub(crate) fn spawn_partition_forwarders<'scope, 'env>(
        &'scope self,
        scope: &Scope<'scope, 'env>,
        shuffle_rxs: Vec<Receiver<ShuffleMsg>>,
    ) {
        for (p, rx) in shuffle_rxs.into_iter().enumerate() {
            scope.spawn(move |_| self.forward_partition(p, &rx));
        }
    }

    fn forward_partition(&self, p: usize, rx: &Receiver<ShuffleMsg>) {
        loop {
            if self.parts[p].done.load(Ordering::SeqCst)
                || self.aborting.load(Ordering::SeqCst)
                || self.closing.load(Ordering::SeqCst)
            {
                return;
            }
            let msg = match rx.recv_timeout(FORWARD_TICK) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            // Log + forward under the partition lock, so a concurrent
            // replay can never interleave between "appended to log" and
            // "sent to owner" (which could reorder MapDone ahead of its
            // segments on the replacement).
            let failed_owner = {
                let mut inner = self.parts[p].inner.lock().unwrap();
                inner.log.push(msg.clone());
                let owner = inner.owner;
                if send_shuffle_frame(&self.links[owner].conn, p, &msg).is_err() {
                    Some(owner)
                } else {
                    None
                }
            };
            if let Some(owner) = failed_owner {
                self.on_worker_down(owner);
            }
        }
    }

    /// Block until every remote reduce partition reports a terminal
    /// outcome; the first failure wins (a failure means no worker is left
    /// to host some partition, so the job cannot complete).
    pub(crate) fn await_remote_reduces(&self, reducers: usize) -> Result<()> {
        for _ in 0..reducers {
            match self.done_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(e),
                Err(_) => {
                    return Err(Error::InvalidState(
                        "reduce completion channel closed".into(),
                    ))
                }
            }
        }
        Ok(())
    }
}

/// Send one fabric message as its partition-addressed wire frame. A
/// segment that arrived over the wire (every remote map's output, and so
/// most of a retained log) goes out as the framed bytes it came in as.
fn send_shuffle_frame(conn: &Conn, partition: usize, msg: &ShuffleMsg) -> Result<()> {
    match msg {
        ShuffleMsg::Segment(seg) => conn.send(&Frame::Segment {
            map_task: seg.map_task as u64,
            attempt: seg.attempt as u64,
            partition: partition as u64,
            sorted: seg.sorted,
            combined: seg.combined,
            records: seg.records.clone(),
        }),
        ShuffleMsg::MapDone { map_task, attempt } => conn.send(&Frame::RedMapDone {
            partition: partition as u64,
            map_task: *map_task as u64,
            attempt: *attempt as u64,
        }),
        ShuffleMsg::InputExhausted { total_map_tasks } => conn.send(&Frame::RedInputExhausted {
            partition: partition as u64,
            total: *total_map_tasks as u64,
        }),
        ShuffleMsg::Abort => conn.send(&Frame::RedAbort {
            partition: partition as u64,
        }),
    }
}
