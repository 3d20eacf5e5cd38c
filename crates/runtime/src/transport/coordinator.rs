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
//!   understands. The scheduler's retry budget runs unchanged.
//! * **Shuffle** — every worker's segments flow back through the
//!   coordinator's [`ShuffleTx`] to the executor's own reducers, the same
//!   ones an in-proc job runs, so volume accounting, backpressure and
//!   reduce retries are identical across transports.
//! * **Fault tolerance** — when a worker dies (socket EOF, or missed
//!   heartbeats), its in-flight map attempts are failed back to the
//!   scheduler, which reruns them elsewhere. Attempt-aware dedup on the
//!   reduce side makes the rerun invisible in the output.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use crossbeam::thread::Scope;

use onepass_core::error::{Error, Result};
use onepass_core::obs::{names, Counter, Histogram, MetricsRegistry};
use onepass_core::trace::{Tracer, Track};

use super::tcp::Conn;
use super::wire::Frame;
use crate::map_task::MapTaskStats;
use crate::report::{TaskKind, TaskSpan};
use crate::scheduler::{MapAssignment, MapEvent};
use crate::shuffle::{Segment, ShuffleTx};

/// How long a worker may go without answering heartbeats before it is
/// declared dead. Deliberately conservative: socket EOF is the primary
/// death signal (a killed process closes its sockets immediately); the
/// timeout only catches wedged-but-connected workers.
const PONG_TIMEOUT: Duration = Duration::from_secs(10);
/// Heartbeat period.
const PING_EVERY: Duration = Duration::from_millis(250);

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

/// A connected set of worker processes executing one job, driven by the
/// executor. Lives on the executor's stack so scoped worker threads can
/// borrow it directly.
pub(crate) struct TcpCluster<'a> {
    links: Vec<WorkerLink>,
    start: Instant,
    closing: AtomicBool,
    /// Wakes the heartbeat loop at `close`, so a job's wall time is not
    /// rounded up to the next `PING_EVERY`.
    close_tx: Sender<()>,
    close_rx: Receiver<()>,
    /// Scheduler queue handles, consumed by the bail-out thread if every
    /// worker dies (so the scheduler's retry budget exhausts instead of
    /// the job hanging on an empty worker pool).
    bail: Mutex<Option<(Receiver<MapAssignment>, Sender<MapEvent>)>>,
    /// First reason a worker refused the job, surfaced as the fatal error.
    rejection: Mutex<Option<String>>,
    rtt: Histogram,
    tracer: &'a Tracer,
    track_offset: u64,
}

impl<'a> TcpCluster<'a> {
    /// Dial every worker and announce the job.
    pub(crate) fn connect(
        workers: &[String],
        job_name: &str,
        knobs: Vec<(String, String)>,
        start: Instant,
        metrics: Option<&MetricsRegistry>,
        tracer: &'a Tracer,
        track_offset: u64,
    ) -> Result<Self> {
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
        let (close_tx, close_rx) = unbounded();
        Ok(TcpCluster {
            links,
            start,
            closing: AtomicBool::new(false),
            close_tx,
            close_rx,
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
    ) {
        for link in &self.links {
            scope.spawn(move |_| self.read_loop(link, shuffle_tx));
        }
        scope.spawn(move |_| self.heartbeat_loop());
    }

    fn read_loop(&self, link: &WorkerLink, shuffle_tx: &ShuffleTx) {
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
                    // it arrived in, which the reducer reads in place.
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
                Frame::Pong { nonce } => {
                    let (sent_nonce, sent_at) = *link.ping.lock().unwrap();
                    if sent_nonce == nonce {
                        self.rtt.observe_duration(sent_at.elapsed());
                    }
                    *link.last_pong.lock().unwrap() = Instant::now();
                }
                Frame::JobRejected { reason } => {
                    self.rejection
                        .lock()
                        .unwrap()
                        .get_or_insert_with(|| format!("{}: {reason}", link.conn.peer()));
                    break;
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
            let task = TaskSpan::open(TaskKind::Map, asg.task, self.tracer, self.track_offset);
            let result = match self.run_remote_map(link, &asg) {
                // A worker-lost failure of an attempt the scheduler
                // cancelled (the job is going down) is not a real failure;
                // don't charge the retry budget.
                Err(_) if asg.cancel.load(Ordering::SeqCst) => Err(Error::Cancelled),
                other => other,
            };
            let span = task.close(asg.attempt, self.start);
            let _ = evt_tx.send(MapEvent::Finished {
                task: asg.task,
                attempt: asg.attempt,
                span,
                result: Box::new(result),
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
                    split: asg.split.clone(),
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
    /// scheduler, and once every worker is gone, fail what is still queued.
    /// Idempotent; safe to call from any thread.
    fn on_worker_down(&self, id: usize) {
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
        self.tracer
            .local(Track::new("transport", self.track_offset))
            .instant("worker_dead", "transport", &[("worker", id as f64)]);
        // Of two deaths declared at once, the later `alive` store is seen
        // by at least one of them here, and `take` hands the queue to one.
        let all_dead = self.links.iter().all(|l| !l.alive.load(Ordering::SeqCst));
        let bail = if all_dead {
            self.bail.lock().unwrap().take()
        } else {
            None
        };
        if let Some((task_rx, evt_tx)) = bail {
            // Every worker is gone: insta-fail queued assignments so the
            // scheduler's retry budget exhausts (fatal) instead of the
            // job hanging on an empty pool. Detached thread; exits when
            // the scheduler drops its sender.
            let (start, tracer, offset) = (self.start, self.tracer.clone(), self.track_offset);
            std::thread::spawn(move || {
                while let Ok(asg) = task_rx.recv() {
                    let task = TaskSpan::open(TaskKind::Map, asg.task, &tracer, offset);
                    let span = task.close(asg.attempt, start);
                    let _ = evt_tx.send(MapEvent::Finished {
                        task: asg.task,
                        attempt: asg.attempt,
                        span,
                        result: Box::new(Err(Error::InvalidState("all workers lost".into()))),
                    });
                }
            });
        }
    }
}
