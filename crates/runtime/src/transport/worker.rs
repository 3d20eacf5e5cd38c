//! The worker side of the TCP transport: `onepass worker --listen ADDR`.
//!
//! A worker process accepts one connection per job from a coordinator.
//! Over that connection it receives a `JobInit` (job name + knob pairs,
//! resolved against its [`JobRegistry`] and [`crate::knobs`]), map task dispatches
//! (`NewSplit`), and reduce partition assignments (`ReduceTask`); it sends
//! back shuffle segments, `MapDone`/`MapOk`/`MapFailed`, reduce output
//! batches, and `ReduceDone`.
//!
//! Map tasks run through the exact same `in_node::MapSlot` attempt helper
//! as in-process map workers — only the [`ShuffleTx`] sink differs (a
//! `TcpSink` framing segments back to the coordinator instead of in-proc
//! channels). Likewise reduce partitions run the stock attempt-aware
//! [`run_reduce_task_open`](crate::reduce_task) loop, for one attempt:
//! the coordinator's per-partition shuffle log and output stage are the
//! partition's only retained copy, and its replay of that log (onto this
//! worker or another) is the retry.
//!
//! Two deliberate simplifications versus in-process execution: a remote
//! map slot's combine table is task-scoped (it ships before the `MapOk`
//! that commits the attempt; see `in_node.rs`) and remote maps never
//! persist map output (recovery is re-execution from the
//! coordinator-held input split).

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver};

use onepass_core::error::{Error, Result};
use onepass_core::fault::FaultInjector;
use onepass_core::memory::MemoryBudget;
use onepass_core::obs::{Counter, Histogram};
use onepass_core::trace::LocalTracer;
use onepass_groupby::{EmitKind, Sink};

use super::tcp::{Conn, TcpSink};
use super::wire::{self, Frame};
use super::JobRegistry;
use crate::driver::{EngineConfig, SpillBackend};
use crate::executor::make_store;
use crate::in_node::{CombineScope, MapSlot};
use crate::job::JobSpec;
use crate::knobs::{self, Settings};
use crate::map_task::{MapAttemptCtx, Split};
use crate::reduce_task::{run_reduce_task_open, ReduceRetryOpts};
use crate::shuffle::{Segment, ShuffleMsg, ShuffleTx, CHANNEL_DEPTH};

/// Knobs for a worker process.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Concurrent map tasks per job connection.
    pub map_slots: usize,
    /// Fault-injection hook: after this many successful map tasks on a
    /// connection, the worker severs that connection without warning —
    /// indistinguishable, from the coordinator's side, from `kill -9`.
    /// Used by the equivalence tests to exercise worker-loss replay
    /// deterministically.
    pub die_after_maps: Option<u64>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            map_slots: 2,
            die_after_maps: None,
        }
    }
}

/// An in-process worker spawned for tests: same code as `onepass worker`,
/// listening on an ephemeral loopback port.
#[derive(Debug)]
pub struct WorkerHandle {
    addr: String,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl WorkerHandle {
    /// The `host:port` this worker listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stop accepting connections and join the accept loop. Connections
    /// already serving a job drain on their own.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop.
        let _ = TcpStream::connect(&self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(&self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Spawn a worker on `127.0.0.1:0` in a background thread (test harness
/// for the TCP transport; production workers run `serve` in their own
/// process).
pub fn spawn_local(registry: JobRegistry, opts: WorkerOptions) -> Result<WorkerHandle> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let join = std::thread::spawn(move || {
        let _ = serve_until(listener, registry, opts, Some(stop2));
    });
    Ok(WorkerHandle {
        addr,
        stop,
        join: Some(join),
    })
}

/// Serve jobs on `listener` forever: one connection = one job submission.
/// This is the body of `onepass worker --listen ADDR`.
pub fn serve(listener: TcpListener, registry: JobRegistry, opts: WorkerOptions) -> Result<()> {
    serve_until(listener, registry, opts, None)
}

fn serve_until(
    listener: TcpListener,
    registry: JobRegistry,
    opts: WorkerOptions,
    stop: Option<Arc<AtomicBool>>,
) -> Result<()> {
    loop {
        let (stream, _) = listener.accept()?;
        if let Some(s) = &stop {
            if s.load(Ordering::Relaxed) {
                return Ok(());
            }
        }
        let registry = registry.clone();
        let opts = opts.clone();
        std::thread::spawn(move || handle_conn(stream, registry, opts));
    }
}

/// Serve one job connection to completion.
fn handle_conn(stream: TcpStream, registry: JobRegistry, opts: WorkerOptions) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "coordinator".into());
    let Ok(conn) = Conn::new(stream, peer, Counter::detached(), Counter::detached()) else {
        return;
    };
    let conn = Arc::new(conn);

    // First frame must name the job. One that does not decode is answered
    // like one that does not apply: the coordinator learns why.
    let settings = match conn.recv() {
        Ok(Frame::JobInit { name, knobs }) => instantiate(&registry, &name, &knobs),
        Err(e @ Error::Corrupt(_)) => Err(e),
        _ => return,
    };
    let Settings { job, engine } = match settings {
        Ok(s) => s,
        Err(e) => {
            let _ = conn.send(&Frame::JobRejected {
                reason: e.to_string(),
            });
            return;
        }
    };
    let job = Arc::new(job);

    // Map tasks: a slot pool draining one dispatch queue, shuffling
    // straight back over the connection.
    let shuffle_tx = TcpSink::shuffle_tx(Arc::clone(&conn));
    let dead = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let (map_tx, map_rx) = unbounded::<(usize, usize, Arc<Split>)>();
    let mut joins = Vec::new();
    for _ in 0..opts.map_slots.max(1) {
        let conn = Arc::clone(&conn);
        let job = Arc::clone(&job);
        let shuffle_tx = shuffle_tx.clone();
        let dead = Arc::clone(&dead);
        let completed = Arc::clone(&completed);
        let map_rx = map_rx.clone();
        let die_after = opts.die_after_maps;
        joins.push(std::thread::spawn(move || {
            map_slot(
                &conn,
                &job,
                &shuffle_tx,
                &map_rx,
                &dead,
                &completed,
                die_after,
            )
        }));
    }
    drop(map_rx);

    // Reduce partitions hosted on this connection: one routing channel and
    // one thread each.
    let mut reduce_txs: HashMap<u64, crossbeam::channel::Sender<ShuffleMsg>> = HashMap::new();

    // Recv errors end the loop: the coordinator hung up (job over), or we
    // severed the connection ourselves (simulated death).
    while let Ok(frame) = conn.recv() {
        match frame {
            Frame::NewSplit {
                task,
                attempt,
                split,
            } => {
                let _ = map_tx.send((task as usize, attempt as usize, split));
            }
            Frame::ReduceTask { partition } => {
                // A replay of a partition that failed here replaces the
                // failed attempt's channel.
                let (rtx, rrx) = bounded::<ShuffleMsg>(CHANNEL_DEPTH);
                reduce_txs.insert(partition, rtx);
                let conn = Arc::clone(&conn);
                let job = Arc::clone(&job);
                let spill = engine.spill;
                joins.push(std::thread::spawn(move || {
                    reduce_partition(&conn, &job, spill, partition, &rrx)
                }));
            }
            Frame::Segment {
                map_task,
                attempt,
                partition,
                sorted,
                combined,
                records,
            } => {
                if let Some(tx) = reduce_txs.get(&partition) {
                    let _ = tx.send(ShuffleMsg::Segment(Segment {
                        map_task: map_task as usize,
                        attempt: attempt as usize,
                        partition: partition as usize,
                        sorted,
                        combined,
                        records,
                    }));
                }
            }
            Frame::RedMapDone {
                partition,
                map_task,
                attempt,
            } => {
                if let Some(tx) = reduce_txs.get(&partition) {
                    let _ = tx.send(ShuffleMsg::MapDone {
                        map_task: map_task as usize,
                        attempt: attempt as usize,
                    });
                }
            }
            Frame::RedInputExhausted { partition, total } => {
                if let Some(tx) = reduce_txs.get(&partition) {
                    let _ = tx.send(ShuffleMsg::InputExhausted {
                        total_map_tasks: total as usize,
                    });
                }
            }
            Frame::RedAbort { partition } => {
                if let Some(tx) = reduce_txs.get(&partition) {
                    let _ = tx.send(ShuffleMsg::Abort);
                }
            }
            Frame::Ping { nonce } => {
                let _ = conn.send(&Frame::Pong { nonce });
            }
            // Frames this side never expects (worker→coordinator shapes,
            // or protocol noise): ignore rather than kill the job.
            _ => {}
        }
    }

    // Teardown: closing the dispatch queue and partition channels unblocks
    // every slot/reduce thread still waiting for input.
    drop(map_tx);
    drop(reduce_txs);
    for j in joins {
        let _ = j.join();
    }
}

/// Resolve a `JobInit` against the registry and apply its knob pairs:
/// closures come from the registered spec, scalars from the wire.
fn instantiate(registry: &JobRegistry, name: &str, pairs: &[(String, String)]) -> Result<Settings> {
    let job = registry
        .build(name)
        .ok_or_else(|| Error::Config(format!("job '{name}' is not registered on this worker")))?;
    let mut settings = Settings {
        job,
        engine: EngineConfig::default(),
    };
    knobs::apply(&mut settings, pairs)?;
    Ok(settings)
}

/// One map slot: run dispatched attempts until the queue closes (or this
/// worker "dies").
fn map_slot(
    conn: &Conn,
    job: &JobSpec,
    shuffle_tx: &ShuffleTx,
    map_rx: &Receiver<(usize, usize, Arc<Split>)>,
    dead: &AtomicBool,
    completed: &AtomicU64,
    die_after: Option<u64>,
) {
    // Task-scoped: an attempt's segments and `MapDone` must be on the wire
    // before its `MapOk`.
    let mut slot = MapSlot::new(
        job,
        shuffle_tx,
        None,
        CombineScope::Task,
        None,
        Histogram::detached(),
    );
    while let Ok((task, attempt, split)) = map_rx.recv() {
        if dead.load(Ordering::Relaxed) {
            break;
        }
        let ctx = MapAttemptCtx {
            attempt,
            injector: FaultInjector::none(),
            cancel: None,
        };
        // Same containment as in-process workers: a panicking map function
        // is a task failure, reported as such, not a worker crash.
        let result = slot.run_attempt(task, &split, &mut LocalTracer::disabled(), &ctx);
        match result {
            Ok(stats) => {
                // The slot already framed the segments and the MapDone;
                // the MapOk (with stats) commits the attempt to the
                // scheduler.
                let _ = conn.send(&Frame::MapOk {
                    task: task as u64,
                    attempt: attempt as u64,
                    stats,
                });
                if let Some(n) = die_after {
                    if completed.fetch_add(1, Ordering::Relaxed) + 1 >= n {
                        // Simulated kill -9: sever the socket mid-job. The
                        // coordinator sees EOF and replays our work.
                        dead.store(true, Ordering::Relaxed);
                        conn.shutdown();
                        break;
                    }
                }
            }
            Err(e) => {
                let _ = conn.send(&Frame::MapFailed {
                    task: task as u64,
                    attempt: attempt as u64,
                    error: e.to_string(),
                });
            }
        }
    }
}

/// Host one reduce partition: run the stock attempt-aware reduce loop
/// for a single attempt, streaming its output back to the coordinator.
/// The coordinator holds the only copy of the partition's input (its
/// shuffle log) and output (its stage); a failure here is retried there,
/// by a fresh `ReduceTask` and the log.
fn reduce_partition(
    conn: &Arc<Conn>,
    job: &JobSpec,
    spill: SpillBackend,
    partition: u64,
    rx: &Receiver<ShuffleMsg>,
) {
    let mut resources = || -> Result<(Arc<dyn onepass_core::io::SpillStore>, MemoryBudget)> {
        Ok((
            make_store(spill)?,
            MemoryBudget::new(job.reduce_budget_bytes),
        ))
    };
    let opts = ReduceRetryOpts::hosted();
    let mut sink = FrameSink::new(Arc::clone(conn), partition);
    let mut trace = LocalTracer::disabled();
    match run_reduce_task_open(
        job,
        partition as usize,
        rx,
        None, // the coordinator broadcasts the task total when it's known
        &mut resources,
        &mut sink,
        &mut trace,
        &opts,
    ) {
        Ok(res) => {
            sink.flush();
            let _ = conn.send(&Frame::ReduceDone { result: res });
        }
        Err(e) => {
            // Aborted, or the attempt failed. Give the partition back with
            // the reason and stay connected: this worker's maps and other
            // partitions run on, and the coordinator decides where, and
            // whether, the partition runs again.
            let _ = conn.send(&Frame::JobRejected {
                reason: wire::reduce_failed(partition, &e),
            });
        }
    }
}

/// Buffers reduce emissions into `FinalBatch` frames (~64 KiB, split on
/// early/final boundaries so emission kind survives the wire, order
/// preserved). Each record is framed once, straight into the buffer the
/// connection writes.
struct FrameSink {
    conn: Arc<Conn>,
    partition: u64,
    kind: u8,
    frame: wire::Enc,
}

impl FrameSink {
    const FLUSH_BYTES: usize = 64 * 1024;

    fn new(conn: Arc<Conn>, partition: u64) -> Self {
        FrameSink {
            conn,
            partition,
            kind: 1,
            frame: wire::final_batch(partition, 1),
        }
    }

    fn flush(&mut self) {
        if self.frame.blob_len() == 0 {
            return;
        }
        let _ = self.conn.send_encoded(self.frame.seal());
        self.frame.clear_blob();
    }
}

impl Sink for FrameSink {
    fn emit(&mut self, key: &[u8], value: &[u8], kind: EmitKind) {
        let k = match kind {
            EmitKind::Early => 0,
            EmitKind::Final => 1,
        };
        if k != self.kind {
            self.flush();
            self.kind = k;
            self.frame = wire::final_batch(self.partition, k);
        }
        self.frame.kv(key, value);
        if self.frame.blob_len() >= Self::FLUSH_BYTES {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A first frame the worker cannot decode is answered with the reason,
    /// not with a closed socket the coordinator would read as a dead worker.
    #[test]
    fn undecodable_job_init_is_rejected_with_the_reason() {
        let worker = spawn_local(JobRegistry::new(), WorkerOptions::default()).unwrap();
        let conn = Conn::connect(worker.addr(), Counter::detached(), Counter::detached()).unwrap();
        conn.send(&Frame::JobInit {
            name: "n".repeat(1000),
            knobs: Vec::new(),
        })
        .unwrap();
        match conn.recv() {
            Ok(Frame::JobRejected { reason }) => assert!(reason.contains("exceeds"), "{reason}"),
            other => panic!("expected JobRejected, got {other:?}"),
        }
        worker.shutdown();
    }
}
