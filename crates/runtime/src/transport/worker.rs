//! The worker side of the TCP transport: `onepass worker --listen ADDR`.
//!
//! A worker process accepts one connection per job from a coordinator.
//! Over that connection it receives a `JobInit` (job name + knob pairs,
//! resolved against its [`JobRegistry`] and [`crate::knobs`]) and map task
//! dispatches (`NewSplit`); it sends back shuffle segments and
//! `MapDone`/`MapOk`/`MapFailed`. A worker runs map attempts only: every
//! reduce partition runs on the coordinator, where the segments land.
//!
//! Map tasks run through the exact same `in_node::MapSlot` attempt helper
//! as in-process map workers — only the [`ShuffleTx`] sink differs (a
//! `TcpSink` framing segments back to the coordinator instead of in-proc
//! channels).
//!
//! Two deliberate simplifications versus in-process execution: a remote
//! map slot's combine table is task-scoped (it ships before the `MapOk`
//! that commits the attempt; see `in_node.rs`) and remote maps never
//! persist map output (recovery is re-execution from the
//! coordinator-held input split).

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver};

use onepass_core::error::{Error, Result};
use onepass_core::fault::FaultInjector;
use onepass_core::obs::{Counter, Histogram};
use onepass_core::trace::LocalTracer;

use super::tcp::{Conn, TcpSink};
use super::wire::Frame;
use super::JobRegistry;
use crate::driver::EngineConfig;
use crate::in_node::{CombineScope, MapSlot, SAMPLE_WINDOW};
use crate::job::JobSpec;
use crate::knobs::{self, Settings};
use crate::map_task::{MapAttemptCtx, Split};
use crate::shuffle::ShuffleTx;

/// Knobs for a worker process.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Concurrent map tasks per job connection.
    pub map_slots: usize,
    /// Fault-injection hook: after this many successful map tasks on a
    /// connection, the worker severs that connection without warning —
    /// indistinguishable, from the coordinator's side, from `kill -9`.
    /// Used by the equivalence tests to exercise worker-loss recovery
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

    /// Stop the worker here rather than at the end of the scope: drops
    /// the handle, which does the work.
    pub fn shutdown(self) {}
}

/// Stop accepting connections and join the accept loop. Connections
/// already serving a job drain on their own.
impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop.
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

    // First frame must name the job. One that does not decode (another
    // wire version's among them) is answered like one that does not
    // apply: the coordinator learns why.
    let settings = match conn.recv() {
        Ok(Frame::JobInit { name, knobs }) => instantiate(&registry, &name, &knobs),
        Err(e @ Error::Corrupt(_)) => Err(e),
        _ => return,
    };
    let job = match settings {
        Ok(s) => s.job,
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
    let (map_tx, map_rx) = unbounded::<(usize, usize, Split)>();
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
            Frame::Ping { nonce } => {
                let _ = conn.send(&Frame::Pong { nonce });
            }
            // Frames this side never expects (worker→coordinator shapes,
            // or protocol noise): ignore rather than kill the job.
            _ => {}
        }
    }

    // Teardown: closing the dispatch queue unblocks every slot still
    // waiting for input.
    drop(map_tx);
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
    map_rx: &Receiver<(usize, usize, Split)>,
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
        Histogram::detached(),
        SAMPLE_WINDOW,
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
                        // coordinator sees EOF and reruns our maps.
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

    /// A `JobInit` as builds before the wire version wrote it (tag 1, no
    /// version; here naming job `wc` with `reducers=2`): the worker
    /// refuses it, naming both versions, instead of reading on into frames
    /// it does not have.
    #[test]
    fn job_init_of_an_unversioned_build_is_rejected_naming_both_versions() {
        const UNVERSIONED_JOB_INIT: &str =
            "200000000102000000776301000000000000000800000072656475636572730100000032";
        let bytes: Vec<u8> = (0..UNVERSIONED_JOB_INIT.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&UNVERSIONED_JOB_INIT[i..i + 2], 16).unwrap())
            .collect();
        let worker = spawn_local(JobRegistry::new(), WorkerOptions::default()).unwrap();
        let conn = Conn::connect(worker.addr(), Counter::detached(), Counter::detached()).unwrap();
        conn.send_encoded(&bytes).unwrap();
        match conn.recv() {
            Ok(Frame::JobRejected { reason }) => {
                assert!(reason.contains("wire version 0;"), "{reason}");
                let ours = format!("speaks version {}", super::super::wire::WIRE_VERSION);
                assert!(reason.contains(&ours), "{reason}");
            }
            other => panic!("expected JobRejected, got {other:?}"),
        }
        worker.shutdown();
    }
}
