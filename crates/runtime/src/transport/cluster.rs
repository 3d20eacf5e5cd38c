//! The threads of the TCP transport's coordinator.
//!
//! When [`EngineConfig::transport`](crate::EngineConfig) is
//! [`Transport::Tcp`](super::Transport), the executor builds a
//! [`TcpCluster`] instead of spawning local map workers. The cluster owns
//! one framed connection per worker process and runs a job over them on
//! `links + 1` threads:
//!
//! * **One reader per connection** puts the data frames (`Segment`,
//!   `MapDone`) straight into the executor's [`ShuffleTx`], towards the
//!   same reducers an in-proc job runs, so volume accounting, backpressure
//!   and reduce retries are identical across transports, and the
//!   shuffle's backpressure never stalls control. Every other frame goes
//!   to the driver, behind the data it follows on the wire.
//! * **One driver** waits on the scheduler's work queue, the readers'
//!   control frames and the heartbeat period, hands each to the
//!   [`Coordinator`], which decides, and carries out the [`Action`]s it
//!   returns: it writes frames, severs links, stamps each remote
//!   attempt's [`TaskSpan`] and reports the attempt to the scheduler.

use std::collections::HashMap;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Select, Sender, TryRecvError};
use crossbeam::thread::{Scope, ScopedJoinHandle};

use onepass_core::error::Result;
use onepass_core::obs::{names, Counter, Histogram};
use onepass_core::trace::{Tracer, Track};

use super::coordinator::{Action, Coordinator, PING_EVERY};
use super::tcp::Conn;
use super::wire::Frame;
use crate::driver::EngineConfig;
use crate::job::JobSpec;
use crate::report::{TaskKind, TaskSpan};
use crate::scheduler::{MapAssignment, MapEvent};
use crate::shuffle::{Segment, ShuffleTx};

/// A control frame from a link's reader, or `None` once it hung up.
type Control = (usize, Option<Frame>);

/// A connected set of worker processes executing one job, driven by the
/// executor. Lives on the executor's stack so scoped threads can borrow
/// it directly.
pub(crate) struct TcpCluster<'a> {
    conns: Vec<Conn>,
    /// Readers → driver. The cluster keeps a sender, so the driver's
    /// receiver stays connected after every reader has exited.
    control: (Sender<Control>, Receiver<Control>),
    start: Instant,
    rtt: Histogram,
    /// The in-proc map pool size, which caps remote attempts in flight.
    pool: usize,
    tracer: &'a Tracer,
    track_offset: u64,
}

impl<'a> TcpCluster<'a> {
    /// Dial every worker and announce the job: its name and the table's
    /// travelling rows are what a worker needs of it.
    pub(crate) fn connect(
        workers: &[String],
        job: &JobSpec,
        config: &'a EngineConfig,
        start: Instant,
        track_offset: u64,
    ) -> Result<Self> {
        let (job_name, metrics) = (job.name.as_str(), config.metrics.as_ref());
        let knobs = crate::knobs::pairs(job, config);
        let bytes = |dir| {
            let labels = [("stage", job_name), ("dir", dir)];
            Counter::of(metrics, names::TRANSPORT_BYTES, &labels)
        };
        let (tx_bytes, rx_bytes) = (bytes("tx"), bytes("rx"));
        let mut conns = Vec::with_capacity(workers.len());
        for addr in workers {
            let conn = Conn::connect(addr, tx_bytes.clone(), rx_bytes.clone())?;
            conn.send(&Frame::JobInit {
                name: job_name.to_string(),
                knobs: knobs.clone(),
            })?;
            conns.push(conn);
        }
        let stage = [("stage", job_name)];
        Ok(TcpCluster {
            conns,
            control: unbounded(),
            start,
            rtt: Histogram::of(metrics, names::TRANSPORT_RTT_SECONDS, &stage),
            pool: config.map_workers,
            tracer: &config.tracer,
            track_offset,
        })
    }

    /// Spawn one reader per connection and the driver. The driver runs
    /// until the scheduler drops its work queue, then severs every
    /// connection and returns the first reason a worker refused the job.
    pub(crate) fn spawn<'scope, 'env>(
        &'scope self,
        scope: &Scope<'scope, 'env>,
        shuffle_tx: &'scope ShuffleTx,
        task_rx: &'scope Receiver<MapAssignment>,
        evt_tx: Sender<MapEvent>,
    ) -> ScopedJoinHandle<'scope, Option<String>> {
        for link in 0..self.conns.len() {
            scope.spawn(move |_| self.read_loop(link, shuffle_tx));
        }
        scope.spawn(move |_| self.drive(task_rx, &evt_tx))
    }

    fn read_loop(&self, link: usize, shuffle_tx: &ShuffleTx) {
        while let Ok(frame) = self.conns[link].recv() {
            match frame {
                Frame::Segment {
                    map_task,
                    attempt,
                    partition,
                    records,
                } => {
                    // Into the coordinator fabric: accounting and
                    // backpressure happen here, exactly as for local map
                    // workers. `records` still points into the frame body
                    // it arrived in, which the reducer reads in place.
                    let (task, attempt) = (map_task as usize, attempt as usize);
                    let seg = Segment::new(task, attempt, partition as usize, records);
                    shuffle_tx.send_segment(seg);
                }
                Frame::MapDone { map_task, attempt } => {
                    shuffle_tx.map_done(map_task as usize, attempt as usize);
                }
                control => {
                    let _ = self.control.0.send((link, Some(control)));
                }
            }
        }
        let _ = self.control.0.send((link, None));
    }

    fn drive(&self, tasks: &Receiver<MapAssignment>, evt_tx: &Sender<MapEvent>) -> Option<String> {
        let peers = self.conns.iter().map(|c| c.peer().to_string()).collect();
        let mut core = Coordinator::new(peers, self.pool, Instant::now(), self.rtt.clone());
        let open_span = |task| TaskSpan::open(TaskKind::Map, task, self.tracer, self.track_offset);
        let mut spans = HashMap::new();
        let mut sel = Select::new();
        let from_scheduler = sel.recv(tasks);
        sel.recv(&self.control.1);
        let track = Track::new("transport", self.track_offset);
        let mut transport = self.tracer.local(track);
        let mut next_tick = Instant::now() + PING_EVERY;
        loop {
            let now = Instant::now();
            if now >= next_tick {
                core.tick(now);
                next_tick = now + PING_EVERY;
            } else if sel.ready_timeout(next_tick - now) == Ok(from_scheduler) {
                match tasks.try_recv() {
                    Ok(asg) => core.assign(asg),
                    // The scheduler returned: every attempt is answered.
                    Err(TryRecvError::Disconnected) => break,
                    Err(TryRecvError::Empty) => {}
                }
            } else if let Ok((link, control)) = self.control.1.try_recv() {
                match control {
                    Some(frame) => core.on_frame(link, frame, Instant::now()),
                    None => core.link_down(link),
                }
            }
            while let Some(action) = core.out.pop_front() {
                match action {
                    Action::Send(link, frame) => {
                        // A remote attempt's span runs from its `NewSplit`
                        // to its answer.
                        if let Frame::NewSplit { task, attempt, .. } = frame {
                            let key = (task as usize, attempt as usize);
                            spans.insert(key, open_span(key.0));
                        }
                        // The reader reads what the worker sent before it
                        // went (a refusal, say), then reports the hang-up.
                        if self.conns[link].send(&frame).is_err() {
                            self.conns[link].shutdown();
                        }
                    }
                    Action::Lost(link) => {
                        self.conns[link].shutdown();
                        transport.instant("worker_dead", "transport", &[("worker", link as f64)]);
                    }
                    Action::Finished(task, attempt, result) => {
                        // An assignment answered without being sent gets
                        // an empty span.
                        let open = spans.remove(&(task, attempt));
                        let open = open.unwrap_or_else(|| open_span(task));
                        let (span, result) = (open.close(attempt, self.start), Box::new(result));
                        let _ = evt_tx.send(MapEvent::Finished {
                            task,
                            attempt,
                            span,
                            result,
                        });
                    }
                }
            }
        }
        // Unblock every reader.
        for conn in &self.conns {
            conn.shutdown();
        }
        core.rejection
    }
}
