//! Map-side scheduling: the coordinator loop that assigns splits to the
//! worker pool and retries failed attempts. It reads no clock: every
//! decision follows from the order of events alone.
//!
//! Extracted from the old monolithic driver so the policy logic (task
//! queues, retry budgets) lives apart from the mechanics of
//! spawning workers ([`crate::executor`]) and the public API surface
//! ([`crate::driver`]).
//!
//! The scheduler is generalised over *how input arrives*: a
//! [`SplitFeed::Fixed`] job knows all of its splits up front (the classic
//! batch engine), while a [`SplitFeed::Streamed`] job discovers splits as
//! an upstream pipeline stage produces them. For streamed feeds the
//! scheduler broadcasts
//! [`ShuffleMsg::InputExhausted`](crate::shuffle::ShuffleMsg) once the
//! feed closes, so reducers learn the final map-task count without a
//! barrier.
//!
//! A task never has two attempts at once: the next attempt is enqueued
//! only after the previous one reported `Finished(Err)`, so the first
//! `Ok` is the only one. A lost TCP worker's attempt may still have
//! shuffled segments when its retry runs; the reducers' attempt dedup
//! commits one of the two, not this loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};

use onepass_core::error::{Error, Result};
use onepass_core::trace::LocalTracer;

use crate::map_task::{MapTaskStats, Split};
use crate::report::TaskSpan;
use crate::shuffle::ShuffleTx;
use crate::telemetry::StageTelemetry;

/// Where a job's input splits come from.
pub(crate) enum SplitFeed {
    /// All splits are known up front (classic batch execution).
    Fixed(Vec<Split>),
    /// Splits arrive over time from an upstream producer (a pipelined
    /// plan edge). An `Err` item poisons the job: the upstream stage
    /// failed, so this job must fail too rather than complete on partial
    /// input. The feed is exhausted when the sender drops.
    Streamed(Receiver<Result<Split>>),
}

/// One unit of map work handed to a worker.
pub(crate) struct MapAssignment {
    pub task: usize,
    pub attempt: usize,
    pub split: Split,
    pub cancel: Arc<AtomicBool>,
}

/// Worker / feed-forwarder → coordinator notifications.
pub(crate) enum MapEvent {
    Finished {
        task: usize,
        attempt: usize,
        span: TaskSpan,
        /// Boxed: a finished attempt's stats outweigh every other event.
        result: Box<Result<MapTaskStats>>,
    },
    /// A streamed feed delivered another split (or an upstream failure).
    NewSplit(Result<Split>),
    /// The streamed feed closed: no more splits will arrive.
    FeedClosed,
}

/// Per-logical-task scheduling state.
struct TaskState {
    /// Cancel flag of the task's one queued or running attempt. A task
    /// never has two: the next attempt is enqueued only after the last
    /// one finished with an error.
    running: Option<Arc<AtomicBool>>,
    next_attempt: usize,
}

impl TaskState {
    fn new() -> Self {
        TaskState {
            running: None,
            next_attempt: 1,
        }
    }
}

/// What the coordinator loop produced.
pub(crate) struct ScheduleOutcome {
    pub map_results: Vec<(MapTaskStats, TaskSpan)>,
    pub extra_spans: Vec<TaskSpan>,
    pub map_attempts: usize,
    pub failed_attempts: usize,
    pub fatal: Option<Error>,
    /// Final number of logical map tasks (grows under a streamed feed).
    pub total_map_tasks: usize,
}

/// Scheduler inputs that don't change over the run.
pub(crate) struct SchedulerCtx<'a> {
    /// Attempts allowed per map task, the first included.
    pub max_attempts: usize,
    pub task_tx: Sender<MapAssignment>,
    pub evt_rx: Receiver<MapEvent>,
    /// A streamed feed's forwarder gets one credit back per completed
    /// task; dropping the sender when the job fails stops the forwarder.
    pub credits: Option<Sender<()>>,
    pub shuffle_tx: &'a ShuffleTx,
    /// Live metrics for this stage. Progress gauges and per-task stats
    /// publish from inside the loop, so scrapers see them while the job
    /// runs.
    pub telemetry: &'a StageTelemetry,
}

/// Run the map coordinator loop until every known split has a winning
/// attempt (or the retry budget is exhausted) *and* the feed has closed.
///
/// `initial` holds the up-front splits of a fixed feed; `feed_open` is
/// true when a streamed feed may still deliver more (new splits arrive as
/// [`MapEvent::NewSplit`], closure as [`MapEvent::FeedClosed`]). For open
/// feeds the scheduler broadcasts the final task count to the reducers
/// via [`ShuffleTx::input_exhausted`] once the feed closes.
pub(crate) fn schedule_maps(
    ctx: SchedulerCtx<'_>,
    initial: Vec<Split>,
    feed_open: bool,
    driver_trace: &mut LocalTracer,
) -> ScheduleOutcome {
    let mut credits = ctx.credits;
    let mut splits = initial;
    let mut feed_closed = !feed_open;

    let mut out = ScheduleOutcome {
        map_results: Vec::with_capacity(splits.len()),
        extra_spans: Vec::new(),
        map_attempts: 0,
        failed_attempts: 0,
        fatal: None,
        total_map_tasks: splits.len(),
    };

    let mut tasks: Vec<TaskState> = (0..splits.len()).map(|_| TaskState::new()).collect();
    let mut completed_count = 0usize;
    let mut outstanding = 0usize;

    let enqueue = |tasks: &mut Vec<TaskState>,
                   splits: &[Split],
                   task: usize,
                   attempt: usize,
                   outstanding: &mut usize| {
        let cancel = Arc::new(AtomicBool::new(false));
        tasks[task].running = Some(Arc::clone(&cancel));
        let _ = ctx.task_tx.send(MapAssignment {
            task,
            attempt,
            split: splits[task].clone(),
            cancel,
        });
        ctx.telemetry.map_attempts.inc(1);
        *outstanding += 1;
    };

    for task in 0..splits.len() {
        enqueue(&mut tasks, &splits, task, 0, &mut outstanding);
    }
    ctx.telemetry.set_progress(0, splits.len());

    while outstanding > 0 || !feed_closed {
        let Ok(evt) = ctx.evt_rx.recv() else { break };
        match evt {
            MapEvent::NewSplit(Ok(split)) => {
                let task = splits.len();
                splits.push(split);
                tasks.push(TaskState::new());
                out.total_map_tasks = splits.len();
                if out.fatal.is_none() {
                    enqueue(&mut tasks, &splits, task, 0, &mut outstanding);
                }
                ctx.telemetry.set_progress(completed_count, splits.len());
            }
            MapEvent::NewSplit(Err(e)) if out.fatal.is_none() => {
                // Upstream producer failed: this job must not complete on
                // partial input.
                fail(&mut out, &tasks, &mut credits, e);
            }
            // A later upstream failure while already going down: drop it,
            // the first fatal error wins.
            MapEvent::NewSplit(Err(_)) => {}
            MapEvent::FeedClosed => {
                feed_closed = true;
                if out.fatal.is_none() {
                    ctx.shuffle_tx.input_exhausted(splits.len());
                }
            }
            MapEvent::Finished {
                task,
                attempt,
                span,
                result,
            } => {
                outstanding -= 1;
                out.map_attempts += 1;
                tasks[task].running = None;
                match *result {
                    Ok(stats) => {
                        completed_count += 1;
                        if let Some(c) = &credits {
                            let _ = c.send(());
                        }
                        ctx.telemetry.on_map_finished(&stats);
                        ctx.telemetry.set_progress(completed_count, splits.len());
                        out.map_results.push((stats, span));
                    }
                    Err(Error::Cancelled) => {
                        // Benign: the driver told it to stop.
                        out.extra_spans.push(span);
                    }
                    Err(e) => {
                        out.failed_attempts += 1;
                        ctx.telemetry.failed_attempts.inc(1);
                        out.extra_spans.push(span);
                        driver_trace.instant(
                            "task_failed",
                            "fault",
                            &[("task", task as f64), ("attempt", attempt as f64)],
                        );
                        if out.fatal.is_some() {
                            // The job is going down; nothing to recover.
                        } else if tasks[task].next_attempt < ctx.max_attempts {
                            let a = tasks[task].next_attempt;
                            tasks[task].next_attempt += 1;
                            driver_trace.instant(
                                "retry",
                                "fault",
                                &[("task", task as f64), ("attempt", a as f64)],
                            );
                            enqueue(&mut tasks, &splits, task, a, &mut outstanding);
                        } else {
                            // Budget exhausted.
                            fail(&mut out, &tasks, &mut credits, e);
                        }
                    }
                }
            }
        }
    }

    out
}

/// Fail the job with `e`, but keep draining outstanding attempts so no
/// thread is left blocked: cancel each task's queued or running attempt,
/// and drop the credits, which stops a streamed feed's forwarder.
fn fail(
    out: &mut ScheduleOutcome,
    tasks: &[TaskState],
    credits: &mut Option<Sender<()>>,
    e: Error,
) {
    out.fatal = Some(e);
    *credits = None;
    for cancel in tasks.iter().filter_map(|t| t.running.as_ref()) {
        cancel.store(true, Ordering::Relaxed);
    }
}
