//! Map-side scheduling: the coordinator loop that assigns splits to the
//! worker pool, retries failed attempts, and clones stragglers.
//!
//! Extracted from the old monolithic driver so the policy logic (task
//! queues, retry budgets, speculation) lives apart from the mechanics of
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use onepass_core::error::{Error, Result};
use onepass_core::trace::LocalTracer;

use crate::map_task::{MapTaskStats, Split};
use crate::report::TaskSpan;
use crate::shuffle::ShuffleTx;
use crate::telemetry::StageTelemetry;

/// Under speculation, a first attempt is a straggler once it has run
/// longer than this many times the median duration of completed map
/// tasks.
const SLOW_FACTOR: f64 = 2.0;

/// Completed map tasks required before that median is trusted.
const MIN_COMPLETED: usize = 2;

/// Coordinator polling cadence while watching for stragglers.
const POLL: Duration = Duration::from_millis(5);

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
    pub speculative: bool,
    pub split: Arc<Split>,
    pub cancel: Arc<AtomicBool>,
}

/// Worker / feed-forwarder → coordinator notifications.
pub(crate) enum MapEvent {
    Started {
        task: usize,
        attempt: usize,
        at: Duration,
    },
    Finished {
        task: usize,
        attempt: usize,
        speculative: bool,
        span: TaskSpan,
        result: Result<MapTaskStats>,
    },
    /// A streamed feed delivered another split (or an upstream failure).
    NewSplit(Result<Split>),
    /// The streamed feed closed: no more splits will arrive.
    FeedClosed,
}

/// A map attempt the coordinator believes is queued or running.
struct RunningAttempt {
    attempt: usize,
    started: Option<Duration>,
    cancel: Arc<AtomicBool>,
    speculative: bool,
}

/// Per-logical-task scheduling state.
struct TaskState {
    running: Vec<RunningAttempt>,
    completed: bool,
    next_attempt: usize,
    spec_cloned: bool,
}

impl TaskState {
    fn new() -> Self {
        TaskState {
            running: Vec::new(),
            completed: false,
            next_attempt: 1,
            spec_cloned: false,
        }
    }
}

/// What the coordinator loop produced.
pub(crate) struct ScheduleOutcome {
    pub map_results: Vec<(MapTaskStats, TaskSpan)>,
    pub extra_spans: Vec<TaskSpan>,
    pub map_attempts: usize,
    pub failed_attempts: usize,
    pub speculative_launched: usize,
    pub speculative_wins: usize,
    pub fatal: Option<Error>,
    /// Final number of logical map tasks (grows under a streamed feed).
    pub total_map_tasks: usize,
}

/// Scheduler inputs that don't change over the run.
pub(crate) struct SchedulerCtx<'a> {
    /// Attempts allowed per map task, the first included.
    pub max_attempts: usize,
    pub speculate: bool,
    pub task_tx: Sender<MapAssignment>,
    pub evt_rx: Receiver<MapEvent>,
    /// A streamed feed's forwarder gets one credit back per completed
    /// task; dropping the sender when the job fails stops the forwarder.
    pub credits: Option<Sender<()>>,
    pub shuffle_tx: &'a ShuffleTx,
    /// Job (or plan) start time; straggler ages are measured against it.
    pub clock: Instant,
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
    initial: Vec<Arc<Split>>,
    feed_open: bool,
    driver_trace: &mut LocalTracer,
) -> ScheduleOutcome {
    let speculate = ctx.speculate;
    let mut credits = ctx.credits;
    let mut splits = initial;
    let mut feed_closed = !feed_open;

    let mut out = ScheduleOutcome {
        map_results: Vec::with_capacity(splits.len()),
        extra_spans: Vec::new(),
        map_attempts: 0,
        failed_attempts: 0,
        speculative_launched: 0,
        speculative_wins: 0,
        fatal: None,
        total_map_tasks: splits.len(),
    };

    let mut tasks: Vec<TaskState> = (0..splits.len()).map(|_| TaskState::new()).collect();
    let mut completed_count = 0usize;
    let mut durations: Vec<Duration> = Vec::new();
    let mut outstanding = 0usize;

    let enqueue = |tasks: &mut Vec<TaskState>,
                   splits: &[Arc<Split>],
                   task: usize,
                   attempt: usize,
                   speculative: bool,
                   outstanding: &mut usize| {
        let cancel = Arc::new(AtomicBool::new(false));
        tasks[task].running.push(RunningAttempt {
            attempt,
            started: None,
            cancel: Arc::clone(&cancel),
            speculative,
        });
        let _ = ctx.task_tx.send(MapAssignment {
            task,
            attempt,
            speculative,
            split: Arc::clone(&splits[task]),
            cancel,
        });
        ctx.telemetry.map_attempts.inc(1);
        *outstanding += 1;
    };

    for task in 0..splits.len() {
        enqueue(&mut tasks, &splits, task, 0, false, &mut outstanding);
    }
    ctx.telemetry.set_progress(0, splits.len());

    while outstanding > 0 || !feed_closed {
        let evt = if speculate {
            match ctx.evt_rx.recv_timeout(POLL) {
                Ok(e) => Some(e),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        } else {
            match ctx.evt_rx.recv() {
                Ok(e) => Some(e),
                Err(_) => break,
            }
        };

        match evt {
            None => {} // poll tick: fall through to straggler scan
            Some(MapEvent::NewSplit(Ok(split))) => {
                let task = splits.len();
                splits.push(Arc::new(split));
                tasks.push(TaskState::new());
                out.total_map_tasks = splits.len();
                if out.fatal.is_none() {
                    enqueue(&mut tasks, &splits, task, 0, false, &mut outstanding);
                }
                ctx.telemetry.set_progress(completed_count, splits.len());
            }
            Some(MapEvent::NewSplit(Err(e))) if out.fatal.is_none() => {
                // Upstream producer failed: this job must not complete on
                // partial input.
                fail(&mut out, &tasks, &mut credits, e);
            }
            // A later upstream failure while already going down: drop it,
            // the first fatal error wins.
            Some(MapEvent::NewSplit(Err(_))) => {}
            Some(MapEvent::FeedClosed) => {
                feed_closed = true;
                if out.fatal.is_none() {
                    ctx.shuffle_tx.input_exhausted(splits.len());
                }
            }
            Some(MapEvent::Started { task, attempt, at }) => {
                if let Some(r) = tasks[task]
                    .running
                    .iter_mut()
                    .find(|r| r.attempt == attempt)
                {
                    r.started = Some(at);
                }
            }
            Some(MapEvent::Finished {
                task,
                attempt,
                speculative,
                span,
                result,
            }) => {
                outstanding -= 1;
                out.map_attempts += 1;
                tasks[task].running.retain(|r| r.attempt != attempt);
                match result {
                    Ok(stats) => {
                        if tasks[task].completed {
                            // A raced twin also finished; reducers
                            // committed only one of them.
                            out.extra_spans.push(span);
                        } else {
                            tasks[task].completed = true;
                            completed_count += 1;
                            durations.push(span.end.saturating_sub(span.start));
                            if speculative {
                                out.speculative_wins += 1;
                            }
                            // First finisher wins: cancel twins.
                            for r in &tasks[task].running {
                                r.cancel.store(true, Ordering::Relaxed);
                            }
                            if let Some(c) = &credits {
                                let _ = c.send(());
                            }
                            ctx.telemetry.on_map_finished(&stats);
                            ctx.telemetry.set_progress(completed_count, splits.len());
                            out.map_results.push((stats, span));
                        }
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
                        if tasks[task].completed || out.fatal.is_some() {
                            // Another attempt already delivered the task
                            // (or the job is going down); nothing to
                            // recover.
                        } else if tasks[task].next_attempt < ctx.max_attempts {
                            let a = tasks[task].next_attempt;
                            tasks[task].next_attempt += 1;
                            driver_trace.instant(
                                "retry",
                                "fault",
                                &[("task", task as f64), ("attempt", a as f64)],
                            );
                            enqueue(&mut tasks, &splits, task, a, false, &mut outstanding);
                        } else {
                            // Budget exhausted.
                            fail(&mut out, &tasks, &mut credits, e);
                        }
                    }
                }
            }
        }

        // Straggler scan: clone slow first attempts once a median over
        // completed tasks exists.
        if speculate
            && out.fatal.is_none()
            && completed_count >= MIN_COMPLETED
            && (completed_count < splits.len() || !feed_closed)
        {
            let mut sorted = durations.clone();
            sorted.sort_unstable();
            let median = sorted[sorted.len() / 2];
            // Floor the threshold so micro-benchmark medians don't flag
            // everything as slow.
            let threshold = median.mul_f64(SLOW_FACTOR).max(Duration::from_millis(1));
            let now = ctx.clock.elapsed();
            for task in 0..splits.len() {
                if tasks[task].completed || tasks[task].spec_cloned {
                    continue;
                }
                let Some(orig) = tasks[task].running.iter().find(|r| !r.speculative) else {
                    continue;
                };
                let Some(started_at) = orig.started else {
                    continue; // still queued, not slow
                };
                if now.saturating_sub(started_at) <= threshold {
                    continue;
                }
                tasks[task].spec_cloned = true;
                out.speculative_launched += 1;
                ctx.telemetry.stragglers.inc(1);
                let a = tasks[task].next_attempt;
                tasks[task].next_attempt += 1;
                driver_trace.instant(
                    "speculate",
                    "fault",
                    &[("task", task as f64), ("attempt", a as f64)],
                );
                enqueue(&mut tasks, &splits, task, a, true, &mut outstanding);
            }
        }
    }

    out
}

/// Fail the job with `e`, but keep draining outstanding attempts so no
/// thread is left blocked: cancel every queued or running attempt, and
/// drop the credits, which stops a streamed feed's forwarder.
fn fail(
    out: &mut ScheduleOutcome,
    tasks: &[TaskState],
    credits: &mut Option<Sender<()>>,
    e: Error,
) {
    out.fatal = Some(e);
    *credits = None;
    for t in tasks {
        for r in &t.running {
            r.cancel.store(true, Ordering::Relaxed);
        }
    }
}
