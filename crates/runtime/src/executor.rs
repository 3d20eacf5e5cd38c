//! Job execution mechanics: worker pools, shuffle wiring, shared
//! backend-construction services, and report assembly.
//!
//! The executor is the layer between the public [`Engine`](crate::Engine)
//! facade and the [`crate::scheduler`] policy loop. It owns everything a
//! single job run needs — spawning map/reduce workers, building spill
//! stores and groupers, timing output — while the scheduler decides *what*
//! to run next. The plan layer ([`crate::plan`]) calls [`execute`]
//! directly, once per stage, with a streamed split feed and an output tap
//! that forwards finals to downstream stages.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::unbounded;

use onepass_core::bytes_kv::{SegmentBuf, SegmentBufBuilder};
use onepass_core::config::DEFAULT_MERGE_FACTOR;
use onepass_core::error::{Error, Result};
use onepass_core::io::{FileSpillStore, SharedMemStore, SpillStore};
use onepass_core::memory::MemoryBudget;
use onepass_core::trace::{LocalTracer, Track};
use onepass_groupby::{
    Aggregator, EmitKind, FreqHashGrouper, GroupBy, HybridHashGrouper, IncHashGrouper, Sink,
    SortMergeGrouper,
};

use crate::driver::{EngineConfig, SpillBackend};
use crate::in_node::{CombineScope, MapSlot, SAMPLE_WINDOW};
use crate::job::{JobSpec, ReduceBackend};
use crate::map_task::MapAttemptCtx;
use crate::reduce_task::{run_reduce_task_open, ReduceResult, ReduceRetryOpts};
use crate::report::{JobOutput, JobReport, TaskKind, TaskSpan};
use crate::scheduler::{schedule_maps, MapAssignment, MapEvent, SchedulerCtx, SplitFeed};
use crate::shuffle::{shuffle_fabric, CHANNEL_DEPTH};
use crate::telemetry::{SinkObs, StageTelemetry};
use crate::transport::cluster::TcpCluster;
use crate::transport::Transport;

/// Per-partition observer invoked on every sink emission, in addition to
/// normal output collection. The plan layer uses it to stream a stage's
/// final answers into the next stage's split feed while the stage is
/// still running.
pub(crate) type ReduceTap = Box<dyn FnMut(&[u8], &[u8], EmitKind) + Send>;

/// Builds the [`ReduceTap`] for one reduce partition. A factory (rather
/// than one shared closure) lets each partition own private buffering
/// state, so concurrently-draining reducers never contend on a lock in
/// the emission hot path.
pub(crate) type TapFactory = Arc<dyn Fn(usize) -> ReduceTap + Send + Sync>;

/// Everything one job execution needs.
pub(crate) struct ExecParams<'a> {
    pub config: &'a EngineConfig,
    pub job: &'a JobSpec,
    pub feed: SplitFeed,
    /// Time base for spans and output timestamps. The engine passes the
    /// job start; a plan passes the *plan* start so time-to-first-answer
    /// is comparable across stages.
    pub clock: Instant,
    /// Optional per-partition emission observer (see [`TapFactory`]).
    pub tap: Option<TapFactory>,
    /// A cache-output plan stage: each reducer keeps its finals as its
    /// partition of the stage's dataset ([`JobReport::partitions`]),
    /// key-sorted on its own thread, instead of collecting outputs.
    pub partition_output: bool,
    /// Added to every trace track id so concurrent stages of a plan don't
    /// collide in the flamegraph (stage `i` uses `i * 1_000_000`).
    pub track_offset: u64,
}

/// Build a spill store for `spill`.
fn make_store(spill: SpillBackend) -> Result<Arc<dyn SpillStore>> {
    Ok(match spill {
        SpillBackend::Memory => Arc::new(SharedMemStore::new()),
        SpillBackend::TempFiles => Arc::new(FileSpillStore::temp()?),
    })
}

/// Buckets per recursion level of [`ReduceBackend::HybridHash`].
const HYBRID_HASH_FANOUT: usize = 8;

/// Build the group-by operator for `job`'s reduce backend. The shared
/// construction service used by reduce attempts and (via
/// [`build_incremental_grouper`]) stream sessions, so backend wiring
/// lives in exactly one place.
pub(crate) fn build_grouper(
    job: &JobSpec,
    store: Arc<dyn SpillStore>,
    budget: MemoryBudget,
    agg: Arc<dyn Aggregator>,
    tracer: LocalTracer,
) -> Result<Box<dyn GroupBy>> {
    Ok(match &job.backend {
        ReduceBackend::SortMerge { .. } => {
            let mut g = SortMergeGrouper::new(store, budget, DEFAULT_MERGE_FACTOR, agg)?;
            g.set_tracer(tracer);
            Box::new(g)
        }
        ReduceBackend::HybridHash => {
            let mut g = HybridHashGrouper::new(store, budget, HYBRID_HASH_FANOUT, agg)?;
            g.set_tracer(tracer);
            Box::new(g)
        }
        ReduceBackend::IncHash { .. } | ReduceBackend::FreqHash => {
            let mut g = build_incremental_grouper(job, store, budget, agg)?;
            g.set_tracer(tracer);
            Box::new(g)
        }
    })
}

/// Build the incremental hash operator for `job` (IncHash is its gate-off
/// spelling, FreqHash its gate-on one), rejecting blocking backends with
/// a config error. [`StreamSession`](crate::stream::StreamSession) holds
/// what it returns, so it can ask the operator to shed.
pub(crate) fn build_incremental_grouper(
    job: &JobSpec,
    store: Arc<dyn SpillStore>,
    budget: MemoryBudget,
    agg: Arc<dyn Aggregator>,
) -> Result<FreqHashGrouper> {
    match &job.backend {
        ReduceBackend::IncHash { early_every } => {
            Ok(IncHashGrouper::with_early(store, budget, agg, *early_every))
        }
        ReduceBackend::FreqHash => Ok(FreqHashGrouper::new(store, budget, agg)),
        other => Err(Error::Config(format!(
            "incremental grouping requires an incremental backend; {} is blocking",
            other.label()
        ))),
    }
}

/// Execute one job: spawn map workers, one reducer per partition, run the
/// scheduler's coordinator loop, and assemble the report.
pub(crate) fn execute(params: ExecParams<'_>) -> Result<JobReport> {
    let ExecParams {
        config,
        job,
        feed,
        clock,
        tap,
        partition_output,
        track_offset,
    } = params;
    job.validate()?;
    // Reducers run here on every transport, with the job's own budget.
    let reduce_attempts = config.max_attempts;
    if reduce_attempts == 0 {
        return Err(Error::Config("max_attempts must be >= 1".into()));
    }
    let mut map_attempts = reduce_attempts;
    let tcp_workers = match &config.transport {
        Transport::InProc => None,
        Transport::Tcp { workers } => {
            if workers.is_empty() {
                return Err(Error::Config(
                    "transport tcp requires at least one worker address".into(),
                ));
            }
            // Worker loss is survived by re-running lost map attempts on
            // survivors; guarantee the map retry budget can absorb losing
            // every worker once.
            map_attempts = map_attempts.max(workers.len() + 2);
            Some(workers.as_slice())
        }
    };
    let injector = config.faults.clone();
    // Attempt-aware shuffle dedup is only needed when a map task can run
    // more than once; otherwise reducers keep the eager commit-on-arrival
    // fast path.
    let ft_active = map_attempts > 1 || injector.is_active();

    let start = clock;
    let (initial, feed_rx) = match feed {
        SplitFeed::Fixed(splits) => (splits, None),
        SplitFeed::Streamed(rx) => (Vec::new(), Some(rx)),
    };
    // A fixed feed knows its map-task count up front; a streamed feed's
    // reducers run open-ended until the scheduler broadcasts the total.
    let known_total = if feed_rx.is_none() {
        Some(initial.len())
    } else {
        None
    };
    let (shuffle_tx, shuffle_rxs) = shuffle_fabric(job.reducers, CHANNEL_DEPTH);

    // Live metrics: one handle set per executed job, labeled by job name
    // (which is the stage name inside a plan).
    let telemetry = StageTelemetry::new(config.metrics.as_ref(), &job.name);
    let shuffle_tx = shuffle_tx.with_metrics(
        telemetry.shuffle_bytes.clone(),
        telemetry.shuffle_segments.clone(),
    );

    // Map-side persistence store (shared; only totals are read): every
    // in-proc map writes its output before it completes (§II-A). Remote
    // map tasks never persist output — recovery is re-execution from the
    // coordinator-held split.
    let map_store = match tcp_workers {
        None => Some(make_store(config.spill)?),
        Some(_) => None,
    };
    let spill = config.spill;

    // Work queue + event stream between coordinator and map workers.
    let (task_tx, task_rx) = unbounded::<MapAssignment>();
    let (evt_tx, evt_rx) = unbounded::<MapEvent>();
    // A streamed feed leaves its edge only as fast as this job maps it:
    // the forwarder takes the next split for a credit, one per map slot to
    // start with and one back per completed task, so a slow stage stalls
    // its upstream on the bounded edge instead of queueing all of it here.
    let (credit_tx, credit_rx) = unbounded::<()>();
    for _ in 0..config.map_workers.max(1) {
        let _ = credit_tx.send(());
    }
    let (red_res_tx, red_res_rx) = unbounded::<Result<(ReduceResult, TaskSpan, TimedSink)>>();

    let tracer = &config.tracer;
    let mut driver_trace = tracer.local(Track::new("driver", track_offset));
    driver_trace.begin("job", "job");

    // Distributed mode: dial the worker fleet up front. Workers run map
    // attempts only.
    let cluster = match tcp_workers {
        Some(addrs) => Some(TcpCluster::connect(
            addrs,
            job,
            config,
            start,
            track_offset,
        )?),
        None => None,
    };

    let mut outcome = None;

    crossbeam::thread::scope(|scope| {
        // Distributed map side: one driver ships the scheduler's queue to
        // the workers; one reader per worker feeds its segments back into
        // the local fabric.
        let driver = cluster
            .as_ref()
            .map(|c| c.spawn(scope, &shuffle_tx, &task_rx, evt_tx.clone()));
        // Map workers (in-proc; none when maps run on remote workers).
        let local_map_workers = if cluster.is_some() {
            0
        } else {
            config.map_workers.max(1)
        };
        for _ in 0..local_map_workers {
            let task_rx = task_rx.clone();
            let shuffle_tx = shuffle_tx.clone();
            let evt_tx = evt_tx.clone();
            let map_store = map_store.as_ref();
            let injector = injector.clone();
            let innode_ratio = telemetry.innode_combine_ratio.clone();
            scope.spawn(move |_| {
                let mut slot = MapSlot::new(
                    job,
                    &shuffle_tx,
                    map_store,
                    CombineScope::Worker,
                    innode_ratio,
                    SAMPLE_WINDOW,
                );
                while let Ok(asg) = task_rx.recv() {
                    let MapAssignment {
                        task,
                        attempt,
                        split,
                        cancel,
                    } = asg;
                    let mut open = TaskSpan::open(TaskKind::Map, task, tracer, track_offset);
                    let ctx = MapAttemptCtx {
                        attempt,
                        injector: injector.clone(),
                        cancel: Some(cancel),
                    };
                    let result = slot.run_attempt(task, &split, &mut open.trace, &ctx);
                    let span = open.close(attempt, start);
                    let _ = evt_tx.send(MapEvent::Finished {
                        task,
                        attempt,
                        span,
                        result: Box::new(result),
                    });
                }
                // Task queue closed (scheduler exited).
                slot.drain();
            });
        }

        // Streamed feed forwarder: turn arriving splits into scheduler
        // events so the coordinator stays a single recv loop. The credits
        // run out for good once the job fails; the feed drops with this
        // thread then, so the upstream's sends fail instead of blocking.
        if let Some(rx) = feed_rx {
            let evt_tx = evt_tx.clone();
            scope.spawn(move |_| {
                while credit_rx.recv().is_ok() {
                    let Ok(item) = rx.recv() else { break };
                    let _ = evt_tx.send(MapEvent::NewSplit(item));
                }
                drop(rx);
                let _ = evt_tx.send(MapEvent::FeedClosed);
            });
        }
        drop(evt_tx);

        // Reduce side, on every transport: one reducer per partition.
        for (partition, rx) in shuffle_rxs.into_iter().enumerate() {
            let red_res_tx = red_res_tx.clone();
            let injector = injector.clone();
            let tap = tap.clone();
            let sink_obs = SinkObs::new(&telemetry);
            scope.spawn(move |_| {
                let mut open = TaskSpan::open(TaskKind::Reduce, partition, tracer, track_offset);
                let tap = tap.as_ref().map(|factory| factory(partition));
                let kept = Kept::for_job(job, partition_output);
                let mut sink = TimedSink::new(start, kept, tap, sink_obs);
                // Each reduce attempt gets a fresh store + budget, so
                // state a failed attempt abandoned can never starve or
                // corrupt its successor.
                let mut resources = || -> Result<(Arc<dyn SpillStore>, MemoryBudget)> {
                    Ok((
                        make_store(spill)?,
                        MemoryBudget::new(job.reduce_budget_bytes),
                    ))
                };
                let opts = ReduceRetryOpts {
                    max_attempts: reduce_attempts,
                    dedup_attempts: ft_active,
                    injector,
                };
                let res = run_reduce_task_open(
                    job,
                    partition,
                    &rx,
                    known_total,
                    &mut resources,
                    &mut sink,
                    &mut open.trace,
                    &opts,
                );
                let attempt = res.as_ref().map_or(reduce_attempts - 1, |r| r.attempts - 1);
                sink.close();
                let span = open.close(attempt, start);
                let _ = red_res_tx.send(res.map(|r| (r, span, sink)));
            });
        }
        drop(red_res_tx);

        // ---- Map coordinator (this thread). ----
        let ctx = SchedulerCtx {
            max_attempts: map_attempts,
            task_tx,
            evt_rx,
            credits: known_total.is_none().then_some(credit_tx),
            shuffle_tx: &shuffle_tx,
            telemetry: &telemetry,
        };
        let feed_open = known_total.is_none();
        let mut out = schedule_maps(ctx, initial, feed_open, &mut driver_trace);

        // All attempts drained (SchedulerCtx::task_tx dropped with the
        // ctx). On failure, unblock reducers still waiting for MapDones
        // that will never arrive.
        if out.fatal.is_some() {
            shuffle_tx.abort();
        }
        // The dropped queue ends the driver.
        if let Some(driver) = driver {
            let rejection = driver
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            // A job rejection (unregistered name, bad knobs, another wire
            // version) is the root cause behind whatever the scheduler saw.
            if let (Some(reason), Some(_)) = (rejection, &out.fatal) {
                out.fatal = Some(Error::Config(reason));
            }
        }
        outcome = Some(out);
    })
    .map_err(|_| Error::InvalidState("engine worker panicked".into()))?;

    driver_trace.end("job", "job");
    drop(driver_trace);

    let outcome = outcome.expect("scheduler outcome present");
    if let Some(e) = outcome.fatal {
        return Err(e);
    }

    // Assemble the report.
    let mut report = JobReport {
        name: job.name.clone(),
        backend: job.backend.label().to_string(),
        ..Default::default()
    };
    if partition_output {
        report.partitions = vec![SegmentBuf::default(); job.reducers];
    }
    for (stats, span) in &outcome.map_results {
        report.absorb_map(stats);
        report.task_spans.push(*span);
    }
    report.task_spans.extend(outcome.extra_spans);
    report.map_attempts = outcome.map_attempts;
    report.failed_attempts = outcome.failed_attempts;
    if report.map_tasks != outcome.total_map_tasks {
        return Err(Error::InvalidState(format!(
            "expected {} map results, got {}",
            outcome.total_map_tasks, report.map_tasks
        )));
    }
    let mut early_total = 0u64;
    for res in red_res_rx.iter() {
        let (result, span, sink) = res?;
        telemetry.publish_profile("reduce", &result.stats.profile);
        report.absorb_reduce(&result);
        report.task_spans.push(span);
        early_total += sink.early_seen;
        if let Some(t) = sink.first_early {
            report.first_early_at = Some(match report.first_early_at {
                Some(cur) => cur.min(t),
                None => t,
            });
        }
        if let Some(t) = sink.first_final {
            report.first_final_at = Some(match report.first_final_at {
                Some(cur) => cur.min(t),
                None => t,
            });
        }
        match sink.kept {
            Kept::Outputs(outputs) => report.outputs.extend(outputs),
            Kept::Partition(finals) => {
                // A reduce result's partition is one of the job's:
                // reducers are spawned per partition.
                if let Some(slot) = report.partitions.get_mut(result.partition) {
                    *slot = finals;
                }
            }
            // A reducer `close`s its sink before sending it, which turns
            // its finals into a sorted partition.
            Kept::Nothing | Kept::Finals(_) => {}
        }
    }
    // Early emissions = what the sinks actually saw: covers backend early
    // output *and* HOP snapshots uniformly, independent of whether
    // outputs were collected.
    report.early_emits = early_total;
    report.shuffled_bytes = shuffle_tx.shuffled_bytes();
    report.shuffled_records = shuffle_tx.shuffled_records();
    if let Some(ms) = &map_store {
        report.map_write_io = ms.stats();
    }
    report.wall = start.elapsed();
    telemetry.publish_report(&report);
    Ok(report)
}

/// What a reducer's sink keeps of its emissions for the job report.
enum Kept {
    /// Counts and first-emission times only (the job discards output).
    Nothing,
    /// Every emission, timestamped: the job's collected output.
    Outputs(Vec<JobOutput>),
    /// A cache-output stage's finals, in one arena as they were emitted,
    /// until [`TimedSink::close`] sorts them.
    Finals(SegmentBufBuilder),
    /// The partition, key-sorted: what the stage publishes to the cache.
    Partition(SegmentBuf),
}

impl Kept {
    /// What a reducer of `job` keeps: its partition of the dataset for a
    /// cache-output stage, else the outputs the job collects, if any.
    fn for_job(job: &JobSpec, partition_output: bool) -> Self {
        if partition_output {
            Kept::Finals(SegmentBufBuilder::new())
        } else if job.collect_output.is_collect() {
            Kept::Outputs(Vec::new())
        } else {
            Kept::Nothing
        }
    }
}

/// A reduce partition's sink: counts emissions and stamps the first of
/// each kind, keeps what [`Kept`] says, and forwards each emission to an
/// optional [`ReduceTap`].
struct TimedSink {
    start: Instant,
    kept: Kept,
    tap: Option<ReduceTap>,
    obs: SinkObs,
    early_seen: u64,
    final_seen: u64,
    first_early: Option<std::time::Duration>,
    first_final: Option<std::time::Duration>,
}

impl std::fmt::Debug for TimedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedSink")
            .field("early_seen", &self.early_seen)
            .field("final_seen", &self.final_seen)
            .finish()
    }
}

impl TimedSink {
    fn new(start: Instant, kept: Kept, tap: Option<ReduceTap>, obs: SinkObs) -> Self {
        TimedSink {
            start,
            kept,
            tap,
            obs,
            early_seen: 0,
            final_seen: 0,
            first_early: None,
            first_final: None,
        }
    }

    /// End of the reduce task, on the thread that ran it: flush the
    /// buffered emission count, drop the tap (a plan edge's writer sends
    /// its remainder as it drops) and sort a cache-output partition by key.
    fn close(&mut self) {
        self.obs.flush();
        self.tap = None;
        if let Kept::Finals(finals) = &mut self.kept {
            let finals = std::mem::take(finals).finish();
            self.kept = Kept::Partition(finals.sorted_by_key());
        }
    }
}

impl Sink for TimedSink {
    fn emit(&mut self, key: &[u8], value: &[u8], kind: EmitKind) {
        let first = match kind {
            EmitKind::Early => {
                self.early_seen += 1;
                &mut self.first_early
            }
            EmitKind::Final => {
                self.final_seen += 1;
                &mut self.first_final
            }
        };
        // The clock is read for the first emission of each kind and for a
        // timestamped output, never otherwise: a partition writer past its
        // first final only appends.
        let stamp = match first {
            Some(_) => None,
            None => {
                let at = self.start.elapsed();
                if kind == EmitKind::Final {
                    self.obs.first_final(at);
                }
                *first = Some(at);
                Some(at)
            }
        };
        self.obs.count();
        if let Some(tap) = self.tap.as_mut() {
            tap(key, value, kind);
        }
        match &mut self.kept {
            Kept::Outputs(outputs) => outputs.push(JobOutput {
                key: key.to_vec(),
                value: value.to_vec(),
                kind,
                at: stamp.unwrap_or_else(|| self.start.elapsed()),
            }),
            Kept::Finals(finals) if kind == EmitKind::Final => finals.push(key, value),
            _ => {}
        }
    }
}
