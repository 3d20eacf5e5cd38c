//! Reduce task execution: receive shuffle segments, drive the configured
//! group-by backend, emit output.
//!
//! The task is a backend-agnostic driver over one
//! [`GroupBy`] operator from `onepass-groupby`:
//! sort-merge (Hadoop's reducer, Fig. 1 right half) and the three hash
//! backends are fed the same way — a sort-merge job's segments, which its
//! map side key-sorted, through `push_sorted`, a hash job's through
//! `push_batch`. What the driver owns is
//! everything around the operator: the shuffle loop, attempt dedup,
//! retry-and-replay, and MapReduce Online's snapshot
//! *schedule* (§III-D) — at configured map-completion fractions it asks
//! the operator for a `snapshot`, which sort-merge answers by re-reading
//! everything received so far, with the corresponding I/O charge.
//!
//! # Attempts, dedup, and retry
//!
//! When the driver runs with fault tolerance enabled, a reduce task must
//! cope with two new realities:
//!
//! * **Duplicate map attempts.** A retried map task can emit segments for
//!   the same logical map task more than once, and a TCP rerun after a
//!   lost worker can even race the attempt it replaces. The reducer
//!   buffers segments per `(map_task, attempt)` and *commits* exactly one
//!   attempt per task — the one whose [`ShuffleMsg::MapDone`] arrives
//!   first (per-channel FIFO ordering guarantees all of an attempt's
//!   segments precede its `MapDone`). Segments from losing attempts are
//!   dropped, so re-execution never double-counts records.
//! * **Its own failures.** A failing spill store (or an injected fault)
//!   aborts the in-flight operator. Under a retry budget the task builds a
//!   fresh operator from a resources factory and *replays* the committed
//!   segments it retained, with early emissions muted so downstream
//!   consumers never see the same snapshot twice. Final output is staged
//!   and only released once `finish` succeeds, so a failed final merge
//!   cannot double-emit.

use std::sync::Arc;

use crossbeam::channel::Receiver;

use onepass_core::bytes_kv::SegmentBufBuilder;
use onepass_core::config::HOP_SNAPSHOTS;
use onepass_core::error::{Error, Result};
use onepass_core::fault::{FaultAction, FaultInjector, FaultTarget};
use onepass_core::io::SpillStore;
use onepass_core::memory::MemoryBudget;
use onepass_core::metrics::{Phase, Profile, Stamp};
use onepass_core::trace::{LocalTracer, LANE};
use onepass_groupby::aggregate::StateInput;
use onepass_groupby::{EmitKind, GroupBy, OpStats, Sink};

use crate::job::{JobSpec, ReduceBackend};
use crate::shuffle::{Segment, ShuffleMsg};

/// Result of one reduce task.
#[derive(Debug, Clone, Default)]
pub struct ReduceResult {
    /// The partition this task served.
    pub partition: usize,
    /// Operator statistics (records, groups, spill I/O, CPU profile).
    pub stats: OpStats,
    /// Snapshots emitted (sort-merge + snapshots backend only).
    pub snapshots_taken: u64,
    /// Execution attempts consumed (1 = succeeded first try).
    pub attempts: usize,
}

/// Fault-tolerance knobs for one reduce task.
#[derive(Debug, Clone)]
pub struct ReduceRetryOpts {
    /// Total attempts allowed, including the first (1 = no retries).
    pub max_attempts: usize,
    /// Dedup segments by `(map_task, attempt)` and commit the first
    /// attempt whose `MapDone` arrives. Enable whenever map tasks can run
    /// more than once (retries); leave off to preserve the
    /// eager single-attempt fast path.
    pub dedup_attempts: bool,
    /// Planned fault schedule consulted per absorbed segment.
    pub injector: FaultInjector,
}

impl Default for ReduceRetryOpts {
    fn default() -> Self {
        ReduceRetryOpts {
            max_attempts: 1,
            dedup_attempts: false,
            injector: FaultInjector::none(),
        }
    }
}

/// Render a caught panic payload for error messages.
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".into()
    }
}

/// Run `f`, converting a panic into an [`Error::InvalidState`] so the
/// retry machinery treats buggy user code like any other task failure.
fn guarded<R>(f: impl FnOnce() -> Result<R>) -> Result<R> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(Error::InvalidState(format!(
            "reduce task panicked: {}",
            panic_message(p.as_ref())
        ))),
    }
}

/// Act on what the fault plan says for reduce `partition`'s `attempt`.
fn injected(action: Option<FaultAction>, partition: usize, attempt: usize) -> Result<()> {
    match action {
        None => Ok(()),
        Some(FaultAction::Fail) => Err(Error::Io(std::io::Error::other(format!(
            "injected fault: reduce task {partition} attempt {attempt}"
        )))),
        Some(FaultAction::Panic) => {
            panic!("injected panic: reduce task {partition} attempt {attempt}")
        }
    }
}

/// Sink adapter that drops [`EmitKind::Early`] emissions. Used while
/// replaying retained segments into a rebuilt attempt, so snapshots /
/// early answers the first attempt already published are not repeated.
struct MuteEarly<'a> {
    inner: &'a mut dyn Sink,
}

impl Sink for MuteEarly<'_> {
    fn emit(&mut self, key: &[u8], value: &[u8], kind: EmitKind) {
        if kind != EmitKind::Early {
            self.inner.emit(key, value, kind);
        }
    }
}

/// A finishing attempt's output, held back while a retry could still
/// replace it: every record in one arena, and each record's kind.
#[derive(Default)]
struct Staged {
    records: SegmentBufBuilder,
    kinds: Vec<EmitKind>,
}

impl Sink for Staged {
    fn emit(&mut self, key: &[u8], value: &[u8], kind: EmitKind) {
        self.records.push(key, value);
        self.kinds.push(kind);
    }
}

impl Staged {
    /// The attempt succeeded: release its output, in emission order.
    fn replay(self, sink: &mut dyn Sink) {
        let records = self.records.finish();
        for ((key, value), kind) in records.iter().zip(self.kinds) {
            sink.emit(key, value, kind);
        }
    }
}

/// Factory producing the spill store + memory budget for one reduce
/// attempt. Called once up front and once per retry; handing each attempt
/// a *fresh* budget guarantees reservations abandoned by a failed attempt
/// cannot starve its successor.
pub type ReduceResources<'a> = dyn FnMut() -> Result<(Arc<dyn SpillStore>, MemoryBudget)> + 'a;

/// Convert snapshot fractions into sorted, deduped map-completion
/// trigger counts for a known map-task total.
fn plan_from_fracs(fracs: &[f64], total_map_tasks: usize) -> Vec<usize> {
    let mut plan: Vec<usize> = fracs
        .iter()
        .map(|f| ((f * total_map_tasks as f64).ceil() as usize).max(1))
        .collect();
    plan.sort_unstable();
    plan.dedup();
    plan
}

/// Run one reduce task: absorb shuffle segments until every map task has
/// a committed attempt, then finish the backend into `sink`. Attempt-dedups
/// shuffle input, retries the backend on failure (building a fresh operator
/// and replaying retained committed segments), and never double-emits
/// output across attempts.
///
/// With `total_map_tasks == None` (a streamed split feed), the task keeps
/// absorbing until a [`ShuffleMsg::InputExhausted`] broadcast tells it how
/// many map tasks the job ended up with. Per-task bookkeeping grows on
/// demand since task ids are discovered as segments arrive.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_reduce_task_open(
    job: &JobSpec,
    partition: usize,
    rx: &Receiver<ShuffleMsg>,
    total_map_tasks: Option<usize>,
    resources: &mut ReduceResources<'_>,
    sink: &mut dyn Sink,
    trace: &mut LocalTracer,
    opts: &ReduceRetryOpts,
) -> Result<ReduceResult> {
    let (store, budget) = resources()?;
    let sized = total_map_tasks.unwrap_or(0);
    let mut task = ReduceState {
        job,
        partition,
        opts,
        resources,
        sink,
        trace,
        attempt: 0,
        absorbed: 0,
        store,
        budget,
        grouper: None,
        retained: Vec::new(),
        committed: vec![None; sized],
        pending: vec![Vec::new(); sized],
        total: None,
        maps_done: 0,
        snapshot_plan: Vec::new(),
        snapshots_taken: 0,
        waited: Profile::new(),
    };
    if let Some(total) = total_map_tasks {
        task.set_total(total);
    }

    // The shuffle lane (Fig. 2a): from task start until every map task has
    // a committed attempt. `Phase::Shuffle` is the part of it spent blocked
    // on the channel, stamped wait by wait inside. The span closes on every
    // exit.
    task.trace.begin("shuffle", LANE);
    let shuffled = task.shuffle(rx);
    task.trace.end("shuffle", LANE);
    shuffled?;

    let mut stats = task.finish()?;
    stats.profile.merge(&task.waited);
    Ok(ReduceResult {
        partition,
        stats,
        snapshots_taken: task.snapshots_taken,
        attempts: task.attempt + 1,
    })
}

/// One reduce task's state: what survives across attempts (retained
/// segments, dedup bookkeeping, the snapshot schedule)
/// and the current attempt's operator and resources, which a retry
/// replaces wholesale so it never trusts data structures a failure may
/// have corrupted.
struct ReduceState<'a> {
    job: &'a JobSpec,
    partition: usize,
    opts: &'a ReduceRetryOpts,
    resources: &'a mut ReduceResources<'a>,
    sink: &'a mut dyn Sink,
    trace: &'a mut LocalTracer,

    /// Current attempt number (0 = first run).
    attempt: usize,
    /// Records absorbed by the current attempt; the injector's trigger
    /// counter. Restarts at the replayed total when an attempt is rebuilt.
    absorbed: u64,
    store: Arc<dyn SpillStore>,
    budget: MemoryBudget,
    /// The backend, built when the first segment arrives; `None` until
    /// any data does.
    grouper: Option<Box<dyn GroupBy>>,

    /// Committed segments kept for replay; only populated when retries are
    /// actually possible, so the common single-attempt path pays nothing.
    retained: Vec<Segment>,
    /// Per map task: the committed attempt id, once its MapDone arrived.
    committed: Vec<Option<usize>>,
    /// Segments from not-yet-committed attempts, buffered until a MapDone
    /// picks the winner.
    pending: Vec<Vec<Segment>>,
    total: Option<usize>,
    maps_done: usize,
    /// Map-completion counts at which a snapshot is still due, ascending.
    /// A trigger leaves the plan when it fires, so a rebuilt attempt never
    /// repeats a snapshot its predecessor published.
    snapshot_plan: Vec<usize>,
    snapshots_taken: u64,
    /// `Phase::Shuffle`: time blocked on the shuffle channel. Kept apart
    /// from the operator's profile, which a retry replaces.
    waited: Profile,
}

impl ReduceState<'_> {
    /// The map-task total is known (up front, or from `InputExhausted`
    /// under a streamed feed): snapshot fractions become concrete
    /// map-completion triggers. Triggers already passed are dropped so a
    /// late-arriving total can't cause stale snapshots.
    fn set_total(&mut self, total: usize) {
        self.total = Some(total);
        if let ReduceBackend::SortMerge { snapshots: true } = self.job.backend {
            self.snapshot_plan = plan_from_fracs(HOP_SNAPSHOTS, total);
            self.snapshot_plan.retain(|&t| t > self.maps_done);
        }
    }

    /// Grow per-task bookkeeping on demand: under a streamed feed, map
    /// task ids are discovered as their segments arrive.
    fn ensure_task(&mut self, id: usize) {
        if id >= self.committed.len() {
            self.committed.resize(id + 1, None);
            self.pending.resize_with(id + 1, Vec::new);
        }
    }

    /// Receive until every map task has a committed attempt (with an
    /// unknown total, until `InputExhausted` pins it down).
    fn shuffle(&mut self, rx: &Receiver<ShuffleMsg>) -> Result<()> {
        let dedup = self.opts.dedup_attempts;
        while self.total.is_none_or(|t| self.maps_done < t) {
            let wait = Stamp::start(Phase::Shuffle);
            let msg = rx
                .recv()
                .map_err(|_| Error::InvalidState("shuffle channel closed early".into()))?;
            wait.stop(&mut self.waited, self.trace);
            match msg {
                ShuffleMsg::Abort => {
                    return Err(Error::InvalidState("job aborted by driver".into()));
                }
                ShuffleMsg::InputExhausted { total_map_tasks } => self.set_total(total_map_tasks),
                // Fast path: exactly one attempt per map task exists,
                // consume eagerly (pipelined reduce).
                ShuffleMsg::Segment(seg) if !dedup => self.deliver(seg)?,
                ShuffleMsg::Segment(seg) => {
                    self.ensure_task(seg.map_task);
                    match self.committed[seg.map_task] {
                        Some(a) if a == seg.attempt => self.deliver(seg)?,
                        Some(_) => {} // losing attempt: drop
                        None => self.pending[seg.map_task].push(seg),
                    }
                }
                ShuffleMsg::MapDone { .. } if !dedup => {
                    self.maps_done += 1;
                    self.after_commit()?;
                }
                ShuffleMsg::MapDone { map_task, attempt } => {
                    self.ensure_task(map_task);
                    // A duplicate MapDone from a losing attempt is ignored.
                    if self.committed[map_task].is_none() {
                        self.committed[map_task] = Some(attempt);
                        self.maps_done += 1;
                        for seg in std::mem::take(&mut self.pending[map_task]) {
                            if seg.attempt == attempt {
                                self.deliver(seg)?;
                            }
                        }
                        self.after_commit()?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Push one segment into the current attempt's operator, building it
    /// on first use. `replay` mutes early output: a previous attempt
    /// already published it.
    fn absorb(&mut self, seg: &Segment, replay: bool) -> Result<()> {
        let mut mute;
        let sink: &mut dyn Sink = if replay {
            mute = MuteEarly {
                inner: &mut *self.sink,
            };
            &mut mute
        } else {
            &mut *self.sink
        };
        guarded(|| {
            let (p, a) = (self.partition, self.attempt);
            let fault = self
                .opts
                .injector
                .check(FaultTarget::Reduce, p, a, self.absorbed);
            injected(fault, p, a)?;
            let g = match &mut self.grouper {
                Some(g) => g,
                slot => {
                    // The aggregate the backend runs: a `StateInput`
                    // wrapper when the map side combined (the aggregate is
                    // combinable), else the raw job aggregate.
                    let agg = if self.job.agg.combinable() {
                        Arc::new(StateInput(Arc::clone(&self.job.agg)))
                    } else {
                        Arc::clone(&self.job.agg)
                    };
                    slot.insert(crate::executor::build_grouper(
                        self.job,
                        Arc::clone(&self.store),
                        self.budget.clone(),
                        agg,
                        self.trace.fork(),
                    )?)
                }
            };
            if self.job.backend.sorts_map_output() {
                g.push_sorted(&seg.records, sink)
            } else {
                g.push_batch(&seg.records, sink)
            }
        })?;
        self.absorbed += seg.len() as u64;
        Ok(())
    }

    /// Retry ladder shared by absorb / snapshot / finish failures:
    /// burn an attempt, back off, take fresh resources, replay the
    /// retained segments into a fresh operator. Returns the latest error
    /// once the attempt budget is exhausted.
    fn recover(&mut self, mut err: Error) -> Result<()> {
        loop {
            // Dropping the failed operator releases what it had reserved.
            self.grouper = None;
            let partition = ("partition", self.partition as f64);
            let failed = ("attempt", self.attempt as f64);
            self.trace
                .instant("task_failed", "fault", &[partition, failed]);
            self.attempt += 1;
            if self.attempt >= self.opts.max_attempts {
                return Err(err);
            }
            let next = ("attempt", self.attempt as f64);
            self.trace.instant("retry", "fault", &[partition, next]);
            match self.replay() {
                Ok(()) => return Ok(()),
                Err(e) => err = e,
            }
        }
    }

    /// Start the next attempt on fresh resources and feed it everything
    /// committed so far.
    fn replay(&mut self) -> Result<()> {
        (self.store, self.budget) = (self.resources)()?;
        self.absorbed = 0;
        let retained = std::mem::take(&mut self.retained);
        let replayed = retained.iter().try_for_each(|seg| self.absorb(seg, true));
        self.retained = retained;
        replayed
    }

    /// Absorb one committed segment, recovering on failure.
    fn deliver(&mut self, seg: Segment) -> Result<()> {
        let absorbed = self.absorb(&seg, false);
        if self.opts.max_attempts > 1 {
            self.retained.push(seg);
        }
        absorbed.or_else(|e| self.recover(e))
    }

    /// A map task just committed: take the snapshots that are now due.
    /// Snapshots are mid-stream approximations — none fire while the total
    /// is unknown (empty plan) or once every map has committed.
    fn after_commit(&mut self) -> Result<()> {
        while self.total.is_some_and(|t| self.maps_done < t)
            && self
                .snapshot_plan
                .first()
                .is_some_and(|&t| self.maps_done >= t)
        {
            self.snapshot_plan.remove(0);
            let Some(g) = &mut self.grouper else {
                continue; // nothing received yet: nothing to approximate
            };
            self.trace.begin("snapshot", LANE);
            let taken = guarded(|| g.snapshot(&mut *self.sink));
            self.trace.end("snapshot", LANE);
            match taken {
                Ok(()) => self.snapshots_taken += 1,
                Err(e) => self.recover(e)?,
            }
        }
        Ok(())
    }

    /// All input absorbed: run the final merge / reduce into the sink,
    /// retrying on failure. While retries remain, finals are staged and
    /// only flushed on success so a mid-merge failure cannot leave half
    /// the output already emitted.
    fn finish(&mut self) -> Result<OpStats> {
        loop {
            let staging = self.attempt + 1 < self.opts.max_attempts;
            let mut staged = Staged::default();
            let out: &mut dyn Sink = if staging {
                &mut staged
            } else {
                &mut *self.sink
            };
            self.trace.begin("finish", LANE);
            let finished = guarded(|| {
                let (p, a) = (self.partition, self.attempt);
                injected(
                    self.opts.injector.check_finish(FaultTarget::Reduce, p, a),
                    p,
                    a,
                )?;
                match &mut self.grouper {
                    Some(g) => g.finish(out),
                    None => Ok(OpStats::default()), // received no data at all
                }
            });
            self.trace.end("finish", LANE);
            match finished {
                Ok(stats) => {
                    staged.replay(&mut *self.sink);
                    return Ok(stats);
                }
                Err(e) => self.recover(e)?,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::shuffle::{shuffle_fabric, Segment};
    use onepass_core::bytes_kv::SegmentBuf;
    use onepass_core::fault::FaultPlan;
    use onepass_core::io::SharedMemStore;
    use onepass_groupby::{SumAgg, VecSink};

    fn sorted_seg(map_task: usize, pairs: &[(&str, u64)]) -> Segment {
        let mut records: Vec<(Vec<u8>, Vec<u8>)> = pairs
            .iter()
            .map(|(k, v)| (k.as_bytes().to_vec(), v.to_le_bytes().to_vec()))
            .collect();
        records.sort();
        let records = SegmentBuf::from_pairs(records.iter().map(|(k, v)| (&k[..], &v[..])));
        Segment::new(map_task, 0, 0, records)
    }

    fn job_sortmerge(snapshots: bool) -> JobSpec {
        JobSpec::builder("t")
            .aggregate(Arc::new(SumAgg))
            .reducers(1)
            .backend(ReduceBackend::SortMerge { snapshots })
            .build()
            .unwrap()
    }

    fn dec(v: &[u8]) -> u64 {
        u64::from_le_bytes(v.try_into().unwrap())
    }

    /// A per-attempt resources factory: each attempt gets a fresh memory
    /// store and its own copy of `budget`, like the engine's.
    fn resources(
        budget: MemoryBudget,
    ) -> impl FnMut() -> Result<(Arc<dyn SpillStore>, MemoryBudget)> {
        move || {
            let store: Arc<dyn SpillStore> = Arc::new(SharedMemStore::new());
            Ok((store, MemoryBudget::new(budget.limit())))
        }
    }

    /// Run partition 0 through the task's single entry point, untraced.
    fn reduce(
        job: &JobSpec,
        rx: &Receiver<ShuffleMsg>,
        total_map_tasks: usize,
        resources: &mut ReduceResources<'_>,
        sink: &mut dyn Sink,
        opts: &ReduceRetryOpts,
    ) -> Result<ReduceResult> {
        run_reduce_task_open(
            job,
            0,
            rx,
            Some(total_map_tasks),
            resources,
            sink,
            &mut LocalTracer::disabled(),
            opts,
        )
    }

    #[test]
    fn sortmerge_reduce_in_memory() {
        let job = job_sortmerge(false);
        let (tx, rxs) = shuffle_fabric(1, 64);
        tx.send_segment(sorted_seg(0, &[("a", 1), ("b", 2)]));
        tx.send_segment(sorted_seg(1, &[("a", 10), ("c", 3)]));
        tx.map_done(0, 0);
        tx.map_done(1, 0);
        let mut sink = VecSink::default();
        let res = reduce(
            &job,
            &rxs[0],
            2,
            &mut resources(MemoryBudget::unlimited()),
            &mut sink,
            &ReduceRetryOpts::default(),
        )
        .unwrap();
        assert_eq!(res.stats.groups_out, 3);
        assert_eq!(res.stats.io.bytes_written, 0);
        assert_eq!(res.attempts, 1);
        let a = sink
            .emitted
            .iter()
            .find(|(k, _, _)| k == b"a")
            .map(|(_, v, _)| dec(v))
            .unwrap();
        assert_eq!(a, 11);
    }

    #[test]
    fn sortmerge_reduce_spills_and_merges() {
        let job = job_sortmerge(false);
        let (tx, rxs) = shuffle_fabric(1, 1024);
        let n_maps = 48;
        for m in 0..n_maps {
            let pairs: Vec<(String, u64)> = (0..20)
                .map(|i| (format!("key{:03}", (m * 7 + i) % 40), 1u64))
                .collect();
            let borrowed: Vec<(&str, u64)> = pairs.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            tx.send_segment(sorted_seg(m, &borrowed));
            tx.map_done(m, 0);
        }
        let mut sink = VecSink::default();
        let res = reduce(
            &job,
            &rxs[0],
            n_maps,
            &mut resources(MemoryBudget::new(700)),
            &mut sink,
            &ReduceRetryOpts::default(),
        )
        .unwrap();
        assert_eq!(res.stats.groups_out, 40);
        assert!(res.stats.spills >= 2);
        assert!(res.stats.passes >= 1, "more than F runs must merge");
        assert!(res.stats.io.bytes_written > 0);
        let total: u64 = sink
            .emitted
            .iter()
            .filter(|(_, _, k)| *k == EmitKind::Final)
            .map(|(_, v, _)| dec(v))
            .sum();
        assert_eq!(total, (n_maps * 20) as u64);
    }

    #[test]
    fn snapshots_emit_early_answers_and_cost_io() {
        let job = job_sortmerge(true);
        let (tx, rxs) = shuffle_fabric(1, 1024);
        let n_maps = 4;
        for m in 0..n_maps {
            tx.send_segment(sorted_seg(m, &[("x", 1), ("y", 1)]));
            tx.map_done(m, 0);
        }
        let mut sink = VecSink::default();
        let res = reduce(
            &job,
            &rxs[0],
            n_maps,
            &mut resources(MemoryBudget::unlimited()),
            &mut sink,
            &ReduceRetryOpts::default(),
        )
        .unwrap();
        assert_eq!(res.snapshots_taken, 3, "at 25, 50 and 75% of 4 maps");
        let early: Vec<_> = sink
            .emitted
            .iter()
            .filter(|(_, _, k)| *k == EmitKind::Early)
            .collect();
        assert_eq!(early.len(), 6, "each snapshot covers both keys");
        // Snapshot values are partial (1, 2 and 3 of 4 maps seen).
        let x_early: Vec<u64> = early
            .iter()
            .filter(|(k, _, _)| k == b"x")
            .map(|(_, v, _)| dec(v))
            .collect();
        assert_eq!(x_early, [1, 2, 3]);
        // Finals are exact.
        let x_final = sink
            .emitted
            .iter()
            .find(|(k, _, kind)| k == b"x" && *kind == EmitKind::Final)
            .unwrap();
        assert_eq!(dec(&x_final.1), 4);
    }

    #[test]
    fn hash_backend_reduces_combined_segments() {
        let job = JobSpec::builder("t")
            .aggregate(Arc::new(SumAgg))
            .reducers(1)
            .backend(ReduceBackend::IncHash { early_every: None })
            .build()
            .unwrap();
        let (tx, rxs) = shuffle_fabric(1, 64);
        // Combined segments: values are partial sums (states).
        tx.send_segment(sorted_seg(0, &[("a", 5), ("b", 7)]));
        tx.send_segment(sorted_seg(1, &[("a", 3)]));
        tx.map_done(0, 0);
        tx.map_done(1, 0);
        let mut sink = VecSink::default();
        let res = reduce(
            &job,
            &rxs[0],
            2,
            &mut resources(MemoryBudget::unlimited()),
            &mut sink,
            &ReduceRetryOpts::default(),
        )
        .unwrap();
        assert_eq!(res.stats.groups_out, 2);
        let a = sink
            .emitted
            .iter()
            .find(|(k, _, _)| k == b"a")
            .map(|(_, v, _)| dec(v))
            .unwrap();
        assert_eq!(a, 8, "partial states must merge, not re-count");
    }

    #[test]
    fn reducer_with_no_segments_finishes_cleanly() {
        let job = job_sortmerge(false);
        let (tx, rxs) = shuffle_fabric(1, 8);
        tx.map_done(0, 0);
        let mut sink = VecSink::default();
        let res = reduce(
            &job,
            &rxs[0],
            1,
            &mut resources(MemoryBudget::unlimited()),
            &mut sink,
            &ReduceRetryOpts::default(),
        )
        .unwrap();
        assert_eq!(res.stats.groups_out, 0);
        assert!(sink.emitted.is_empty());
    }

    #[test]
    fn injected_fault_retries_and_output_matches_clean_run() {
        let job = job_sortmerge(false);
        let feed = |tx: &crate::shuffle::ShuffleTx| {
            tx.send_segment(sorted_seg(0, &[("a", 1), ("b", 2)]));
            tx.map_done(0, 0);
            tx.send_segment(sorted_seg(1, &[("a", 10), ("c", 3)]));
            tx.map_done(1, 0);
        };

        // Clean run.
        let (tx, rxs) = shuffle_fabric(1, 64);
        feed(&tx);
        let mut clean = VecSink::default();
        reduce(
            &job,
            &rxs[0],
            2,
            &mut resources(MemoryBudget::unlimited()),
            &mut clean,
            &ReduceRetryOpts::default(),
        )
        .unwrap();

        // Faulted run: attempt 0 dies after absorbing 1 record.
        let (tx, rxs) = shuffle_fabric(1, 64);
        feed(&tx);
        let mut sink = VecSink::default();
        let opts = ReduceRetryOpts {
            max_attempts: 3,
            injector: FaultPlan::new().fail_reduce(0, 0, 1).into_injector(),
            ..Default::default()
        };
        let res = reduce(
            &job,
            &rxs[0],
            2,
            &mut resources(MemoryBudget::unlimited()),
            &mut sink,
            &opts,
        )
        .unwrap();
        assert_eq!(res.attempts, 2, "one retry consumed");
        assert_eq!(sink.emitted, clean.emitted, "recovered output identical");
    }

    /// [`SumAgg`] that notes, as it finishes each key, how many input
    /// segments anything still holds and how many records the task's sink
    /// has received.
    struct Observer {
        inputs: Vec<std::sync::Weak<Vec<u8>>>,
        emitted: Arc<std::sync::atomic::AtomicUsize>,
        seen: std::sync::Mutex<Vec<(usize, usize)>>,
    }

    impl onepass_groupby::Aggregator for Observer {
        fn init(&self, key: &[u8], value: &[u8]) -> onepass_groupby::StateBuf {
            SumAgg.init(key, value)
        }
        fn update(&self, key: &[u8], state: &mut onepass_groupby::StateBuf, value: &[u8]) {
            SumAgg.update(key, state, value)
        }
        fn merge(&self, key: &[u8], state: &mut onepass_groupby::StateBuf, other: &[u8]) {
            SumAgg.merge(key, state, other)
        }
        fn finish(&self, key: &[u8], state: &[u8], out: &mut Vec<u8>) {
            let held = self.inputs.iter().filter(|w| w.strong_count() > 0).count();
            let emitted = self.emitted.load(std::sync::atomic::Ordering::Relaxed);
            self.seen.lock().unwrap().push((held, emitted));
            SumAgg.finish(key, state, out)
        }
    }

    /// A sink that counts what reaches it.
    struct Counted(Arc<std::sync::atomic::AtomicUsize>);

    impl Sink for Counted {
        fn emit(&mut self, _key: &[u8], _value: &[u8], _kind: EmitKind) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// A reduce of one attempt with attempt dedup on — what a TCP job's
    /// reducers run under the default `retries`, since its map attempts
    /// can rerun — keeps no second copy: by the time it finishes, no input
    /// segment is alive, and each key's answer reaches the sink as it is
    /// finished, not after the last one. An attempt that may be retried
    /// does both.
    #[test]
    fn a_one_attempt_deduping_reduce_retains_no_segment_and_stages_no_output() {
        let observe = |opts: &ReduceRetryOpts| {
            let arenas: Vec<Arc<Vec<u8>>> = [[("a", 1), ("b", 2)], [("a", 10), ("c", 3)]]
                .iter()
                .map(|pairs| {
                    let mut framed = Vec::new();
                    sorted_seg(0, pairs).records.append_framed(&mut framed);
                    Arc::new(framed)
                })
                .collect();
            let emitted = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let observer = Arc::new(Observer {
                inputs: arenas.iter().map(Arc::downgrade).collect(),
                emitted: Arc::clone(&emitted),
                seen: std::sync::Mutex::new(Vec::new()),
            });
            let job = JobSpec::builder("t")
                .aggregate(Arc::clone(&observer) as Arc<dyn onepass_groupby::Aggregator>)
                .reducers(1)
                .backend(ReduceBackend::IncHash { early_every: None })
                .build()
                .unwrap();
            let (tx, rxs) = shuffle_fabric(1, 64);
            for (task, arena) in arenas.into_iter().enumerate() {
                tx.send_segment(Segment {
                    map_task: task,
                    records: SegmentBuf::from_framed(arena, 0).unwrap(),
                    ..sorted_seg(task, &[])
                });
                tx.map_done(task, 0);
            }
            let mut sink = Counted(emitted);
            reduce(
                &job,
                &rxs[0],
                2,
                &mut resources(MemoryBudget::unlimited()),
                &mut sink,
                opts,
            )
            .unwrap();
            let seen = observer.seen.lock().unwrap().clone();
            assert_eq!(seen.len(), 3, "one finish per key");
            seen
        };

        let once = observe(&ReduceRetryOpts {
            dedup_attempts: true,
            ..Default::default()
        });
        assert!(
            once.iter().all(|&(held, _)| held == 0),
            "a one-attempt reduce retained its input: {once:?}"
        );
        let streamed: Vec<usize> = once.iter().map(|&(_, emitted)| emitted).collect();
        assert_eq!(
            streamed,
            vec![0, 1, 2],
            "a one-attempt reduce staged its output"
        );

        let retried = observe(&ReduceRetryOpts {
            max_attempts: 3,
            dedup_attempts: true,
            ..Default::default()
        });
        assert!(retried.iter().all(|&seen| seen == (2, 0)), "{retried:?}");
    }

    /// A planned fault the attempt never reaches — after 1,000 records on
    /// a 3-record partition — fires as the attempt finishes: one failed
    /// attempt, and the retry's output is the clean run's.
    #[test]
    fn a_fault_planned_past_the_partitions_end_fires_at_finish() {
        let job = job_sortmerge(false);
        let run = |opts: &ReduceRetryOpts| {
            let (tx, rxs) = shuffle_fabric(1, 64);
            tx.send_segment(sorted_seg(0, &[("a", 1), ("b", 2), ("c", 3)]));
            tx.map_done(0, 0);
            let mut sink = VecSink::default();
            let res = reduce(
                &job,
                &rxs[0],
                1,
                &mut resources(MemoryBudget::unlimited()),
                &mut sink,
                opts,
            )
            .unwrap();
            (res.attempts, sink.emitted)
        };
        let (_, clean) = run(&ReduceRetryOpts::default());
        let injector = FaultPlan::new().fail_reduce(0, 0, 1_000).into_injector();
        let (attempts, emitted) = run(&ReduceRetryOpts {
            max_attempts: 3,
            injector: injector.clone(),
            ..Default::default()
        });
        assert_eq!(attempts, 2, "one failed attempt");
        assert_eq!(injector.triggered(), 1);
        assert_eq!(emitted, clean);
    }

    #[test]
    fn exhausted_attempts_surface_the_error() {
        let job = job_sortmerge(false);
        let (tx, rxs) = shuffle_fabric(1, 64);
        tx.send_segment(sorted_seg(0, &[("a", 1), ("b", 2)]));
        tx.map_done(0, 0);
        let mut sink = VecSink::default();
        // Both attempts are scheduled to fail.
        let opts = ReduceRetryOpts {
            max_attempts: 2,
            injector: FaultPlan::new()
                .fail_reduce(0, 0, 0)
                .fail_reduce(0, 1, 0)
                .into_injector(),
            ..Default::default()
        };
        let err = reduce(
            &job,
            &rxs[0],
            1,
            &mut resources(MemoryBudget::unlimited()),
            &mut sink,
            &opts,
        )
        .unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert!(sink.emitted.is_empty(), "no partial finals leak");
    }

    #[test]
    fn attempt_dedup_commits_first_map_done_winner() {
        let job = job_sortmerge(false);
        let (tx, rxs) = shuffle_fabric(1, 64);
        // Two attempts of map task 0 race; attempt 1's MapDone arrives
        // first so its segments win. Attempt 0's earlier/later segments
        // must all be dropped.
        let mut loser = sorted_seg(0, &[("a", 100)]);
        loser.attempt = 0;
        tx.send_segment(loser);
        let mut winner = sorted_seg(0, &[("a", 1)]);
        winner.attempt = 1;
        tx.send_segment(winner);
        tx.map_done(0, 1);
        // A late segment + MapDone from the losing attempt.
        let mut late = sorted_seg(0, &[("a", 100)]);
        late.attempt = 0;
        tx.send_segment(late);
        tx.map_done(0, 0);
        // Second logical map task, single attempt.
        tx.send_segment(sorted_seg(1, &[("a", 2)]));
        tx.map_done(1, 0);

        let mut sink = VecSink::default();
        let opts = ReduceRetryOpts {
            dedup_attempts: true,
            ..Default::default()
        };
        let res = reduce(
            &job,
            &rxs[0],
            2,
            &mut resources(MemoryBudget::unlimited()),
            &mut sink,
            &opts,
        )
        .unwrap();
        assert_eq!(res.stats.records_in, 2, "losing attempt never absorbed");
        let a = sink
            .emitted
            .iter()
            .find(|(k, _, _)| k == b"a")
            .map(|(_, v, _)| dec(v))
            .unwrap();
        assert_eq!(a, 3, "winner (1) + task 1 (2), duplicates dropped");
    }

    #[test]
    fn abort_unblocks_reducer_with_error() {
        let job = job_sortmerge(false);
        let (tx, rxs) = shuffle_fabric(1, 8);
        tx.send_segment(sorted_seg(0, &[("a", 1)]));
        tx.abort();
        let mut sink = VecSink::default();
        let err = reduce(
            &job,
            &rxs[0],
            4,
            &mut resources(MemoryBudget::unlimited()),
            &mut sink,
            &ReduceRetryOpts::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("aborted"));
    }

    #[test]
    fn failing_reduce_leaves_no_span_open() {
        use onepass_core::trace::{complete_spans, EventKind, Tracer, Track};
        let job = job_sortmerge(false);
        // Three ways out of the shuffle loop: retries exhausted mid-absorb,
        // the channel closing early, and a driver abort.
        let exhausted = ReduceRetryOpts {
            max_attempts: 2,
            injector: FaultPlan::new()
                .fail_reduce(0, 0, 0)
                .fail_reduce(0, 1, 0)
                .into_injector(),
            ..Default::default()
        };
        for (opts, abort) in [
            (exhausted, false),
            (ReduceRetryOpts::default(), false),
            (ReduceRetryOpts::default(), true),
        ] {
            let (tx, rxs) = shuffle_fabric(1, 8);
            tx.send_segment(sorted_seg(0, &[("a", 1)]));
            if abort {
                tx.abort();
            }
            drop(tx); // two map tasks expected, none will ever report done
            let tracer = Tracer::enabled();
            let mut trace = tracer.local(Track::new("reduce", 0));
            run_reduce_task_open(
                &job,
                0,
                &rxs[0],
                Some(2),
                &mut resources(MemoryBudget::unlimited()),
                &mut VecSink::default(),
                &mut trace,
                &opts,
            )
            .unwrap_err();
            drop(trace);
            let events = tracer.drain();
            let count = |kind| events.iter().filter(|e| e.kind == kind).count();
            assert!(count(EventKind::Begin) > 0);
            assert_eq!(count(EventKind::Begin), count(EventKind::End));
            complete_spans(&events).expect("every span closed");
        }
    }

    #[test]
    fn retry_mutes_duplicate_snapshots() {
        // Snapshots due at 1, 2 and 3 of 4 maps; the fault fires after the
        // first two were taken, so the rebuilt attempt must not repeat them.
        let job = job_sortmerge(true);
        let (tx, rxs) = shuffle_fabric(1, 64);
        let n_maps = 4;
        for m in 0..n_maps {
            tx.send_segment(sorted_seg(m, &[("x", 1)]));
            tx.map_done(m, 0);
        }
        let mut sink = VecSink::default();
        let opts = ReduceRetryOpts {
            max_attempts: 3,
            // 4 segments × 1 record: fail once 3 records were absorbed —
            // after the 50% snapshot (2 maps committed).
            injector: FaultPlan::new().fail_reduce(0, 0, 3).into_injector(),
            ..Default::default()
        };
        let res = reduce(
            &job,
            &rxs[0],
            n_maps,
            &mut resources(MemoryBudget::unlimited()),
            &mut sink,
            &opts,
        )
        .unwrap();
        assert_eq!(res.attempts, 2);
        let early = sink
            .emitted
            .iter()
            .filter(|(_, _, k)| *k == EmitKind::Early)
            .count();
        assert_eq!(
            early, 3,
            "each snapshot emitted exactly once across attempts"
        );
        let x_final = sink
            .emitted
            .iter()
            .find(|(k, _, kind)| k == b"x" && *kind == EmitKind::Final)
            .unwrap();
        assert_eq!(dec(&x_final.1), n_maps as u64);
    }
}
