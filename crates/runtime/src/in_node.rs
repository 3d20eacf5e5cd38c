//! The map-side hash combiner — §V's map option 2, "in-memory hash combine
//! per partition" — and its scope. Every job whose backend hashes (does
//! not [sort map output]) over a combinable aggregate combines through
//! one table type, `WorkerCombiner`; the only thing that varies is how
//! many task attempts share a table before it ships ([`CombineScope`]):
//! all the attempts a map worker completes (the "in-node combiner" idea,
//! cf. in-node/in-mapper combining and M3R's partition-local
//! aggregation), or one.
//!
//! # Protocol
//!
//! 1. Each map *attempt* buffers its entire output in the slot's
//!    reusable arena ([`KvBuf`]) and ships nothing — no segments, no
//!    `MapDone`.
//! 2. When the attempt **succeeds**, its [`MapSlot`] folds the buffer into
//!    the slot's `WorkerCombiner` (one fingerprint, one partition decision
//!    and one probe per record, via `WorkerCombiner::fold_task`) and
//!    records the `(task, attempt)` pair as a contributor. A failed or
//!    cancelled attempt never reaches the fold, so the table cannot be
//!    contaminated by partial output — exactly mirroring how a failed
//!    attempt never announces `MapDone`, so replay under retries stays
//!    output-identical. (The fold being post-success is also what makes
//!    this *cheap*: no undo log, and no per-task table that would have to
//!    be re-probed into the shared one.)
//! 3. The combiner flushes: it ships one combined segment per non-empty
//!    partition — stamped with the *triggering* contributor's
//!    `(task, attempt)` — and only then announces `MapDone` for **every**
//!    contributor. Per-channel FIFO ordering guarantees reducers see the
//!    segments before any of those `MapDone`s, so attempt-deduping reducers
//!    commit the data exactly once; the non-triggering contributors commit
//!    as zero-segment tasks, which the reducer already handles.
//!
//! # Scope
//!
//! *When* step 3 happens is the scope, computed by the caller and never
//! configured:
//!
//! * [`CombineScope::Worker`] — when the table's budget runs over, and
//!   once more when the worker drains. Hot keys are built and shipped once per
//!   worker rather than once per task. This is every in-proc job: the
//!   engine never runs two attempts of one task at once, so a committed
//!   attempt's data can be neither lost (worker threads do not die alone)
//!   nor counted twice.
//! * [`CombineScope::Task`] — at once, after every fold: a lone task is a
//!   group of one. A TCP worker's map slot needs it: it must have its
//!   segments and `MapDone` on the wire before the `MapOk` that commits
//!   the attempt to the scheduler (Segments → `MapDone` → `MapOk`), and a
//!   table outliving the attempt would die with the worker after the
//!   coordinator was told the data is safe.
//!
//! # Memory accounting
//!
//! The combine table holds a private [`MemoryBudget`] of
//! [`MAP_BUFFER_BYTES`]. Note the attempt's arena is bounded by its
//! split's output, not by the push granularity — buffering the attempt
//! whole is what buys one fold per record.
//!
//! [`KvBuf`]: onepass_core::bytes_kv::KvBuf
//! [sort map output]: crate::job::ReduceBackend::sorts_map_output

use std::sync::Arc;

use onepass_core::bytes_kv::{KvBuf, SegmentBufBuilder};
use onepass_core::error::{Error, Result};
use onepass_core::fp_table::{FpTable, ENTRY_OVERHEAD};
use onepass_core::hashlib::fingerprint;
use onepass_core::io::SpillStore;
use onepass_core::memory::MemoryBudget;
use onepass_core::metrics::{Phase, Stamp};
use onepass_core::obs::Histogram;
use onepass_core::trace::LocalTracer;
use onepass_groupby::{Aggregator, StateBuf};

use crate::job::{HashPartitioner, JobSpec, Partitioner, MAP_BUFFER_BYTES};
use crate::map_task::{run_map_task, MapAttemptCtx, MapTaskStats, Split};
use crate::reduce_task::panic_message;
use crate::shuffle::{Segment, ShuffleTx};

/// How many task attempts share a combine table before it ships (see the
/// module docs for when each applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CombineScope {
    /// Every attempt a map worker completes, until the budget runs over
    /// or the worker drains.
    Worker,
    /// One attempt: the table ships as soon as it is folded.
    Task,
}

/// The shared combine table of one map worker. Not thread-safe by
/// construction: each worker owns exactly one, and all folds happen on
/// the worker's own thread after a task attempt succeeds. A partial state
/// of up to [`INLINE_CAPACITY`](onepass_groupby::state::INLINE_CAPACITY)
/// bytes lives in its table slot, so folding a new key costs no heap
/// allocation.
pub struct WorkerCombiner {
    /// One table per reduce partition, key → partial aggregate state.
    tables: Vec<FpTable<StateBuf>>,
    partitioner: HashPartitioner,
    /// Successful attempts folded since the last flush, in fold order.
    contributors: Vec<(usize, usize)>,
    budget: MemoryBudget,
    reserved: usize,
    /// Map-output records folded since the last flush.
    absorbed: u64,
}

impl WorkerCombiner {
    /// Empty combiner over `partitions` tables, charging `budget`.
    pub fn new(partitions: usize, budget: MemoryBudget) -> Self {
        WorkerCombiner {
            tables: (0..partitions).map(|_| FpTable::new()).collect(),
            partitioner: HashPartitioner::default(),
            contributors: Vec::new(),
            budget,
            reserved: 0,
            absorbed: 0,
        }
    }

    /// Fold one successful attempt's buffered output into the shared
    /// table — one fingerprint, one partition decision, and one probe per
    /// record — and record it as a contributor. `buf` carries the
    /// attempt's full map output *unrouted* (the deferred emitter skips
    /// the partitioner): routing happens here from the fold's own
    /// fingerprint via [`HashPartitioner`]'s `partition_fp`, so the key bytes
    /// are hashed exactly once. Values are raw map-output values, so
    /// first contact runs [`Aggregator::init`] and collisions
    /// [`Aggregator::update`] (the same combine the per-task hash path
    /// applies).
    pub fn fold_task(&mut self, task: usize, attempt: usize, buf: &KvBuf, agg: &dyn Aggregator) {
        let reducers = self.tables.len();
        let mut grown = 0usize;
        for (_, key, value) in buf.iter() {
            let fp = fingerprint(key);
            let table = &mut self.tables[self.partitioner.partition_fp(fp, key, reducers)];
            match table.get_mut(fp, key) {
                Some(state) => agg.update(key, state, value),
                None => {
                    let state = agg.init(key, value);
                    grown += key.len() + state.len() + ENTRY_OVERHEAD;
                    table.insert(fp, key, state);
                }
            }
        }
        if grown > 0 && !self.budget.try_grant(grown) {
            // Soft limit: the table must be able to absorb a completed
            // attempt, so take the bytes and let `should_flush` trigger
            // the flush at this task boundary.
            self.budget.force_grant(grown);
        }
        self.reserved += grown;
        self.absorbed += buf.len() as u64;
        self.contributors.push((task, attempt));
    }

    /// Whether the table should flush now: over its budget.
    pub fn should_flush(&self) -> bool {
        self.budget.over_limit()
    }

    /// Ship the table: one combined segment per non-empty partition,
    /// stamped with the triggering (= last) contributor, optionally
    /// persisted to the map-output store, followed by a `MapDone` for
    /// every contributor. No-op when nothing was folded.
    pub fn flush(
        &mut self,
        tx: &ShuffleTx,
        map_store: Option<&Arc<dyn SpillStore>>,
        ratio: &Histogram,
    ) -> Result<()> {
        let Some(&(trigger_task, trigger_attempt)) = self.contributors.last() else {
            return Ok(());
        };
        let mut segments = Vec::with_capacity(self.tables.len());
        let mut sent_records = 0u64;
        for (p, table) in self.tables.iter_mut().enumerate() {
            if table.is_empty() {
                continue;
            }
            let mut records = SegmentBufBuilder::new();
            table.drain(|key, state| records.push(key, &state));
            let seg = Segment::new(trigger_task, trigger_attempt, p, records.finish());
            sent_records += seg.len() as u64;
            segments.push(seg);
        }
        // Map-output persistence applies at the worker-flush boundary in
        // this mode: what goes down is what actually shuffles.
        if let Some(store) = map_store {
            let mut w = store.begin_run()?;
            for seg in &segments {
                w.write_segment(&seg.records)?;
            }
            let meta = w.finish()?;
            store.delete_run(meta.id)?;
        }
        for seg in segments {
            tx.send_segment(seg);
        }
        for (task, attempt) in self.contributors.drain(..) {
            tx.map_done(task, attempt);
        }
        if self.absorbed > 0 {
            ratio.observe(sent_records as f64 / self.absorbed as f64);
        }
        self.absorbed = 0;
        self.budget.release(self.reserved);
        self.reserved = 0;
        Ok(())
    }
}

/// One map slot — an executor map-worker thread, or a map slot of a TCP
/// worker: the reusable output arena every attempt maps into and, for a
/// combining job, the combine table its attempts fold into.
pub(crate) struct MapSlot<'a> {
    job: &'a JobSpec,
    tx: &'a ShuffleTx,
    map_store: Option<&'a Arc<dyn SpillStore>>,
    buf: KvBuf,
    combiner: Option<WorkerCombiner>,
    scope: CombineScope,
    /// `onepass_innode_combine_ratio`, observed once per table flush.
    ratio: Histogram,
}

impl<'a> MapSlot<'a> {
    /// A slot shipping through `tx`.
    pub fn new(
        job: &'a JobSpec,
        tx: &'a ShuffleTx,
        map_store: Option<&'a Arc<dyn SpillStore>>,
        scope: CombineScope,
        ratio: Histogram,
    ) -> Self {
        let combiner = job
            .hash_combines()
            .then(|| WorkerCombiner::new(job.reducers, MemoryBudget::new(MAP_BUFFER_BYTES)));
        MapSlot {
            job,
            tx,
            map_store,
            buf: KvBuf::new(),
            combiner,
            scope,
            ratio,
        }
    }

    /// Run one attempt: map the split, then — for a combining job —
    /// fold a successful attempt's output into the table and flush the
    /// table if its scope or its budget says so.
    pub fn run_attempt(
        &mut self,
        task: usize,
        split: &Split,
        trace: &mut LocalTracer,
        ctx: &MapAttemptCtx,
    ) -> Result<MapTaskStats> {
        self.buf.clear();
        // A panicking map function is a task failure, not an engine
        // failure: convert it to Err so the retry budget applies.
        let mut result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_map_task(
                self.job,
                task,
                split,
                self.tx,
                self.map_store,
                trace,
                ctx,
                &mut self.buf,
            )
        }))
        .unwrap_or_else(|p| {
            Err(Error::InvalidState(format!(
                "map task panicked: {}",
                panic_message(p.as_ref())
            )))
        });
        // Only a *successful* attempt reaches the table — a failed or
        // cancelled attempt's buffer is simply discarded, exactly as a
        // failed attempt never announces MapDone.
        if let (Some(c), Ok(stats)) = (self.combiner.as_mut(), result.as_mut()) {
            let t = Stamp::start(Phase::MapHash);
            c.fold_task(task, ctx.attempt, &self.buf, self.job.agg.as_ref());
            t.stop(&mut stats.profile, trace);
            if c.should_flush() || self.scope == CombineScope::Task {
                self.flush();
            }
        }
        result
    }

    /// The slot takes no more attempts: ship what the table still holds.
    /// Segments go first, then the held-back `MapDone`s, so the reducers
    /// waiting on those tasks can now finish.
    pub fn drain(mut self) {
        self.flush();
    }

    fn flush(&mut self) {
        if let Some(c) = &mut self.combiner {
            if c.flush(self.tx, self.map_store, &self.ratio).is_err() {
                self.tx.abort();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::{shuffle_fabric, ShuffleMsg};
    use onepass_groupby::SumAgg;
    use std::time::Duration;

    /// Deferred-mode buffer: pairs land unrouted in partition 0; the
    /// fold does the routing.
    fn buf(pairs: &[(&str, u64)]) -> KvBuf {
        let mut b = KvBuf::new();
        for &(k, v) in pairs {
            b.push(0, k.as_bytes(), &v.to_le_bytes());
        }
        b
    }

    fn drain(
        rxs: Vec<crossbeam::channel::Receiver<ShuffleMsg>>,
    ) -> (Vec<Segment>, Vec<(usize, usize)>) {
        let mut segs = Vec::new();
        let mut dones = Vec::new();
        for rx in rxs {
            while let Ok(msg) = rx.try_recv() {
                match msg {
                    ShuffleMsg::Segment(s) => segs.push(s),
                    ShuffleMsg::MapDone { map_task, attempt } => dones.push((map_task, attempt)),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        (segs, dones)
    }

    #[test]
    fn fold_combines_across_tasks() {
        let mut c = WorkerCombiner::new(2, MemoryBudget::unlimited());
        c.fold_task(0, 0, &buf(&[("a", 1), ("b", 2)]), &SumAgg);
        c.fold_task(1, 0, &buf(&[("a", 10), ("c", 3)]), &SumAgg);
        let (tx, rxs) = shuffle_fabric(2, 64);
        c.flush(&tx, None, &Histogram::detached()).unwrap();
        let (segs, dones) = drain(rxs);
        // "a" collapsed across both tasks: 3 distinct keys total.
        let total: usize = segs.iter().map(|s| s.len()).sum();
        assert_eq!(total, 3);
        let a = segs
            .iter()
            .flat_map(|s| s.records.iter())
            .find(|(k, _)| *k == b"a")
            .map(|(_, v)| u64::from_le_bytes(v.try_into().unwrap()))
            .unwrap();
        assert_eq!(a, 11, "values combined, not re-counted");
        for seg in &segs {
            assert_eq!((seg.map_task, seg.attempt), (1, 0), "trigger stamps");
        }
        // Every contributor announced, each to every reducer.
        let mut per_task: Vec<_> = dones.clone();
        per_task.sort();
        per_task.dedup();
        assert_eq!(per_task, vec![(0, 0), (1, 0)]);
        assert_eq!(dones.len(), 4, "each MapDone broadcast to both reducers");
    }

    #[test]
    fn segments_precede_map_dones_per_channel() {
        let mut c = WorkerCombiner::new(1, MemoryBudget::unlimited());
        c.fold_task(3, 1, &buf(&[("k", 1)]), &SumAgg);
        let (tx, rxs) = shuffle_fabric(1, 64);
        c.flush(&tx, None, &Histogram::detached()).unwrap();
        let mut msgs = Vec::new();
        while let Ok(m) = rxs[0].try_recv() {
            msgs.push(m);
        }
        assert!(matches!(msgs[0], ShuffleMsg::Segment(_)));
        assert!(matches!(
            msgs[1],
            ShuffleMsg::MapDone {
                map_task: 3,
                attempt: 1
            }
        ));
    }

    #[test]
    fn flush_with_no_contributors_is_silent() {
        let mut c = WorkerCombiner::new(2, MemoryBudget::unlimited());
        let (tx, rxs) = shuffle_fabric(2, 8);
        c.flush(&tx, None, &Histogram::detached()).unwrap();
        let (segs, dones) = drain(rxs);
        assert!(segs.is_empty() && dones.is_empty());
    }

    #[test]
    fn over_budget_demands_flush_and_flush_releases() {
        let budget = MemoryBudget::new(64);
        let mut c = WorkerCombiner::new(1, budget.clone());
        c.fold_task(
            0,
            0,
            &buf(&[("some-longish-key", 1), ("another-key", 2)]),
            &SumAgg,
        );
        assert!(c.should_flush(), "tiny budget must run over");
        let (tx, _rxs) = shuffle_fabric(1, 8);
        c.flush(&tx, None, &Histogram::detached()).unwrap();
        assert_eq!(budget.used(), 0, "flush returns the bytes");
        assert!(!c.should_flush());
    }

    fn word_map(record: &[u8], out: &mut dyn crate::job::MapEmitter) {
        for w in record.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            out.emit(w, &1u64.to_le_bytes());
        }
    }

    fn hash_combine_job() -> JobSpec {
        JobSpec::builder("t")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(2)
            .preset_onepass()
            .build()
            .unwrap()
    }

    fn word_splits() -> [Split; 2] {
        [
            Split::new(vec![b"a b a".to_vec(), b"b c".to_vec(), b"a".to_vec()]),
            Split::new(vec![b"a c".to_vec()]),
        ]
    }

    /// A task-scoped slot is the per-task hash combine: each attempt ships
    /// its own combined, unsorted segments and its own `MapDone` before
    /// `run_attempt` returns — and the attempt itself reports nothing
    /// shipped, the table did the shipping.
    #[test]
    fn task_scope_ships_each_attempt_combined_and_unsorted() {
        let job = hash_combine_job();
        let (tx, rxs) = shuffle_fabric(2, 1024);
        let mut slot = MapSlot::new(&job, &tx, None, CombineScope::Task, Histogram::detached());
        for (task, split) in word_splits().iter().enumerate() {
            let stats = slot
                .run_attempt(
                    task,
                    split,
                    &mut LocalTracer::disabled(),
                    &MapAttemptCtx::first(),
                )
                .unwrap();
            assert_eq!((stats.shuffled_records, stats.flushes), (0, 0));
            assert_eq!(stats.profile.time(Phase::MapSort), Duration::ZERO);
            if task == 0 {
                assert_eq!((stats.input_records, stats.output_records), (3, 6));
                // Nothing waits for a second attempt or for the drain.
                assert_eq!(tx.shuffled_records(), 3, "a, b, c collapsed");
            }
        }
        slot.drain();
        let (segs, dones) = drain(rxs);
        assert_eq!(segs.iter().map(|s| s.len()).sum::<usize>(), 3 + 2);
        assert!(segs.iter().any(|s| s.map_task == 1), "own stamps");
        let count = |task: usize, key: &[u8]| {
            segs.iter()
                .filter(|s| s.map_task == task)
                .flat_map(|s| s.records.iter())
                .find(|(k, _)| *k == key)
                .map(|(_, v)| u64::from_le_bytes(v.try_into().unwrap()))
        };
        assert_eq!(count(0, b"a"), Some(3));
        assert_eq!(count(1, b"a"), Some(1), "tasks are not combined together");
        assert_eq!(dones.len(), 2 * 2, "each MapDone reaches every reducer");
    }

    /// The same attempts at worker scope: one table, nothing on the wire
    /// until the slot drains, then `a` once for both tasks.
    #[test]
    fn worker_scope_holds_attempts_until_the_slot_drains() {
        let job = hash_combine_job();
        let (tx, rxs) = shuffle_fabric(2, 1024);
        let mut slot = MapSlot::new(&job, &tx, None, CombineScope::Worker, Histogram::detached());
        for (task, split) in word_splits().iter().enumerate() {
            slot.run_attempt(
                task,
                split,
                &mut LocalTracer::disabled(),
                &MapAttemptCtx::first(),
            )
            .unwrap();
        }
        assert_eq!(tx.shuffled_records(), 0);
        slot.drain();
        let (segs, dones) = drain(rxs);
        assert_eq!(segs.iter().map(|s| s.len()).sum::<usize>(), 3);
        assert_eq!(dones.len(), 2 * 2);
    }

    /// A failed attempt folds nothing and announces nothing, at either
    /// scope; the slot's arena is clean for the retry.
    #[test]
    fn failed_attempt_never_reaches_the_table() {
        let job = hash_combine_job();
        let (tx, rxs) = shuffle_fabric(2, 1024);
        let mut slot = MapSlot::new(&job, &tx, None, CombineScope::Task, Histogram::detached());
        let [split, _] = word_splits();
        let failing = MapAttemptCtx {
            attempt: 0,
            injector: onepass_core::fault::FaultPlan::new()
                .fail_map(0, 0, 2)
                .into_injector(),
            cancel: None,
        };
        let trace = &mut LocalTracer::disabled();
        assert!(slot.run_attempt(0, &split, trace, &failing).is_err());
        assert_eq!(tx.shuffled_records(), 0);
        let retry = MapAttemptCtx {
            attempt: 1,
            ..MapAttemptCtx::first()
        };
        slot.run_attempt(0, &split, trace, &retry).unwrap();
        let (segs, dones) = drain(rxs);
        assert_eq!(segs.iter().map(|s| s.len()).sum::<usize>(), 3);
        assert!(segs.iter().all(|s| s.attempt == 1));
        assert_eq!(dones, vec![(0, 1), (0, 1)]);
    }

    #[test]
    fn empty_task_still_gets_its_map_done() {
        let mut c = WorkerCombiner::new(1, MemoryBudget::unlimited());
        c.fold_task(7, 0, &KvBuf::new(), &SumAgg);
        let (tx, rxs) = shuffle_fabric(1, 8);
        c.flush(&tx, None, &Histogram::detached()).unwrap();
        let (segs, dones) = drain(rxs);
        assert!(segs.is_empty());
        assert_eq!(dones, vec![(7, 0)]);
    }
}
