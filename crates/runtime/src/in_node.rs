//! The map-side hash combiner — §V's map option 2, "in-memory hash combine
//! per partition" — its scope, and the rule that turns it off. Every job
//! whose backend hashes (does not [sort map output]) over a combinable
//! aggregate may combine, through one table type, `WorkerCombiner`; each
//! map slot decides from its own keys whether it does ([rule](#the-rule)),
//! and how many task attempts share a table before it ships is the
//! [`CombineScope`]: all the attempts a map worker completes (the
//! "in-node combiner" idea, cf. in-node/in-mapper combining and M3R's
//! partition-local aggregation), or one.
//!
//! # The rule
//!
//! A fold costs about what the reducer's upsert of the same record
//! costs, so it pays only when most records hit a key the table already
//! holds. A [`MapSlot`] decides once: while undecided it fingerprints the
//! first [`SAMPLE_WINDOW`] keys it emits, across its attempts, into a set
//! allocated once per slot ([`KeySample`]), and if more than half of
//! them are distinct it stops combining for the rest of the job. The
//! switch lands at emit time, inside the running attempt
//! (`map_task::run_map_task`), before the attempt's output sits in the
//! buffer whole:
//!
//! * the table ships the earlier attempts it holds, with their held
//!   `MapDone`s (step 3 below);
//! * the attempt's buffered records are routed once;
//! * from then on the attempt, and every later one in the slot, ships
//!   like a holistic hash attempt: routed at emit, frozen into segments
//!   without a copy, pushed, and closed by its own `MapDone`. Each value
//!   passes through [`Aggregator::init`] on the way, so every segment of
//!   a combinable job carries states and the reducer's `StateInput`
//!   contract holds either way.
//!
//! A slot that never fills its window, or whose keys repeat, combines by
//! the protocol below to the end of the job.
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
//! * [`CombineScope::Worker`] — when the table's budget runs over, when
//!   the slot stops combining, and once more when the worker drains. Hot
//!   keys are built and shipped once per
//!   worker rather than once per task. This is every in-proc job: the
//!   engine never runs two attempts of one task at once, so a committed
//!   attempt's data can be neither lost (worker threads do not die alone)
//!   nor counted twice.
//! * [`CombineScope::Task`] — at once, after every fold: a lone task is a
//!   group of one. A TCP worker's map slot needs it: it must have its
//!   segments and `MapDone` on the wire before the `MapOk` that commits
//!   the attempt to the scheduler (Segments → `MapDone` → `MapOk`), and a
//!   table outliving the attempt would die with the worker after the
//!   coordinator was told the data is safe. Its slot decides by the same
//!   rule; its table is empty whenever an attempt runs.
//!
//! # Memory accounting
//!
//! The combine table holds a private [`MemoryBudget`] of
//! [`MAP_BUFFER_BYTES`]. Note the attempt's arena is bounded by its
//! split's output, not by the push granularity — buffering the attempt
//! whole is what buys one fold per record. The key sample is a fixed
//! `u64` set of twice the window, 256 KiB per combining slot.
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

/// Keys a map slot samples before it decides whether to combine: the
/// first this many it emits, over all its attempts. A constant, not a
/// knob (DESIGN.md, "The map-side combiner and its scope").
pub(crate) const SAMPLE_WINDOW: usize = 16 * 1024;

/// The fingerprints of the first keys a slot emits: an open-addressed
/// set of twice the window, allocated once per slot, so an offer never
/// allocates and the load stays at most one half.
pub(crate) struct KeySample {
    /// Key fingerprints; 0 marks an empty slot (a 0 fingerprint is
    /// stored as 1).
    set: Box<[u64]>,
    window: usize,
    seen: usize,
    distinct: usize,
}

impl KeySample {
    fn new(window: usize) -> Self {
        KeySample {
            set: vec![0; (2 * window).next_power_of_two()].into_boxed_slice(),
            window,
            seen: 0,
            distinct: 0,
        }
    }

    /// Count one emitted key; keys past the window are not looked at.
    pub fn offer(&mut self, key: &[u8]) {
        if self.full() {
            return;
        }
        self.seen += 1;
        let fp = fingerprint(key).max(1);
        let mask = self.set.len() - 1;
        let mut i = fp as usize & mask;
        loop {
            match self.set[i] {
                0 => {
                    self.set[i] = fp;
                    self.distinct += 1;
                    return;
                }
                held if held == fp => return,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn full(&self) -> bool {
        self.seen == self.window
    }
}

/// A combining slot's state, which a running attempt consults at emit
/// time: the table of earlier attempts and, until the slot has seen its
/// window of keys, the sample it decides from.
pub(crate) struct Combining {
    table: WorkerCombiner,
    sample: Option<KeySample>,
    /// `onepass_innode_combine_ratio`, observed once per table flush.
    ratio: Histogram,
}

impl Combining {
    /// The sample to offer each emitted key to, while the slot is
    /// undecided.
    pub fn sample(&mut self) -> Option<&mut KeySample> {
        self.sample.as_mut()
    }

    /// The slot's choice once its window is full, `None` before: true
    /// when more than half of the sampled keys were distinct, and the
    /// slot stops combining. Either way the sample goes; a slot that
    /// stops writes one `stop_combining` instant on `trace`, with the
    /// share and the window.
    pub fn decide(&mut self, trace: &mut LocalTracer) -> Option<bool> {
        let sample = self.sample.take_if(|s| s.full())?;
        let stops = 2 * sample.distinct > sample.seen;
        if stops {
            trace.instant(
                "stop_combining",
                "map",
                &[
                    (
                        "distinct_share",
                        sample.distinct as f64 / sample.seen as f64,
                    ),
                    ("window", sample.window as f64),
                ],
            );
        }
        Some(stops)
    }

    /// Ship the table: its segments, then the `MapDone`s it holds. A
    /// failed map-output write aborts the fabric, since the held attempts
    /// already reported success.
    pub fn flush(&mut self, tx: &ShuffleTx, map_store: Option<&Arc<dyn SpillStore>>) {
        if self.table.flush(tx, map_store, &self.ratio).is_err() {
            tx.abort();
        }
    }
}

/// How many task attempts share a combine table before it ships (see the
/// module docs for when each applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CombineScope {
    /// Every attempt a map worker completes, until the budget runs over,
    /// the slot stops combining, or the worker drains.
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
/// worker: the reusable output arena every attempt maps into and, while
/// a combinable job's slot combines, the table its attempts fold into.
pub(crate) struct MapSlot<'a> {
    job: &'a JobSpec,
    tx: &'a ShuffleTx,
    map_store: Option<&'a Arc<dyn SpillStore>>,
    buf: KvBuf,
    /// `None` for a job that never combines, and from the moment the
    /// slot stops combining.
    combining: Option<Combining>,
    scope: CombineScope,
}

impl<'a> MapSlot<'a> {
    /// A slot shipping through `tx`, deciding from its first `window`
    /// keys whether to combine ([`SAMPLE_WINDOW`] outside tests).
    pub fn new(
        job: &'a JobSpec,
        tx: &'a ShuffleTx,
        map_store: Option<&'a Arc<dyn SpillStore>>,
        scope: CombineScope,
        ratio: Histogram,
        window: usize,
    ) -> Self {
        let combining = job.hash_combines().then(|| Combining {
            table: WorkerCombiner::new(job.reducers, MemoryBudget::new(MAP_BUFFER_BYTES)),
            sample: Some(KeySample::new(window)),
            ratio,
        });
        MapSlot {
            job,
            tx,
            map_store,
            buf: KvBuf::new(),
            combining,
            scope,
        }
    }

    /// Run one attempt: map the split, then — while the slot combines —
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
                &mut self.combining,
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
        if let (Some(c), Ok(stats)) = (self.combining.as_mut(), result.as_mut()) {
            let t = Stamp::start(Phase::MapHash);
            c.table
                .fold_task(task, ctx.attempt, &self.buf, self.job.agg.as_ref());
            t.stop(&mut stats.profile, trace);
            if c.table.should_flush() || self.scope == CombineScope::Task {
                c.flush(self.tx, self.map_store);
            }
        }
        result
    }

    /// The slot takes no more attempts: ship what the table still holds.
    /// Segments go first, then the held-back `MapDone`s, so the reducers
    /// waiting on those tasks can now finish.
    pub fn drain(mut self) {
        if let Some(c) = &mut self.combining {
            c.flush(self.tx, self.map_store);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::{shuffle_fabric, ShuffleMsg};
    use onepass_core::trace::{TraceEvent, Tracer, Track};
    use onepass_groupby::{StateInput, SumAgg};
    use std::collections::BTreeMap;
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
        let mut slot = MapSlot::new(
            &job,
            &tx,
            None,
            CombineScope::Task,
            Histogram::detached(),
            SAMPLE_WINDOW,
        );
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
        let mut slot = MapSlot::new(
            &job,
            &tx,
            None,
            CombineScope::Worker,
            Histogram::detached(),
            SAMPLE_WINDOW,
        );
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
        let mut slot = MapSlot::new(
            &job,
            &tx,
            None,
            CombineScope::Task,
            Histogram::detached(),
            SAMPLE_WINDOW,
        );
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

    /// One record, and so one emitted key, per string.
    fn split_of(keys: impl IntoIterator<Item = String>) -> Split {
        Split::new(keys.into_iter().map(String::into_bytes).collect())
    }

    fn numbered(prefix: &str, n: usize) -> impl Iterator<Item = String> + '_ {
        (0..n).map(move |i| format!("{prefix}{i}"))
    }

    fn records(segs: &[Segment]) -> usize {
        segs.iter().map(Segment::len).sum()
    }

    /// Each key's answer as a reducer gives it: every shipped value is a
    /// `SumAgg` state, merged through `StateInput` whatever its source.
    fn answers<'s>(segs: impl IntoIterator<Item = &'s Segment>) -> BTreeMap<Vec<u8>, u64> {
        let agg = StateInput(SumAgg);
        let mut states: BTreeMap<Vec<u8>, StateBuf> = BTreeMap::new();
        for (k, v) in segs.into_iter().flat_map(|s| s.records.iter()) {
            match states.get_mut(k) {
                Some(state) => agg.update(k, state, v),
                None => {
                    states.insert(k.to_vec(), agg.init(k, v));
                }
            }
        }
        states
            .into_iter()
            .map(|(k, s)| (k, u64::from_le_bytes(s[..].try_into().unwrap())))
            .collect()
    }

    /// What a slot deciding from a `window`-key sample shipped for
    /// `splits` (tasks 0.., first attempts), each channel's messages in
    /// arrival order, and the `stop_combining` instants it wrote.
    fn run_slot(
        scope: CombineScope,
        window: usize,
        splits: &[Split],
    ) -> (Vec<Vec<ShuffleMsg>>, Vec<TraceEvent>) {
        let job = hash_combine_job();
        let (tx, rxs) = shuffle_fabric(job.reducers, 1 << 16);
        let tracer = Tracer::enabled();
        let mut trace = tracer.local(Track::new("map", 0));
        let mut slot = MapSlot::new(&job, &tx, None, scope, Histogram::detached(), window);
        for (task, split) in splits.iter().enumerate() {
            slot.run_attempt(task, split, &mut trace, &MapAttemptCtx::first())
                .unwrap();
        }
        slot.drain();
        drop(trace);
        let channels = rxs
            .iter()
            .map(|rx| std::iter::from_fn(|| rx.try_recv().ok()).collect())
            .collect();
        let stops = tracer
            .drain()
            .into_iter()
            .filter(|e| e.name == "stop_combining")
            .collect();
        (channels, stops)
    }

    fn segments(channels: &[Vec<ShuffleMsg>]) -> Vec<Segment> {
        let segment = |m: &ShuffleMsg| match m {
            ShuffleMsg::Segment(s) => Some(s.clone()),
            _ => None,
        };
        channels.iter().flatten().filter_map(segment).collect()
    }

    /// Past a window of distinct keys the slot stops folding: a hot key
    /// that follows ships once per emit, and the answers are a
    /// combining slot's.
    #[test]
    fn distinct_keys_ship_uncombined_past_the_window() {
        let keys = numbered("k", 8).chain(std::iter::repeat_n("hot".to_string(), 10));
        let splits = [split_of(keys)];
        let (shipped, stops) = run_slot(CombineScope::Worker, 8, &splits);
        let shipped = segments(&shipped);
        assert_eq!(records(&shipped), 18, "nothing folded");
        assert_eq!(stops.len(), 1);
        assert_eq!(stops[0].args, [("distinct_share", 1.0), ("window", 8.0)]);

        let (combined, stops) = run_slot(CombineScope::Worker, 64, &splits);
        let combined = segments(&combined);
        assert!(stops.is_empty(), "an unfilled window keeps combining");
        assert_eq!(records(&combined), 9, "`hot` folded into one state");
        assert_eq!(answers(&shipped), answers(&combined));
        assert_eq!(answers(&shipped)[&b"hot"[..]], 10);
    }

    /// Zipf-distributed keys repeat well within the window, so the slot
    /// keeps one table for every attempt and ships each key once.
    #[test]
    fn zipf_keys_keep_combining() {
        // Inverse-CDF draws from Zipf(1.1) over 512 keys.
        let weights: Vec<f64> = (1..=512).map(|r| (r as f64).powf(-1.1)).collect();
        let total: f64 = weights.iter().sum();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let mut u = (rng >> 11) as f64 / (1u64 << 53) as f64 * total;
            let rank = weights.iter().position(|w| {
                u -= w;
                u < 0.0
            });
            format!("z{}", rank.unwrap_or(511))
        };
        let splits: Vec<Split> = (0..4)
            .map(|_| split_of((0..1000).map(|_| draw()).collect::<Vec<_>>()))
            .collect();
        let (channels, stops) = run_slot(CombineScope::Worker, 1024, &splits);
        assert!(stops.is_empty(), "{stops:?}");
        let shipped = segments(&channels);
        let distinct = answers(&shipped).len();
        assert!(distinct < 512);
        assert_eq!(records(&shipped), distinct, "one state per key");
        assert_eq!(answers(&shipped).values().sum::<u64>(), 4000);
    }

    /// A slot whose table holds earlier attempts when it stops ships
    /// them, with their `MapDone`s, before the stopping attempt's first
    /// segment: on every channel, task 0 is done before task 1 starts.
    #[test]
    fn earlier_folded_attempts_flush_before_the_switching_attempt_ships() {
        // Task 0's 6 keys fold under the 16-key window; task 1 fills it.
        let splits = [split_of(numbered("a", 6)), split_of(numbered("b", 30))];
        let (channels, stops) = run_slot(CombineScope::Worker, 16, &splits);
        assert_eq!(stops.len(), 1);
        let task = |m: &ShuffleMsg| match m {
            ShuffleMsg::Segment(s) => (s.map_task, s.attempt),
            ShuffleMsg::MapDone { map_task, attempt } => (*map_task, *attempt),
            other => panic!("unexpected {other:?}"),
        };
        for channel in &channels {
            let order: Vec<_> = channel.iter().map(task).collect();
            let first_of_1 = order.iter().position(|&t| t == (1, 0)).unwrap();
            assert!(order[..first_of_1].contains(&(0, 0)), "{order:?}");
            assert!(!order[first_of_1..].contains(&(0, 0)), "{order:?}");
            assert!(matches!(
                channel.last(),
                Some(ShuffleMsg::MapDone { map_task: 1, .. })
            ));
        }
        let shipped = segments(&channels);
        let folded = shipped.iter().filter(|s| s.map_task == 0);
        assert_eq!(folded.map(Segment::len).sum::<usize>(), 6);
        assert_eq!(answers(&shipped).len(), 36);
    }

    /// An attempt that fails after its slot stopped combining has pushed
    /// segments but announces no `MapDone`; its retry ships everything
    /// again, and a reducer committing only announced attempts counts
    /// each key once.
    #[test]
    fn a_fault_past_the_window_commits_the_retry_exactly_once() {
        let job = hash_combine_job();
        let (tx, rxs) = shuffle_fabric(job.reducers, 1 << 16);
        let mut slot = MapSlot::new(
            &job,
            &tx,
            None,
            CombineScope::Worker,
            Histogram::detached(),
            8,
        );
        let split = split_of(numbered("k", 5000));
        let failing = MapAttemptCtx {
            attempt: 0,
            injector: onepass_core::fault::FaultPlan::new()
                .fail_map(0, 0, 4500)
                .into_injector(),
            cancel: None,
        };
        let trace = &mut LocalTracer::disabled();
        assert!(slot.run_attempt(0, &split, trace, &failing).is_err());
        let retry = MapAttemptCtx {
            attempt: 1,
            ..MapAttemptCtx::first()
        };
        slot.run_attempt(0, &split, trace, &retry).unwrap();
        slot.drain();
        let (segs, dones) = drain(rxs);
        assert!(
            segs.iter().any(|s| s.attempt == 0),
            "the failed attempt pushed past the window"
        );
        assert_eq!(dones, [(0, 1), (0, 1)]);
        let committed = segs
            .iter()
            .filter(|s| dones.contains(&(s.map_task, s.attempt)));
        let got = answers(committed);
        assert_eq!(got.len(), 5000);
        assert!(got.values().all(|&n| n == 1));
    }

    /// A TCP worker's slot is task-scoped and decides by the same rule:
    /// once it stops, later attempts ship uncombined with their own
    /// `MapDone`s; a slot whose keys repeat keeps shipping each attempt
    /// combined.
    #[test]
    fn task_scope_slot_decides_the_same_way() {
        let hot = || split_of(std::iter::repeat_n("hot".to_string(), 12));
        let splits = [split_of(numbered("k", 12)), hot()];
        let (channels, stops) = run_slot(CombineScope::Task, 8, &splits);
        assert_eq!(stops.len(), 1);
        let shipped = segments(&channels);
        assert_eq!(records(&shipped), 24, "`hot` ships once per emit");
        assert!(shipped.iter().all(|s| s.attempt == 0));
        for channel in &channels {
            let dones = channel
                .iter()
                .filter(|m| matches!(m, ShuffleMsg::MapDone { .. }));
            assert_eq!(dones.count(), 2);
        }

        let (channels, stops) = run_slot(CombineScope::Task, 8, &[hot(), hot()]);
        assert!(stops.is_empty());
        assert_eq!(records(&segments(&channels)), 2, "one state per attempt");
    }
}
