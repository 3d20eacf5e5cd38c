//! Worker-scoped in-node combining: map tasks running on the same
//! executor worker fold their output into one shared, governor-leased
//! combine table that is flushed to the shuffle far less often than
//! per-task flushing would — the "in-node combiner" idea (cf.
//! in-node/in-mapper combining and M3R's partition-local aggregation).
//!
//! # Protocol
//!
//! Per-task map-side combine
//! ([`MapSideMode::HashCombine`](crate::job::MapSideMode::HashCombine))
//! ships one
//! combined segment set per *flush* of every task. With many small tasks
//! (or a small push granularity) the same hot keys are rebuilt and
//! re-shipped over and over. In-node combining instead:
//!
//! 1. Each map *attempt* buffers its entire output in its partition-
//!    tagged arena ([`KvBuf`]) and ships nothing — no segments, no
//!    `MapDone`.
//! 2. When the attempt **succeeds**, its worker folds the buffer into
//!    the worker's `WorkerCombiner` (one hash probe per record, via
//!    `WorkerCombiner::fold_task`) and records the `(task, attempt)`
//!    pair as a contributor. A failed or cancelled attempt never reaches
//!    the fold, so the shared table cannot be contaminated by partial
//!    output — exactly mirroring how a failed attempt never announces
//!    `MapDone`, so replay under retries stays output-identical. (The
//!    fold being post-success is also what makes this *cheap*: no undo
//!    log, and no per-task table that would have to be re-probed into
//!    the shared one.)
//! 3. The combiner flushes when its leased budget runs over (or the
//!    governor posts a shed request), and once more when the worker
//!    drains: it ships one combined segment per non-empty partition —
//!    stamped with the *triggering* contributor's `(task, attempt)` —
//!    and only then announces `MapDone` for **every** contributor.
//!    Per-channel FIFO ordering guarantees reducers see the segments
//!    before any of those `MapDone`s, so attempt-deduping reducers commit
//!    the data exactly once; the non-triggering contributors commit as
//!    zero-segment tasks, which the reducer already handles.
//!
//! Speculative execution is the one scheduler feature in-node combining
//! steps aside for: with two racing attempts of the same task, the loser
//! may already be folded into a worker table by the time the winner's
//! `MapDone` commits, which would double-count. The executor therefore
//! falls back to per-task combining whenever speculation is enabled.
//!
//! # Memory accounting
//!
//! The combine table holds a [`MemoryBudget`]. Under adaptive governance
//! the executor hands it a governor *lease*, so map-side combine state is
//! debited from the same pool as reduce-side hash tables and the
//! governor can demand a flush (via a shed request) under global
//! pressure. Under the static policy the table gets a private budget of
//! `job.map_buffer_bytes`. Note the attempt's arena is bounded by its
//! split's output, not by the push granularity — deferred mode trades
//! that buffering for one fold per record.
//!
//! [`KvBuf`]: onepass_core::bytes_kv::KvBuf

use std::sync::Arc;

use onepass_core::bytes_kv::{KvBuf, SegmentBufBuilder};
use onepass_core::error::Result;
use onepass_core::hashlib::{fingerprint, mix64};
use onepass_core::io::SpillStore;
use onepass_core::memory::MemoryBudget;
use onepass_core::obs::Histogram;
use onepass_groupby::Aggregator;

use crate::job::{JobSpec, Partitioner};
use crate::shuffle::{Segment, ShuffleTx};

/// Whether map output is combined across tasks inside each executor
/// worker before it is shuffled (see the module docs for the protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InNodeCombine {
    /// Combine across same-worker map tasks whenever the job is eligible:
    /// map-side mode is [`MapSideMode::HashCombine`], the aggregate is
    /// combinable, and speculative execution is off. The default — this
    /// is the fast path the paper's one-pass configuration wants.
    ///
    /// [`MapSideMode::HashCombine`]: crate::job::MapSideMode::HashCombine
    #[default]
    On,
    /// Always combine per task (the pre-0.7 behaviour).
    Off,
}

impl InNodeCombine {
    /// True when in-node combining is requested.
    pub fn is_on(self) -> bool {
        matches!(self, InNodeCombine::On)
    }
}

/// Per-entry bookkeeping overhead charged to the combine budget on top of
/// key + state payload (slot, fingerprint, ranges, state `Vec` header).
const ENTRY_OVERHEAD: usize = 48;

/// Empty marker in the slot array.
const EMPTY: u32 = u32::MAX;

/// Open-addressed combine table probed by precomputed key fingerprint,
/// with key bytes in a shared arena. The fold loop computes each key's
/// [`fingerprint`] exactly once; the probe compares fingerprints before
/// touching key bytes, and a miss appends the key to the arena instead of
/// boxing it — the per-distinct-key allocations of a
/// `HashMap<Vec<u8>, _>` are what made table-based combining lose to the
/// sort path's arena discipline on combine-heavy workloads. States stay
/// individually owned because [`Aggregator::update`] grows them in place.
struct FpTable {
    /// Entry indices, length always a power of two; `EMPTY` = free.
    slots: Vec<u32>,
    /// Per-entry key fingerprints, parallel to `key_ranges`/`states`.
    fps: Vec<u64>,
    /// Per-entry `(start, end)` into `keys`.
    key_ranges: Vec<(u32, u32)>,
    /// Per-entry aggregate state.
    states: Vec<Vec<u8>>,
    /// Key-byte arena.
    keys: Vec<u8>,
}

impl FpTable {
    fn new() -> Self {
        FpTable {
            slots: Vec::new(),
            fps: Vec::new(),
            key_ranges: Vec::new(),
            states: Vec::new(),
            keys: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.fps.len()
    }

    fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    fn key(&self, e: usize) -> &[u8] {
        let (s, t) = self.key_ranges[e];
        &self.keys[s as usize..t as usize]
    }

    /// Double the slot array and re-place every entry. Only fingerprints
    /// are re-mixed — key bytes are never touched on growth.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        let mask = cap - 1;
        for (e, &fp) in self.fps.iter().enumerate() {
            let mut i = mix64(fp) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = e as u32;
        }
    }

    /// Fold one record: combine into the existing entry for `key`, or
    /// append a new entry initialised with `agg.init`. Returns the arena
    /// bytes a new entry added (0 on a hit).
    fn upsert(&mut self, fp: u64, key: &[u8], value: &[u8], agg: &dyn Aggregator) -> usize {
        // Keep load factor under 7/8 so linear probes stay short.
        if self.slots.len() < 8 || self.len() >= self.slots.len() / 8 * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = mix64(fp) as usize & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                let start = self.keys.len() as u32;
                self.keys.extend_from_slice(key);
                self.slots[i] = self.fps.len() as u32;
                self.fps.push(fp);
                self.key_ranges.push((start, self.keys.len() as u32));
                let state = agg.init(key, value);
                let grown = key.len() + state.len() + ENTRY_OVERHEAD;
                self.states.push(state);
                return grown;
            }
            let e = s as usize;
            if self.fps[e] == fp && self.key(e) == key {
                let (ks, kt) = self.key_ranges[e];
                agg.update(
                    &self.keys[ks as usize..kt as usize],
                    &mut self.states[e],
                    value,
                );
                return 0;
            }
            i = (i + 1) & mask;
        }
    }

    /// Drain every entry (insertion order) into `out`, keeping the
    /// allocated capacity for the next fill.
    fn drain_into(&mut self, out: &mut SegmentBufBuilder) {
        for (e, state) in self.states.iter().enumerate() {
            let (s, t) = self.key_ranges[e];
            out.push(&self.keys[s as usize..t as usize], state);
        }
        self.slots.iter_mut().for_each(|s| *s = EMPTY);
        self.fps.clear();
        self.key_ranges.clear();
        self.states.clear();
        self.keys.clear();
    }
}

/// The shared combine table of one map worker. Not thread-safe by
/// construction: each worker owns exactly one, and all folds happen on
/// the worker's own thread after a task attempt succeeds.
pub(crate) struct WorkerCombiner {
    tables: Vec<FpTable>,
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
    /// fingerprint via [`Partitioner::partition_fp`], so the key bytes
    /// are hashed exactly once. Values are raw map-output values, so
    /// first contact runs [`Aggregator::init`] and collisions
    /// [`Aggregator::update`] (the same combine the per-task hash path
    /// applies).
    pub fn fold_task(
        &mut self,
        task: usize,
        attempt: usize,
        buf: &KvBuf,
        partitioner: &dyn Partitioner,
        agg: &dyn Aggregator,
    ) {
        let reducers = self.tables.len();
        let mut grown = 0usize;
        for (_, key, value) in buf.iter() {
            let fp = fingerprint(key);
            let p = partitioner.partition_fp(fp, key, reducers);
            grown += self.tables[p].upsert(fp, key, value, agg);
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

    /// Whether the table should flush now: over its lease, or the
    /// governor posted a shed request against it.
    pub fn should_flush(&self) -> bool {
        self.budget.over_limit() || self.budget.take_shed_request() > 0
    }

    /// Ship the table: one combined segment per non-empty partition,
    /// stamped with the triggering (= last) contributor, optionally
    /// persisted to the map-output store, followed by a `MapDone` for
    /// every contributor. No-op when nothing was folded.
    pub fn flush(
        &mut self,
        tx: &ShuffleTx,
        map_store: Option<&Arc<dyn SpillStore>>,
        ratio: Option<&Histogram>,
    ) -> Result<()> {
        if self.contributors.is_empty() {
            return Ok(());
        }
        let (trigger_task, trigger_attempt) = *self
            .contributors
            .last()
            .expect("contributor list is non-empty");
        let mut segments = Vec::with_capacity(self.tables.len());
        let mut sent_records = 0u64;
        for (p, table) in self.tables.iter_mut().enumerate() {
            if table.is_empty() {
                continue;
            }
            let mut records = SegmentBufBuilder::new();
            table.drain_into(&mut records);
            let seg = Segment {
                map_task: trigger_task,
                attempt: trigger_attempt,
                partition: p,
                sorted: false,
                combined: true,
                records: records.finish(),
            };
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
        if let Some(h) = ratio {
            if self.absorbed > 0 {
                h.observe(sent_records as f64 / self.absorbed as f64);
            }
        }
        self.absorbed = 0;
        self.budget.release(self.reserved);
        self.reserved = 0;
        Ok(())
    }
}

/// Whether a job + config combination runs the in-node combiner.
pub(crate) fn innode_eligible(config: &crate::driver::EngineConfig, job: &JobSpec) -> bool {
    config.in_node_combine.is_on()
        && matches!(job.map_side, crate::job::MapSideMode::HashCombine)
        && job.combine.is_on()
        && job.agg.combinable()
        && !config.speculation.enabled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::{shuffle_fabric, ShuffleMsg};
    use onepass_groupby::SumAgg;

    /// Deferred-mode buffer: pairs land unrouted in partition 0; the
    /// fold does the routing.
    fn buf(pairs: &[(&str, u64)]) -> KvBuf {
        let mut b = KvBuf::new();
        for &(k, v) in pairs {
            b.push(0, k.as_bytes(), &v.to_le_bytes());
        }
        b
    }

    /// Routes by the key's first byte — deterministic without hashing,
    /// and exercises the default `partition_fp` fallback.
    struct ByFirstByte;
    impl Partitioner for ByFirstByte {
        fn partition(&self, key: &[u8], reducers: usize) -> usize {
            key.first().map_or(0, |&b| b as usize) % reducers
        }
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
        c.fold_task(0, 0, &buf(&[("a", 1), ("b", 2)]), &ByFirstByte, &SumAgg);
        c.fold_task(1, 0, &buf(&[("a", 10), ("c", 3)]), &ByFirstByte, &SumAgg);
        let (tx, rxs) = shuffle_fabric(2, 64);
        c.flush(&tx, None, None).unwrap();
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
            assert!(seg.combined && !seg.sorted);
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
        c.fold_task(3, 1, &buf(&[("k", 1)]), &ByFirstByte, &SumAgg);
        let (tx, rxs) = shuffle_fabric(1, 64);
        c.flush(&tx, None, None).unwrap();
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
        c.flush(&tx, None, None).unwrap();
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
            &ByFirstByte,
            &SumAgg,
        );
        assert!(c.should_flush(), "tiny budget must run over");
        let (tx, _rxs) = shuffle_fabric(1, 8);
        c.flush(&tx, None, None).unwrap();
        assert_eq!(budget.used(), 0, "flush returns the lease");
        assert!(!c.should_flush());
    }

    #[test]
    fn empty_task_still_gets_its_map_done() {
        let mut c = WorkerCombiner::new(1, MemoryBudget::unlimited());
        c.fold_task(7, 0, &KvBuf::new(), &ByFirstByte, &SumAgg);
        let (tx, rxs) = shuffle_fabric(1, 8);
        c.flush(&tx, None, None).unwrap();
        let (segs, dones) = drain(rxs);
        assert!(segs.is_empty());
        assert_eq!(dones, vec![(7, 0)]);
    }
}
