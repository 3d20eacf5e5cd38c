//! Map task execution: read a split, apply the map function, and turn the
//! output buffer into shuffle segments the way the job's reduce backend
//! implies (Fig. 1's sorting map task vs Fig. 5's hashing map module).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use onepass_core::bytes_kv::{KvBuf, SegmentBufBuilder};
use onepass_core::error::{Error, Result};
use onepass_core::fault::{FaultAction, FaultInjector, FaultTarget};
use onepass_core::io::{RunWriter, SpillStore};
use onepass_core::metrics::{Phase, Profile, Stamp};
use onepass_core::trace::LocalTracer;
use onepass_groupby::Aggregator;

use crate::in_node::{Combining, KeySample};
use crate::job::{
    HashPartitioner, JobSpec, MapEmitter, Partitioner, MAP_BUFFER_BYTES, PUSH_RECORDS,
};
use crate::shuffle::{Segment, ShuffleTx};

/// Raw input records packed end to end in one buffer, each behind a
/// `u32` little-endian length: the one form a split holds its raw records
/// in. A split is packed once, where it is made ([`Split::new`]), and the
/// layout is the wire's, so a `NewSplit` frame's records are one copy of
/// the arena and a received frame body is the arena as it stands. A record
/// is a slice of the arena, never a `Vec` of its own, and the arena is
/// `Arc`-shared, so `clone()` copies no byte.
#[derive(Debug, Clone, Default)]
pub struct PackedRecords {
    arena: Arc<Vec<u8>>,
    /// Offset of the first length prefix in `arena`.
    start: usize,
    count: usize,
}

impl PackedRecords {
    /// Take `arena[start..]` as exactly `count` length-prefixed records.
    /// The bytes are foreign: a `start`, count or length that does not
    /// fit the buffer is `Error::Corrupt`, found by walking the prefixes —
    /// nothing is sized from `count`.
    pub fn from_len_prefixed(arena: Vec<u8>, start: usize, count: u64) -> Result<Self> {
        let corrupt = |what: &str| Error::Corrupt(format!("packed records: {what}"));
        let mut rest = arena
            .get(start..)
            .ok_or_else(|| corrupt("start past the end"))?;
        for _ in 0..count {
            let (len, tail) = rest
                .split_first_chunk::<4>()
                .ok_or_else(|| corrupt("record count exceeds the block"))?;
            rest = tail
                .get(u32::from_le_bytes(*len) as usize..)
                .ok_or_else(|| corrupt("record length exceeds the block"))?;
        }
        if !rest.is_empty() {
            return Err(corrupt("bytes after the last record"));
        }
        Ok(PackedRecords {
            arena: Arc::new(arena),
            start,
            count: count as usize,
        })
    }

    /// Pack `records` into one arena allocated at its exact size.
    pub fn pack<R: AsRef<[u8]>>(records: &[R]) -> Self {
        let bytes: usize = records.iter().map(|r| r.as_ref().len()).sum();
        let mut arena = Vec::with_capacity(bytes + 4 * records.len());
        for r in records.iter().map(AsRef::as_ref) {
            let len = u32::try_from(r.len()).expect("a record is under 4 GiB");
            arena.extend_from_slice(&len.to_le_bytes());
            arena.extend_from_slice(r);
        }
        PackedRecords {
            arena: Arc::new(arena),
            start: 0,
            count: records.len(),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total record bytes (length prefixes excluded).
    pub fn bytes(&self) -> u64 {
        (self.len_prefixed().len() - 4 * self.count) as u64
    }

    /// The records as the wire carries them: every `[u32 len][bytes]`, in
    /// order, with nothing before or after.
    pub(crate) fn len_prefixed(&self) -> &[u8] {
        &self.arena[self.start..]
    }

    /// The shared block the records live in; its `Arc` counts the splits
    /// (and frame bodies) that hold it.
    pub fn arena(&self) -> &Arc<Vec<u8>> {
        &self.arena
    }

    /// The records, in order, as slices of the arena.
    pub fn iter(&self) -> Records<'_> {
        Records(self.len_prefixed())
    }
}

/// The records of a [`PackedRecords`], in order, as slices of its arena.
#[derive(Debug, Clone)]
pub struct Records<'a>(&'a [u8]);

impl<'a> Records<'a> {
    /// Each record as an owned `Vec`. A bridge for callers written against
    /// the per-record `Vec` input a split held before it was one arena
    /// (the benchmark's probe input reads `split.records.iter().cloned()`);
    /// it goes once that caller reads slices. (`Iterator::cloned` does not
    /// apply: `[u8]` is unsized.)
    pub fn cloned(self) -> impl Iterator<Item = Vec<u8>> + 'a {
        self.map(<[u8]>::to_vec)
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        // `pack` wrote, or `from_len_prefixed` walked, these prefixes: the
        // slice ends where the last record does.
        let (len, tail) = self.0.split_first_chunk::<4>()?;
        let (record, rest) = tail.split_at(u32::from_le_bytes(*len) as usize);
        self.0 = rest;
        Some(record)
    }
}

/// One unit of input: a block of records, the granularity of a map task
/// (Hadoop's 64 MB HDFS block, §II-A). It holds raw records in one arena,
/// `records`, and a cache-hit split holds framed pairs too; the two are
/// mapped in that order under one contiguous record index. Both payloads
/// are `Arc`-shared: `clone()` bumps one `Arc` per payload (two for
/// `pairs`) and copies no record byte, so a caller that keeps its splits
/// across runs hands the engine clones, and the engine frees nothing the
/// caller still holds.
#[derive(Debug, Clone, Default)]
pub struct Split {
    /// The input records (e.g. click-log lines or documents), packed.
    pub records: PackedRecords,
    /// Already-framed `(key, value)` pairs — a cache-hit split. The
    /// segment is Arc-shared straight out of the
    /// [`DatasetCache`](crate::cache::DatasetCache): no input decode,
    /// no copy. Pairs are mapped last, via
    /// [`MapFn::map_pair`](crate::job::MapFn::map_pair).
    pub pairs: Option<onepass_core::SegmentBuf>,
    /// When set, every emission of this split routes to this one
    /// reducer partition, skipping the per-key partitioner hash — the
    /// in-proc shuffle short-circuit for partition-aligned cached
    /// edges. Only valid when the split's keys all belong to that
    /// partition under the consuming job's partitioner (the plan layer
    /// checks partition-count stability before setting it).
    pub aligned: Option<u32>,
}

impl Split {
    /// Create a split from records, packing them into one arena (the
    /// record `Vec`s are freed here).
    pub fn new(records: Vec<Vec<u8>>) -> Self {
        Split {
            records: PackedRecords::pack(&records),
            pairs: None,
            aligned: None,
        }
    }

    /// A zero-copy split over a cached partition's framed pairs.
    pub fn from_segment(pairs: onepass_core::SegmentBuf) -> Self {
        Split {
            pairs: Some(pairs),
            ..Default::default()
        }
    }

    /// Total input records (raw and cached pairs).
    pub fn record_count(&self) -> usize {
        self.records.len() + self.pairs.as_ref().map_or(0, |p| p.len())
    }

    /// Total payload bytes.
    pub fn bytes(&self) -> u64 {
        self.records.bytes() + self.pairs.as_ref().map_or(0, |p| p.payload_bytes() as u64)
    }
}

/// Per-map-task result statistics.
#[derive(Debug, Default, Clone)]
pub struct MapTaskStats {
    /// Input records processed.
    pub input_records: u64,
    /// Input bytes processed.
    pub input_bytes: u64,
    /// Intermediate records emitted by the map function.
    pub output_records: u64,
    /// Intermediate records actually shuffled (after combine).
    pub shuffled_records: u64,
    /// Intermediate bytes actually shuffled (after combine).
    pub shuffled_bytes: u64,
    /// Buffer flushes ("spills").
    pub flushes: u64,
    /// Phase-attributed CPU time.
    pub profile: Profile,
}

/// Execution context for one attempt of a map task: the attempt id that
/// stamps every shuffle message, the fault injector consulted per record,
/// and the driver's cancellation flag (set when the job fails, so queued
/// and running attempts stop burning CPU).
#[derive(Clone, Default)]
pub struct MapAttemptCtx {
    /// Attempt number (0 = first execution of the task).
    pub attempt: usize,
    /// Fault schedule; inert by default.
    pub injector: FaultInjector,
    /// Set by the driver when this attempt's result is no longer wanted.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl MapAttemptCtx {
    /// Context for a plain first attempt with no faults or cancellation.
    pub fn first() -> Self {
        Self::default()
    }

    /// Whether the driver has cancelled this attempt.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

/// Emitter collecting map output into a [`KvBuf`], partitioned up front.
///
/// With `partitioner: None` (an attempt deferring to its slot's combine
/// table) every pair lands unrouted: the combiner's fold fingerprints
/// each key anyway, so it routes from that fingerprint via
/// [`Partitioner::partition_fp`] and the per-emit partition call would be
/// a second hash of the same bytes.
struct BufEmitter<'a> {
    buf: &'a mut KvBuf,
    partitioner: Option<&'a HashPartitioner>,
    reducers: usize,
    /// Partition-aligned cache-hit splits pin every emission to one
    /// partition ([`Split::aligned`]), skipping the per-key hash.
    fixed: Option<u32>,
    /// A combinable job's attempt that ships turns each value into a
    /// state as it lands, as a combine table's first contact would.
    init: Option<&'a dyn Aggregator>,
    /// The slot's key sample, while the slot is undecided.
    sample: Option<&'a mut KeySample>,
    emitted: u64,
}

impl MapEmitter for BufEmitter<'_> {
    fn emit(&mut self, key: &[u8], value: &[u8]) {
        let p = match self.fixed {
            Some(p) => p,
            None => self
                .partitioner
                .map_or(0, |pt| pt.partition(key, self.reducers) as u32),
        };
        match self.init {
            Some(agg) => self.buf.push(p, key, &agg.init(key, value)),
            None => self.buf.push(p, key, value),
        }
        if let Some(sample) = self.sample.as_deref_mut() {
            sample.offer(key);
        }
        self.emitted += 1;
    }
}

/// Consult the fault injector for one map record.
fn check_fault(ctx: &MapAttemptCtx, task_id: usize, record_idx: usize) -> Result<()> {
    match ctx
        .injector
        .check(FaultTarget::Map, task_id, ctx.attempt, record_idx as u64)
    {
        Some(FaultAction::Fail) => Err(Error::Io(std::io::Error::other(format!(
            "injected fault: map task {task_id} attempt {} at record {record_idx}",
            ctx.attempt
        )))),
        Some(FaultAction::Panic) => {
            panic!(
                "injected panic: map task {task_id} attempt {} at record {record_idx}",
                ctx.attempt
            );
        }
        None => Ok(()),
    }
}

/// The one map-output run of an attempt: opened by the first flush that
/// has something to persist, appended to by every flush, sealed and
/// deleted before the attempt announces `MapDone` — "a mapper completes
/// after its output has been persisted" (§II-A). Dropped unsealed (a
/// failed, cancelled or panicking attempt) it still deletes its run, so
/// no attempt leaves a live run in the map store.
struct MapRun<'a> {
    store: &'a Arc<dyn SpillStore>,
    writer: Option<Box<dyn RunWriter>>,
}

impl MapRun<'_> {
    fn writer(&mut self) -> Result<&mut dyn RunWriter> {
        let writer = match &mut self.writer {
            Some(w) => w,
            slot => slot.insert(self.store.begin_run()?),
        };
        Ok(writer.as_mut())
    }

    /// Flush the run to the store, then drop it: reducers get the data
    /// over the channel, as Hadoop reducers usually get it from the
    /// mapper's memory (§II-A).
    fn seal(&mut self) -> Result<()> {
        match self.writer.take() {
            Some(w) => self.store.delete_run(w.finish()?.id),
            None => Ok(()),
        }
    }
}

impl Drop for MapRun<'_> {
    fn drop(&mut self) {
        let _ = self.seal();
    }
}

/// Execute one map task over `split`, sending segments through `tx`.
/// `buf` is the slot's reusable output arena, handed in empty;
/// `combining` is the slot's combine state, `None` once a combinable
/// job's slot has stopped combining and always for any other job.
///
/// * A sort-merge backend ([`sorts_map_output`]) — sort the buffer on
///   `(partition, key)` (the Table II CPU cost), combine key-streaks when
///   the aggregate is combinable, persist the output via `map_store` (the
///   synchronous map-output write of §III-B.2), then ship per-partition
///   sorted segments.
/// * A hash backend over a holistic aggregate — single
///   partition-clustering scan, no sort, no combine; raw segments.
/// * A hash backend over a combinable aggregate, while the slot
///   combines — the attempt's whole output stays in `buf`, unrouted, and
///   nothing ships: no segments, no `MapDone`, no mid-task flushes.
///   The caller (`in_node::MapSlot`) folds a successful attempt's buffer
///   into its combine table, which ships the segments and announces the
///   `MapDone`; `in_node.rs` has the protocol. Each emitted key is
///   offered to the slot's sample while the slot is undecided; when the
///   sample says stop, the table ships its earlier attempts, the buffer
///   is routed once, and the attempt ships as below.
/// * A hash backend over a combinable aggregate whose slot has stopped
///   combining — as for a holistic aggregate, but each value lands as
///   its [`Aggregator::init`] state.
///
/// When the backend [`pushes`] a shipping task additionally flushes every
/// [`PUSH_RECORDS`] emitted records, so reducers receive data while the
/// task is still running.
///
/// [`sorts_map_output`]: crate::job::ReduceBackend::sorts_map_output
/// [`pushes`]: crate::job::ReduceBackend::pushes
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_map_task(
    job: &JobSpec,
    task_id: usize,
    split: &Split,
    tx: &ShuffleTx,
    map_store: Option<&Arc<dyn SpillStore>>,
    trace: &mut LocalTracer,
    ctx: &MapAttemptCtx,
    buf: &mut KvBuf,
    combining: &mut Option<Combining>,
) -> Result<MapTaskStats> {
    let mut stats = MapTaskStats {
        input_records: split.record_count() as u64,
        input_bytes: split.bytes(),
        ..Default::default()
    };
    // An attempt deferring to a combine table buffers whole, so neither
    // checkpoint applies to it (the arena is bounded by the split's
    // output; the combiner's budget governs the table instead).
    let mut ships = combining.is_none();
    // Whether the slot is still sampling its keys; once it has decided,
    // the record loop looks no further.
    let mut sampling = combining.as_mut().is_some_and(|c| c.sample().is_some());
    let partitioner = HashPartitioner::default();
    let pushes = job.backend.pushes();
    let init = job.hash_combines().then_some(job.agg.as_ref());
    let mut since_flush = 0usize;
    let mut map_run = map_store.map(|store| MapRun {
        store,
        writer: None,
    });

    // The clock is read at flush boundaries only, never per record:
    // `Phase::MapFn` is the stretch since the previous flush ended.
    let mut map_fn = Stamp::start(Phase::MapFn);
    macro_rules! flush {
        () => {{
            map_fn.stop(&mut stats.profile, trace);
            flush_buffer(
                job,
                task_id,
                ctx.attempt,
                buf,
                tx,
                map_run.as_mut(),
                &mut stats,
                trace,
            )?;
        }};
    }
    macro_rules! emitter {
        ($buf:expr) => {
            BufEmitter {
                buf: $buf,
                partitioner: ships.then_some(&partitioner),
                reducers: job.reducers,
                fixed: split.aligned,
                init: init.filter(|_| ships),
                sample: if sampling {
                    combining.as_mut().and_then(Combining::sample)
                } else {
                    None
                },
                emitted: 0,
            }
        };
    }

    // Raw records and cached pairs share one flush/fault/stat protocol;
    // pairs continue the record index where the raw records stopped, so
    // fault schedules hit the same logical positions whichever
    // representation holds a record.
    macro_rules! map_one {
        ($record_idx:expr, $apply:expr) => {{
            if ctx.cancelled() {
                return Err(Error::Cancelled);
            }
            check_fault(ctx, task_id, $record_idx)?;
            let mut emitter = emitter!(buf);
            #[allow(clippy::redundant_closure_call)]
            $apply(&mut emitter);
            let emitted = emitter.emitted;
            stats.output_records += emitted;
            since_flush += emitted as usize;

            let decided = if sampling {
                combining.as_mut().and_then(|c| c.decide(trace))
            } else {
                None
            };
            if let Some(stops) = decided {
                sampling = false;
                if stops {
                    // The slot stops combining here, mid-attempt: the
                    // table ships the attempts it holds, then this
                    // attempt's buffer is routed once and it ships from
                    // now on.
                    if let Some(mut c) = combining.take() {
                        c.flush(tx, map_store);
                    }
                    ships = true;
                    let deferred = std::mem::take(buf);
                    let mut emitter = emitter!(buf);
                    for (_, key, value) in deferred.iter() {
                        emitter.emit(key, value);
                    }
                }
            }
            let buffer_full = ships && buf.arena_bytes() >= MAP_BUFFER_BYTES;
            let push_due = ships && pushes && since_flush >= PUSH_RECORDS;
            if buffer_full || push_due {
                flush!();
                map_fn = Stamp::start(Phase::MapFn);
                since_flush = 0;
            }
        }};
    }

    for (record_idx, record) in split.records.iter().enumerate() {
        map_one!(record_idx, |em: &mut BufEmitter<'_>| job
            .map_fn
            .map(record, em));
    }
    let base = split.records.len();
    if let Some(pairs) = &split.pairs {
        for i in 0..pairs.len() {
            let (key, value) = pairs.get(i);
            map_one!(base + i, |em: &mut BufEmitter<'_>| job
                .map_fn
                .map_pair(key, value, em));
        }
    }
    if ctx.cancelled() {
        return Err(Error::Cancelled);
    }
    if ships {
        flush!();
        if let Some(run) = &mut map_run {
            let t = Stamp::start(Phase::MapWrite);
            run.seal()?;
            t.stop(&mut stats.profile, trace);
        }
        tx.map_done(task_id, ctx.attempt);
    } else {
        map_fn.stop(&mut stats.profile, trace);
    }
    Ok(stats)
}

/// Turn the buffer into segments: sorted when the backend sorts map
/// output, combined when the aggregate is combinable.
#[allow(clippy::too_many_arguments)]
fn flush_buffer(
    job: &JobSpec,
    task_id: usize,
    attempt: usize,
    buf: &mut KvBuf,
    tx: &ShuffleTx,
    map_run: Option<&mut MapRun<'_>>,
    stats: &mut MapTaskStats,
    trace: &mut LocalTracer,
) -> Result<()> {
    if buf.is_empty() {
        return Ok(());
    }
    stats.flushes += 1;
    trace.instant(
        "flush",
        "map",
        &[("buffer_bytes", buf.arena_bytes() as f64)],
    );
    let combine_on = job.agg.combinable();

    // A buffer deferred to a combine table never comes here: the table
    // ships it, or the attempt routes it when its slot stops combining.
    let sorted = job.backend.sorts_map_output();
    if sorted {
        let t = Stamp::start(Phase::MapSort);
        buf.sort_by_partition_key();
        t.stop(&mut stats.profile, trace);
    }
    let segments: Vec<Segment> = if sorted && combine_on {
        let ranges = buf.partition_ranges(job.reducers);
        let t = Stamp::start(Phase::Combine);
        let mut segs = Vec::new();
        for (p, range) in ranges.into_iter().enumerate() {
            if range.is_empty() {
                continue;
            }
            // Collapse each key streak into one partial state.
            let mut records = SegmentBufBuilder::new();
            let mut i = range.start;
            while i < range.end {
                let start = i;
                let mut state = job.agg.init(buf.key(i), buf.value(i));
                i += 1;
                while i < range.end && buf.key(i) == buf.key(start) {
                    job.agg.update(buf.key(start), &mut state, buf.value(i));
                    i += 1;
                }
                records.push(buf.key(start), &state);
            }
            segs.push(Segment::new(task_id, attempt, p, records.finish()));
        }
        t.stop(&mut stats.profile, trace);
        segs
    } else {
        // Zero copy: the arena is frozen in place — sorted, or as it
        // arrived — and every per-partition segment shares it behind an
        // `Arc`. For a hash map side that is the whole of the work:
        // "the map output is scanned once for partitioning, and no effort
        // is spent for grouping" (§V), so this mode's grouping CPU is
        // genuinely ~zero.
        buf.freeze_into_segments(job.reducers)
            .into_iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(p, records)| Segment::new(task_id, attempt, p, records))
            .collect()
    };
    buf.clear();

    // Persist map output for fault tolerance. The write is synchronous
    // and attributed to MapWrite: each segment goes down as one batched
    // framed write, appended to the attempt's single run.
    if let Some(run) = map_run {
        let t = Stamp::start(Phase::MapWrite);
        let w = run.writer()?;
        for seg in &segments {
            w.write_segment(&seg.records)?;
        }
        t.stop(&mut stats.profile, trace);
    }

    let mut sent_records = 0u64;
    let mut sent_bytes = 0u64;
    for seg in segments {
        sent_records += seg.len() as u64;
        sent_bytes += seg.payload_bytes();
        tx.send_segment(seg);
    }
    stats.shuffled_records += sent_records;
    stats.shuffled_bytes += sent_bytes;
    if sent_records > 0 {
        trace.instant(
            "shuffle_send",
            "shuffle",
            &[
                ("records", sent_records as f64),
                ("bytes", sent_bytes as f64),
            ],
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, MapEmitter};
    use crate::shuffle::{shuffle_fabric, ShuffleMsg};
    use onepass_groupby::{ListAgg, SumAgg};
    use std::time::Instant;

    fn word_map(record: &[u8], out: &mut dyn MapEmitter) {
        for w in record.split(|&b| b == b' ') {
            if !w.is_empty() {
                out.emit(w, &1u64.to_le_bytes());
            }
        }
    }

    fn drain_segments(rxs: Vec<crossbeam::channel::Receiver<ShuffleMsg>>) -> (Vec<Segment>, usize) {
        let mut segs = Vec::new();
        let mut dones = 0;
        for rx in rxs {
            while let Ok(msg) = rx.try_recv() {
                match msg {
                    ShuffleMsg::Segment(s) => segs.push(s),
                    ShuffleMsg::MapDone { .. } => dones += 1,
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        (segs, dones)
    }

    fn run_with(job: JobSpec) -> (Vec<Segment>, MapTaskStats) {
        run_on(
            job,
            Split::new(vec![b"a b a".to_vec(), b"b c".to_vec(), b"a".to_vec()]),
        )
    }

    fn run_on(job: JobSpec, split: Split) -> (Vec<Segment>, MapTaskStats) {
        let (tx, rxs) = shuffle_fabric(job.reducers, 1024);
        let stats = run_map_task(
            &job,
            0,
            &split,
            &tx,
            None,
            &mut LocalTracer::disabled(),
            &MapAttemptCtx::first(),
            &mut KvBuf::new(),
            &mut None,
        )
        .unwrap();
        let (segs, dones) = drain_segments(rxs);
        assert_eq!(dones, job.reducers, "MapDone must reach every reducer");
        (segs, stats)
    }

    #[test]
    fn sort_spill_produces_sorted_combined_segments() {
        let job = JobSpec::builder("t")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(2)
            .build()
            .unwrap();
        let (segs, stats) = run_with(job);
        assert_eq!(stats.input_records, 3);
        assert_eq!(stats.output_records, 6); // a,b,a,b,c,a
                                             // Combine collapsed duplicates: only distinct words shuffle.
        assert_eq!(stats.shuffled_records, 3);
        for seg in &segs {
            let mut keys: Vec<_> = seg.records.iter().map(|(k, _)| k.to_vec()).collect();
            let orig = keys.clone();
            keys.sort();
            assert_eq!(keys, orig, "segment must be key-sorted");
        }
        // Sum of all states equals total emissions.
        let total: u64 = segs
            .iter()
            .flat_map(|s| s.records.iter())
            .map(|(_, v)| u64::from_le_bytes(v.try_into().unwrap()))
            .sum();
        assert_eq!(total, 6);
        assert!(stats.profile.time(Phase::MapSort) > std::time::Duration::ZERO);
    }

    #[test]
    fn hash_map_side_over_a_holistic_aggregate_neither_sorts_nor_combines() {
        let job = JobSpec::builder("t")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(ListAgg))
            .reducers(2)
            .preset_onepass()
            .build()
            .unwrap();
        let (_, stats) = run_with(job);
        assert_eq!(stats.shuffled_records, 6, "no combine: all records shuffle");
        assert_eq!(
            stats.profile.time(Phase::MapSort),
            std::time::Duration::ZERO
        );
    }

    #[test]
    fn push_mode_flushes_mid_task() {
        let job = JobSpec::builder("t")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(ListAgg))
            .reducers(1)
            .preset_hop()
            .build()
            .unwrap();
        // 3 × PUSH_RECORDS emitted pairs: pushes are due twice before the
        // task ends.
        let split = Split::new(vec![b"a b c".to_vec(); PUSH_RECORDS]);
        let (segs, stats) = run_on(job, split);
        assert!(
            stats.flushes >= 2,
            "push granularity must force early flushes"
        );
        assert!(segs.len() >= 2);
    }

    #[test]
    fn map_write_is_accounted_when_store_present() {
        let store: Arc<dyn SpillStore> = Arc::new(onepass_core::io::SharedMemStore::new());
        let job = JobSpec::builder("t")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(1)
            .build()
            .unwrap();
        let (tx, _rxs) = shuffle_fabric(1, 64);
        let split = Split::new(vec![b"x y z".to_vec()]);
        let stats = run_map_task(
            &job,
            0,
            &split,
            &tx,
            Some(&store),
            &mut LocalTracer::disabled(),
            &MapAttemptCtx::first(),
            &mut KvBuf::new(),
            &mut None,
        )
        .unwrap();
        assert!(
            store.stats().bytes_written > 0,
            "map output must be persisted"
        );
        assert!(stats.profile.time(Phase::MapWrite) > std::time::Duration::ZERO);
    }

    /// [`PUSH_RECORDS`] three-word records under push shuffle: a flush
    /// after every ⌈PUSH_RECORDS / 3⌉ records, three in all.
    fn push_job(map_fn: Arc<dyn crate::job::MapFn>) -> (JobSpec, Split) {
        let job = JobSpec::builder("t")
            .map_fn(map_fn)
            .aggregate(Arc::new(ListAgg))
            .reducers(2)
            .preset_onepass()
            .build()
            .unwrap();
        let split = Split::new(
            (0..PUSH_RECORDS)
                .map(|i| format!("w{} x{} y", i % 7, i % 3).into_bytes())
                .collect(),
        );
        (job, split)
    }

    #[test]
    fn one_map_output_run_per_attempt_whatever_the_flush_count() {
        let (job, split) = push_job(Arc::new(word_map));
        let mem = onepass_core::io::SharedMemStore::new();
        let store: Arc<dyn SpillStore> = Arc::new(mem.clone());
        let (tx, rxs) = shuffle_fabric(2, 1024);
        let wall = Instant::now();
        let stats = run_map_task(
            &job,
            0,
            &split,
            &tx,
            Some(&store),
            &mut LocalTracer::disabled(),
            &MapAttemptCtx::first(),
            &mut KvBuf::new(),
            &mut None,
        )
        .unwrap();
        let wall = wall.elapsed();
        assert!(stats.flushes >= 3, "a flush per PUSH_RECORDS emitted pairs");
        let io = store.stats();
        assert_eq!((io.runs_created, io.runs_deleted), (1, 1));
        assert_eq!(mem.live_runs(), 0, "the run is dropped once sealed");
        // Same bytes as a run per flush: every shuffled record, framed.
        let (segs, _) = drain_segments(rxs);
        let framed: u64 = segs
            .iter()
            .flat_map(|s| s.records.iter())
            .map(|(k, v)| onepass_core::io::encoded_len(k, v))
            .sum();
        assert_eq!(stats.shuffled_records, 3 * PUSH_RECORDS as u64);
        assert_eq!(io.bytes_written, framed);
        // The map function's time is still reported, from flush-boundary
        // clock reads alone.
        let map_fn = stats.profile.time(Phase::MapFn);
        assert!(map_fn > std::time::Duration::ZERO && map_fn <= wall);
        assert!(stats.profile.time(Phase::MapWrite) <= wall - map_fn);
    }

    #[test]
    fn failed_or_cancelled_attempt_leaves_no_live_run() {
        // Both attempts stop at record 3000, after two flushes into their
        // run: one by an injected fault, one cancelled from inside its
        // own map function (no race with the driver).
        let cancel = Arc::new(AtomicBool::new(false));
        let failing = MapAttemptCtx {
            attempt: 0,
            injector: onepass_core::fault::FaultPlan::new()
                .fail_map(0, 0, 3000)
                .into_injector(),
            cancel: None,
        };
        let cancelled = MapAttemptCtx {
            attempt: 1,
            injector: FaultInjector::none(),
            cancel: Some(Arc::clone(&cancel)),
        };
        let seen = std::sync::atomic::AtomicUsize::new(0);
        let cancelling_map = move |record: &[u8], out: &mut dyn MapEmitter| {
            if seen.fetch_add(1, Ordering::Relaxed) == 3000 {
                cancel.store(true, Ordering::Relaxed);
            }
            word_map(record, out);
        };
        let cases: [(_, Arc<dyn crate::job::MapFn>, _); 2] = [
            (failing, Arc::new(word_map), false),
            (cancelled, Arc::new(cancelling_map), true),
        ];
        for (ctx, map_fn, want_cancelled) in cases {
            let (job, split) = push_job(map_fn);
            // A file store: an unsealed run there is a file left behind.
            let dir = std::env::temp_dir().join(format!(
                "onepass-map-run-{}-{want_cancelled}",
                std::process::id()
            ));
            let store: Arc<dyn SpillStore> =
                Arc::new(onepass_core::io::FileSpillStore::new(&dir).unwrap());
            let (tx, _rxs) = shuffle_fabric(2, 1024);
            let err = run_map_task(
                &job,
                0,
                &split,
                &tx,
                Some(&store),
                &mut LocalTracer::disabled(),
                &ctx,
                &mut KvBuf::new(),
                &mut None,
            )
            .unwrap_err();
            assert_eq!(matches!(err, Error::Cancelled), want_cancelled, "{err}");
            let io = store.stats();
            assert_eq!((io.runs_created, io.runs_deleted), (1, 1));
            assert_eq!(
                std::fs::read_dir(&dir).unwrap().count(),
                0,
                "no run file outlives the attempt"
            );
            std::fs::remove_dir(&dir).unwrap();
        }
    }

    #[test]
    fn traced_flush_emits_phase_spans() {
        use onepass_core::trace::{complete_spans, Tracer, Track};
        let job = JobSpec::builder("t")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(2)
            .build()
            .unwrap();
        let tracer = Tracer::enabled();
        let mut trace = tracer.local(Track::new("map", 0));
        let (tx, _rxs) = shuffle_fabric(2, 1024);
        let split = Split::new(vec![b"a b a".to_vec(), b"b c".to_vec()]);
        run_map_task(
            &job,
            0,
            &split,
            &tx,
            None,
            &mut trace,
            &MapAttemptCtx::first(),
            &mut KvBuf::new(),
            &mut None,
        )
        .unwrap();
        drop(trace);
        let events = tracer.drain();
        assert!(events.iter().any(|e| e.name == "flush"));
        assert!(
            events.iter().any(|e| e.name == "shuffle_send"
                && e.args.iter().any(|&(k, v)| k == "records" && v > 0.0)),
            "shuffle_send instant must carry record counts"
        );
        let spans = complete_spans(&events).unwrap();
        assert!(spans.iter().any(|s| s.name == Phase::MapSort.label()));
        assert!(spans.iter().any(|s| s.name == Phase::Combine.label()));
    }

    #[test]
    fn cancelled_attempt_exits_early_without_map_done() {
        let job = JobSpec::builder("t")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(1)
            .build()
            .unwrap();
        let ctx = MapAttemptCtx {
            attempt: 1,
            injector: FaultInjector::none(),
            cancel: Some(Arc::new(AtomicBool::new(true))),
        };
        let (tx, rxs) = shuffle_fabric(1, 8);
        let split = Split::new(vec![b"a b".to_vec()]);
        let err = run_map_task(
            &job,
            0,
            &split,
            &tx,
            None,
            &mut LocalTracer::disabled(),
            &ctx,
            &mut KvBuf::new(),
            &mut None,
        )
        .unwrap_err();
        assert!(matches!(err, Error::Cancelled));
        let (segs, dones) = drain_segments(rxs);
        assert!(
            segs.is_empty() && dones == 0,
            "cancelled attempt stays silent"
        );
    }

    #[test]
    fn injected_fault_stops_mid_split() {
        let job = JobSpec::builder("t")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(1)
            .build()
            .unwrap();
        let ctx = MapAttemptCtx {
            attempt: 0,
            injector: onepass_core::fault::FaultPlan::new()
                .fail_map(0, 0, 1)
                .into_injector(),
            cancel: None,
        };
        let (tx, rxs) = shuffle_fabric(1, 8);
        let split = Split::new(vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        let err = run_map_task(
            &job,
            0,
            &split,
            &tx,
            None,
            &mut LocalTracer::disabled(),
            &ctx,
            &mut KvBuf::new(),
            &mut None,
        )
        .unwrap_err();
        assert!(matches!(err, Error::Io(_)));
        assert_eq!(ctx.injector.triggered(), 1);
        let (_segs, dones) = drain_segments(rxs);
        assert_eq!(dones, 0, "failed attempt must not announce MapDone");
    }

    /// `records`, then `pairs`, under one record index: an injected fault
    /// at index *k* fires at the same logical record whichever
    /// representation holds it.
    #[test]
    fn records_then_pairs_map_in_order_under_one_record_index() {
        // Emits each input as `(position seen, input)`, so the shuffled
        // segment is the order the loop visited them in.
        let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let job = |seen: &Arc<std::sync::atomic::AtomicUsize>| {
            let seen = Arc::clone(seen);
            JobSpec::builder("t")
                .map_fn(Arc::new(move |record: &[u8], out: &mut dyn MapEmitter| {
                    let at = seen.fetch_add(1, Ordering::Relaxed) as u64;
                    out.emit(&at.to_be_bytes(), record);
                }))
                .aggregate(Arc::new(ListAgg))
                .reducers(1)
                .preset_onepass()
                .build()
                .unwrap()
        };
        // The same six logical records held one way and two ways. (A
        // pair reaches the default `map_pair` re-encoded as an edge record.)
        let all_raw = Split::new(
            [b"r0", b"r1", b"p2", b"p3", b"k4", b"k5"]
                .map(|w| w.to_vec())
                .into(),
        );
        let mixed = Split {
            records: PackedRecords::pack(&[b"r0", b"r1", b"p2", b"p3"]),
            pairs: Some(onepass_core::SegmentBuf::from_pairs([
                (&b"k"[..], &b"4"[..]),
                (b"k", b"5"),
            ])),
            aligned: None,
        };
        assert_eq!(mixed.record_count(), 6);
        assert_eq!(mixed.bytes(), 12);
        assert_eq!(mixed.bytes(), all_raw.bytes());

        let visit = |split: &Split, ctx: &MapAttemptCtx| {
            seen.store(0, Ordering::Relaxed);
            let (tx, rxs) = shuffle_fabric(1, 64);
            let result = run_map_task(
                &job(&seen),
                0,
                split,
                &tx,
                None,
                &mut LocalTracer::disabled(),
                ctx,
                &mut KvBuf::new(),
                &mut None,
            );
            let (segs, _) = drain_segments(rxs);
            let visited: Vec<Vec<u8>> = segs
                .iter()
                .flat_map(|s| s.records.iter())
                .map(|(_, v)| v.to_vec())
                .collect();
            (result, visited, seen.load(Ordering::Relaxed))
        };
        let (stats, visited, _) = visit(&mixed, &MapAttemptCtx::first());
        assert_eq!(stats.unwrap().input_records, 6);
        let edge = |v: &[u8]| crate::codec::encode_pair(b"k", v);
        let want = [
            b"r0".to_vec(),
            b"r1".to_vec(),
            b"p2".to_vec(),
            b"p3".to_vec(),
        ];
        assert_eq!(visited[..4], want);
        assert_eq!(visited[4..], [edge(b"4"), edge(b"5")]);

        for k in 0..6u64 {
            let faulty = || MapAttemptCtx {
                attempt: 0,
                injector: onepass_core::fault::FaultPlan::new()
                    .fail_map(0, 0, k)
                    .into_injector(),
                cancel: None,
            };
            for split in [&all_raw, &mixed] {
                let (result, _, mapped) = visit(split, &faulty());
                let err = result.unwrap_err().to_string();
                assert!(err.contains(&format!("at record {k}")), "{err}");
                assert_eq!(mapped as u64, k, "records mapped before the fault");
            }
        }
    }

    #[test]
    fn empty_split_still_reports_done() {
        let job = JobSpec::builder("t").reducers(2).build().unwrap();
        let (tx, rxs) = shuffle_fabric(2, 8);
        let stats = run_map_task(
            &job,
            3,
            &Split::default(),
            &tx,
            None,
            &mut LocalTracer::disabled(),
            &MapAttemptCtx::first(),
            &mut KvBuf::new(),
            &mut None,
        )
        .unwrap();
        assert_eq!(stats.output_records, 0);
        let (segs, dones) = drain_segments(rxs);
        assert!(segs.is_empty());
        assert_eq!(dones, 2);
    }
}
