//! Sort-merge group-by — the Hadoop baseline (§II-A / §III), and the
//! engine's one sort-merge reducer (Fig. 1 right half).
//!
//! The operator buffers **key-sorted segments** that share their arenas
//! with whoever produced them (map-side sorted output arrives through
//! [`GroupBy::push_sorted`] and is buffered as-is; unsorted input through
//! [`GroupBy::push_batch`] is sorted by entry permutation first — the CPU
//! cost Table II quantifies, charged to the reduce side as HOP does,
//! §III-D). When the memory budget or the segment-count threshold fills,
//! the buffered segments are heap-merged, partially aggregated (Hadoop
//! applies the combine function "in a reducer when its data buffer fills
//! up") and written to disk as one sorted run. On-disk runs go through
//! [`MultiPassMerger`]'s progressive multi-pass merge (the blocking,
//! I/O-heavy phase of Fig. 2), and the final merge streams fully grouped
//! data through the aggregate.
//!
//! Faithful behavioural details reproduced here:
//! * once *any* spill has happened, the final buffer is also written to
//!   disk before merging — "even if there is ample memory […] the
//!   multi-pass merge still causes I/O" (§III-B.4);
//! * if nothing ever spilled, grouping completes fully in memory with
//!   zero I/O (the properly-tuned small-job fast path);
//! * the operator is **blocking**: no output before `finish`, except
//!   MapReduce Online's snapshots ([`GroupBy::snapshot`], §III-D), which
//!   "repeat the merge operation for each snapshot" and pay the re-read.

use std::ops::Range;
use std::sync::Arc;

use onepass_core::bytes_kv::{SegmentBuf, SegmentBufBuilder};
use onepass_core::error::Result;
use onepass_core::io::{IoStats, SpillStore};
use onepass_core::memory::MemoryBudget;
use onepass_core::metrics::{Phase, Profile, Stamp};
use onepass_core::trace::LocalTracer;
use onepass_core::FpTable;

use crate::aggregate::{render, Aggregator};
use crate::hybrid_hash::io_since;
use crate::merge::{KMerge, MultiPassMerger};
use crate::sink::{EmitKind, OpStats, Sink};
use crate::state::StateBuf;
use crate::{fingerprint, GroupBy};

/// Bookkeeping bytes charged to the budget per buffered record (its
/// 12-byte entry-table slot plus slack).
const RECORD_OVERHEAD: usize = 16;

/// Budget charge for holding `seg` in the buffer.
fn seg_cost(seg: &SegmentBuf) -> usize {
    seg.payload_bytes() + RECORD_OVERHEAD * seg.len()
}

/// The sort-merge (Hadoop-style) group-by operator.
pub struct SortMergeGrouper {
    store: Arc<dyn SpillStore>,
    budget: MemoryBudget,
    agg: Arc<dyn Aggregator>,
    merger: MultiPassMerger,
    /// Key-sorted in-memory segments awaiting the next merge.
    buffered: Vec<SegmentBuf>,
    reserved: usize,
    peak_reserved: usize,
    records_in: u64,
    early_emits: u64,
    spills: u64,
    profile: Profile,
    io_base: IoStats,
    trace: LocalTracer,
}

impl std::fmt::Debug for SortMergeGrouper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SortMergeGrouper")
            .field("records_in", &self.records_in)
            .field("spills", &self.spills)
            .finish()
    }
}

impl SortMergeGrouper {
    /// Buffered segments at which the reducer merges them to disk whatever
    /// the memory headroom (Hadoop's `mapred.inmem.merge.threshold`, at
    /// its default) — §III-B.4: "even if there is ample memory ... the
    /// multi-pass merge still causes I/O".
    pub const INMEM_MERGE_THRESHOLD: usize = 1000;

    /// Create a sort-merge grouper.
    ///
    /// * `store` — spill destination for sorted runs.
    /// * `budget` — in-memory buffer bound (may be shared with peers).
    /// * `merge_factor` — Hadoop's `io.sort.factor` F.
    /// * `agg` — the reduce (and buffer-fill combine) function.
    pub fn new(
        store: Arc<dyn SpillStore>,
        budget: MemoryBudget,
        merge_factor: usize,
        agg: Arc<dyn Aggregator>,
    ) -> Result<Self> {
        let io_base = store.stats();
        let merger = MultiPassMerger::new(Arc::clone(&store), merge_factor)?;
        Ok(SortMergeGrouper {
            store,
            budget,
            agg,
            merger,
            buffered: Vec::new(),
            reserved: 0,
            peak_reserved: 0,
            records_in: 0,
            early_emits: 0,
            spills: 0,
            profile: Profile::new(),
            io_base,
            trace: LocalTracer::disabled(),
        })
    }

    /// Attach a trace buffer; merge spans and spill events land on its
    /// track.
    pub fn set_tracer(&mut self, trace: LocalTracer) {
        self.merger.set_tracer(trace.fork());
        self.trace = trace;
    }

    /// Take one key-sorted segment into the buffer, spilling first when
    /// the budget or the segment-count threshold says so.
    fn buffer(&mut self, seg: SegmentBuf) -> Result<()> {
        if seg.is_empty() {
            return Ok(());
        }
        self.records_in += seg.len() as u64;
        let cost = seg_cost(&seg);
        let count_trigger = self.buffered.len() + 1 >= Self::INMEM_MERGE_THRESHOLD;
        // Under a governor lease, ask for more budget before giving up
        // and spilling; a static budget rejects escalation outright.
        if count_trigger || !self.budget.try_grant_or_request(cost) {
            self.spill_buffered()?;
            if !self.budget.try_grant(cost) {
                // A single segment larger than the whole budget (or a
                // lease pool saturated by siblings): the reducer must be
                // able to hold at least one segment, so take it (soft
                // limit) and flush it to disk right below.
                self.budget.force_grant(cost);
            }
        }
        self.reserved += cost;
        self.peak_reserved = self.peak_reserved.max(self.reserved);
        self.buffered.push(seg);
        if self.budget.over_limit() {
            self.spill_buffered()?;
        }
        Ok(())
    }

    /// Merge all buffered segments into one on-disk run, collapsing
    /// key-streaks through the aggregate (Hadoop applies combine on
    /// reducer buffer fill — and writes the data out regardless,
    /// §III-B.4), and release their budget. The combined output is staged
    /// in one arena and written as a single batch.
    fn spill_buffered(&mut self) -> Result<()> {
        if self.buffered.is_empty() {
            return Ok(());
        }
        let t = Stamp::start(Phase::Merge);
        let mut out = SegmentBufBuilder::framed(0);
        let merged = merge_groups(&self.buffered, self.agg.as_ref(), |key, state| {
            out.push(key, state)
        });
        let written = merged
            .and_then(|()| self.store.begin_run())
            .and_then(|mut writer| {
                writer.write_segment(&out.finish())?;
                writer.finish()
            });
        t.stop(&mut self.profile, &mut self.trace);
        let meta = written?;
        self.trace.instant(
            "reduce_spill",
            "spill",
            &[
                ("bytes", meta.bytes as f64),
                ("records", meta.records as f64),
            ],
        );
        self.clear_buffer();
        self.spills += 1;
        self.merger.add_run(meta)
    }

    /// Drop the buffered segments and hand their reservation back.
    fn clear_buffer(&mut self) {
        self.buffered.clear();
        self.budget.release(self.reserved);
        self.reserved = 0;
    }
}

/// Ranges cutting `batch` into pieces whose budget charge stays within
/// `limit` (at least one record each) — the sort buffers an unsorted
/// batch larger than the budget is processed in.
fn budget_sized_ranges(batch: &SegmentBuf, limit: usize) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let (mut start, mut cost) = (0, 0);
    for i in 0..batch.len() {
        let (k, v) = batch.get(i);
        let rec = k.len() + v.len() + RECORD_OVERHEAD;
        if cost + rec > limit && i > start {
            ranges.push(start..i);
            (start, cost) = (i, 0);
        }
        cost += rec;
    }
    ranges.push(start..batch.len());
    ranges
}

/// Stream the key-sorted `segs` through the one k-way merge, fold each
/// key's values through `agg.init`/`agg.update`, and hand every `(key,
/// state)` to `each`.
fn merge_groups(
    segs: &[SegmentBuf],
    agg: &dyn Aggregator,
    mut each: impl FnMut(&[u8], &StateBuf),
) -> Result<()> {
    let mut merge = KMerge::over_segments(segs)?;
    let (mut key, mut state) = (Vec::new(), StateBuf::new());
    while merge.next_group_with(&mut key, |key, value, first| {
        if first {
            state = agg.init(key, value);
        } else {
            agg.update(key, &mut state, value);
        }
    })? {
        each(&key, &state);
    }
    Ok(())
}

impl GroupBy for SortMergeGrouper {
    fn push_batch(&mut self, batch: &SegmentBuf, _sink: &mut dyn Sink) -> Result<()> {
        for range in budget_sized_ranges(batch, self.budget.limit()) {
            let t = Stamp::start(Phase::ReduceGroup);
            let sorted = batch.sorted_range_by_key(range);
            t.stop(&mut self.profile, &mut self.trace);
            self.buffer(sorted)?;
        }
        Ok(())
    }

    fn push_sorted(&mut self, batch: &SegmentBuf, _sink: &mut dyn Sink) -> Result<()> {
        debug_assert!(
            (1..batch.len()).all(|i| batch.key(i - 1) <= batch.key(i)),
            "push_sorted needs a key-sorted batch"
        );
        self.buffer(batch.clone())
    }

    /// MapReduce Online snapshot: non-destructively re-read everything
    /// received so far (on-disk runs + in-memory segments), aggregate, and
    /// emit approximate answers. The re-read is the snapshot's I/O cost.
    fn snapshot(&mut self, sink: &mut dyn Sink) -> Result<()> {
        let t = Stamp::start(Phase::Merge);
        let mut states: FpTable<StateBuf> = FpTable::new();
        for run in self.merger.runs() {
            let mut reader = self.store.open_run(run.id)?;
            while let Some(rec) = reader.next_record()? {
                // Run records are already aggregate states.
                let fp = fingerprint(rec.key);
                match states.get_mut(fp, rec.key) {
                    Some(s) => self.agg.merge(rec.key, s, rec.value),
                    None => {
                        states.insert(fp, rec.key, StateBuf::from_slice(rec.value));
                    }
                }
            }
        }
        for (k, v) in self.buffered.iter().flat_map(SegmentBuf::iter) {
            let fp = fingerprint(k);
            match states.get_mut(fp, k) {
                Some(s) => self.agg.update(k, s, v),
                None => {
                    states.insert(fp, k, self.agg.init(k, v));
                }
            }
        }
        self.early_emits += states.len() as u64;
        let mut out = Vec::new();
        states.drain(|k, state| {
            sink.emit(
                k,
                render(self.agg.as_ref(), k, &state, &mut out),
                EmitKind::Early,
            );
        });
        t.stop(&mut self.profile, &mut self.trace);
        Ok(())
    }

    fn finish(&mut self, sink: &mut dyn Sink) -> Result<OpStats> {
        let mut groups_out = 0u64;
        let mut passes = 0u64;
        let mut out = Vec::new();
        if self.spills == 0 {
            // Never spilled: merge and reduce directly from memory.
            let t = Stamp::start(Phase::ReduceFn);
            let agg = self.agg.as_ref();
            let merged = merge_groups(&self.buffered, agg, |key, state| {
                sink.emit(key, render(agg, key, state, &mut out), EmitKind::Final);
                groups_out += 1;
            });
            t.stop(&mut self.profile, &mut self.trace);
            self.clear_buffer();
            merged?;
        } else {
            // Hadoop behaviour: the in-memory tail is spilled too, then the
            // final (multi-pass if needed) merge feeds the reduce function.
            self.spill_buffered()?;
            let mut grouped = self.merger.drain_grouped()?;
            let t = Stamp::start(Phase::ReduceFn);
            let agg = self.agg.as_ref();
            // Run records are states: merge each key's straight from the
            // batch arenas into one reused state.
            let (mut key, mut state) = (Vec::new(), StateBuf::new());
            while grouped.next_group_with(&mut key, |key, value, first| {
                if first {
                    state.set(value);
                } else {
                    agg.merge(key, &mut state, value);
                }
            })? {
                sink.emit(&key, render(agg, &key, &state, &mut out), EmitKind::Final);
                groups_out += 1;
            }
            t.stop(&mut self.profile, &mut self.trace);
            self.profile.merge(grouped.profile());
            passes = grouped.merge_passes();
            grouped.cleanup()?;
        }

        Ok(OpStats {
            records_in: self.records_in,
            groups_out,
            early_emits: self.early_emits,
            io: io_since(self.store.as_ref(), &self.io_base),
            profile: self.profile.clone(),
            peak_mem: self.peak_reserved,
            spills: self.spills,
            passes,
        })
    }

    fn name(&self) -> &'static str {
        "sort-merge"
    }
}

impl Drop for SortMergeGrouper {
    /// A failed attempt drops its operator mid-stream: give the buffered
    /// segments' reservation back so a shared budget is not starved (spill
    /// runs stay on disk until the store is dropped).
    fn drop(&mut self) {
        self.clear_buffer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{CountAgg, ListAgg};
    use crate::test_support::{count_truth, dec_u64, pairs, run_op};
    use onepass_core::io::SharedMemStore;

    fn records(n: u32, distinct: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("key{:04}", i % distinct).into_bytes(),
                    format!("val{i}").into_bytes(),
                )
            })
            .collect()
    }

    fn grouper(budget_bytes: usize) -> (SortMergeGrouper, SharedMemStore) {
        let store = SharedMemStore::new();
        let g = SortMergeGrouper::new(
            Arc::new(store.clone()),
            MemoryBudget::new(budget_bytes),
            4,
            Arc::new(CountAgg),
        )
        .unwrap();
        (g, store)
    }

    #[test]
    fn in_memory_path_no_io() {
        let (mut g, store) = grouper(1 << 20);
        let recs = records(100, 10);
        let (out, stats, sink) = run_op(&mut g, pairs(&recs));
        assert_eq!(out.len(), 10);
        for (k, c) in count_truth(pairs(&recs)) {
            assert_eq!(dec_u64(&out[&k]), c);
        }
        assert_eq!(
            stats.io.bytes_written, 0,
            "fully in-memory run must not spill"
        );
        assert_eq!(store.live_runs(), 0);
        assert_eq!(sink.early_count(), 0, "sort-merge never emits early");
    }

    #[test]
    fn spilling_path_matches_truth() {
        let (mut g, _store) = grouper(600); // tiny: forces many spills
        let recs = records(500, 37);
        let (out, stats, _) = run_op(&mut g, pairs(&recs));
        assert_eq!(out.len(), 37);
        for (k, c) in count_truth(pairs(&recs)) {
            assert_eq!(dec_u64(&out[&k]), c, "count mismatch for {k:?}");
        }
        assert!(stats.spills > 1);
        assert!(stats.io.bytes_written > 0);
        assert_eq!(stats.records_in, 500);
        assert_eq!(stats.groups_out, 37);
    }

    #[test]
    fn multipass_merge_kicks_in_with_small_factor() {
        let store = SharedMemStore::new();
        let mut g = SortMergeGrouper::new(
            Arc::new(store.clone()),
            MemoryBudget::new(400),
            2, // F = 2: merges cascade aggressively
            Arc::new(CountAgg),
        )
        .unwrap();
        let recs = records(400, 50);
        let (out, stats, _) = run_op(&mut g, pairs(&recs));
        assert_eq!(out.len(), 50);
        assert!(stats.passes >= 1, "expected intermediate merge passes");
        // Multi-pass amplification: bytes written exceed one spill's worth.
        assert!(stats.io.bytes_read > 0);
    }

    #[test]
    fn tail_is_spilled_once_any_spill_happened() {
        // Budget fits ~4 records; push 6 so exactly one spill occurs, then
        // finish must write the remaining buffered tail too (§III-B.4).
        let (mut g, _store) = grouper(4 * (6 + 4 + RECORD_OVERHEAD) + 8);
        let recs = records(6, 6);
        let (out, stats, _) = run_op(&mut g, pairs(&recs));
        assert_eq!(out.len(), 6);
        assert!(stats.spills >= 2, "tail must be spilled as its own run");
    }

    #[test]
    fn combine_shrinks_spilled_runs() {
        // With CountAgg, a run holds one record per distinct key.
        let store = SharedMemStore::new();
        let mut g = SortMergeGrouper::new(
            Arc::new(store.clone()),
            MemoryBudget::new(2000),
            100,
            Arc::new(CountAgg),
        )
        .unwrap();
        // 2 distinct keys, many records: each spill collapses to 2 records.
        let recs = records(300, 2);
        let (_, stats, _) = run_op(&mut g, pairs(&recs));
        assert!(
            stats.io.bytes_written < 3000,
            "combine should collapse runs"
        );
    }

    #[test]
    fn list_agg_collects_all_values() {
        let store = SharedMemStore::new();
        let mut g = SortMergeGrouper::new(
            Arc::new(store.clone()),
            MemoryBudget::new(500),
            3,
            Arc::new(ListAgg),
        )
        .unwrap();
        let recs = records(60, 5);
        let (out, _, _) = run_op(&mut g, pairs(&recs));
        assert_eq!(out.len(), 5);
        let total: usize = out.values().map(|v| ListAgg::decode(v).len()).sum();
        assert_eq!(total, 60, "every value must appear in some group list");
    }

    #[test]
    fn sort_cpu_is_attributed() {
        let (mut g, _) = grouper(1 << 20);
        let recs = records(20_000, 1000);
        let (_, stats, _) = run_op(&mut g, pairs(&recs));
        assert!(
            stats.profile.time(Phase::ReduceGroup) > std::time::Duration::ZERO,
            "sorting must register CPU time"
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let (mut g, _) = grouper(1024);
        let (out, stats, _) = run_op(&mut g, pairs(&[]));
        assert!(out.is_empty());
        assert_eq!(stats.records_in, 0);
        assert_eq!(stats.groups_out, 0);
    }

    #[test]
    fn segment_count_threshold_spills_despite_ample_memory() {
        // §III-B.4: "even if there is ample memory […] the multi-pass
        // merge still causes I/O".
        let (mut g, store) = grouper(1 << 20);
        let mut sink = crate::VecSink::default();
        let recs = records(SortMergeGrouper::INMEM_MERGE_THRESHOLD as u32, 5);
        let (last, rest) = recs.split_last().unwrap();
        let mut push = |g: &mut SortMergeGrouper, r| {
            let seg = SegmentBuf::from_pairs(pairs(std::slice::from_ref(r)));
            g.push_batch(&seg, &mut sink).unwrap();
        };
        for r in rest {
            push(&mut g, r);
        }
        assert_eq!(store.stats().bytes_written, 0, "one short of the threshold");
        push(&mut g, last);
        assert!(
            store.stats().bytes_written > 0,
            "the threshold forces a run"
        );
        let stats = g.finish(&mut sink).unwrap();
        assert!(stats.spills >= 1);
        assert_eq!(stats.groups_out, 5);
    }

    #[test]
    fn dropping_mid_stream_returns_the_reservation() {
        let budget = MemoryBudget::new(1 << 20);
        let store = SharedMemStore::new();
        let mut g =
            SortMergeGrouper::new(Arc::new(store), budget.clone(), 4, Arc::new(CountAgg)).unwrap();
        let recs = records(100, 10);
        g.push_batch(
            &SegmentBuf::from_pairs(pairs(&recs)),
            &mut crate::VecSink::default(),
        )
        .unwrap();
        assert!(budget.used() > 0);
        drop(g); // a failed reduce attempt abandons its operator like this
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn budget_is_released_after_finish() {
        let budget = MemoryBudget::new(1 << 20);
        let store = SharedMemStore::new();
        let mut g =
            SortMergeGrouper::new(Arc::new(store), budget.clone(), 4, Arc::new(CountAgg)).unwrap();
        let recs = records(100, 10);
        let _ = run_op(&mut g, pairs(&recs));
        assert_eq!(budget.used(), 0, "all reserved memory must be returned");
    }
}
