//! External multi-pass merge — the reduce-side half of Hadoop's sort-merge.
//!
//! §II-A: "As the reducer's buffer fills up, these sorted pieces of data
//! are merged and written to a file on disk. A background thread merges
//! these on-disk files progressively whenever the number of such files
//! exceeds a threshold F. […] it completes by merging these on-disk files
//! and feeding sorted data directly into the reduce function."
//!
//! [`MultiPassMerger`] reproduces exactly that policy: sorted runs are
//! registered as they are produced; whenever the on-disk run count reaches
//! the merge factor `F`, the `F` smallest runs are merged into one (each
//! such pass re-reads and re-writes every byte it touches — the I/O
//! amplification the paper measures as 370 GB for sessionization); the
//! final merge streams groups straight to the consumer without writing.
//!
//! Every sorted path merges through one k-way merge, `KMerge`: the
//! intermediate passes here, the final grouped merge, and the sort-merge
//! reducer's in-memory merges of its buffered segments.

use std::cmp::Ordering;
use std::sync::Arc;

use onepass_core::bytes_kv::{cmp_prefixed, key_prefix, SegmentBufBuilder};
use onepass_core::error::{Error, Result};
use onepass_core::io::{encoded_len, RunMeta, RunReader, SpillStore};
use onepass_core::metrics::{Phase, Profile, Stamp};
use onepass_core::trace::LocalTracer;
use onepass_core::SegmentBuf;

/// Bytes of arena data pulled from each run per [`RunReader::read_batch`]
/// call, and written per batch by a merge pass. One allocation per batch
/// replaces two allocations per record in the merge inner loop.
const MERGE_BATCH_BYTES: usize = 256 * 1024;

/// Policy + bookkeeping for multi-pass merging of sorted runs.
pub struct MultiPassMerger {
    store: Arc<dyn SpillStore>,
    factor: usize,
    runs: Vec<RunMeta>,
    profile: Profile,
    trace: LocalTracer,
    merge_passes: u64,
}

impl std::fmt::Debug for MultiPassMerger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiPassMerger")
            .field("factor", &self.factor)
            .field("runs", &self.runs.len())
            .field("merge_passes", &self.merge_passes)
            .finish()
    }
}

impl MultiPassMerger {
    /// Create a merger over `store` with merge factor `factor` (≥ 2).
    pub fn new(store: Arc<dyn SpillStore>, factor: usize) -> Result<Self> {
        if factor < 2 {
            return Err(Error::Config(format!(
                "merge factor must be ≥ 2, got {factor}"
            )));
        }
        Ok(MultiPassMerger {
            store,
            factor,
            runs: Vec::new(),
            profile: Profile::new(),
            trace: LocalTracer::disabled(),
            merge_passes: 0,
        })
    }

    /// Attach a trace buffer; merge-pass spans land on its track.
    pub fn set_tracer(&mut self, trace: LocalTracer) {
        self.trace = trace;
    }

    /// Register a sorted run. If the on-disk run count reaches `F`, a
    /// background-style merge pass combines the `F` smallest runs into one
    /// — matching Hadoop's progressive merging *before* all input arrives.
    pub fn add_run(&mut self, meta: RunMeta) -> Result<()> {
        self.runs.push(meta);
        while self.runs.len() >= self.factor {
            self.merge_pass(self.factor)?;
        }
        Ok(())
    }

    /// Runs currently on disk.
    pub fn runs(&self) -> &[RunMeta] {
        &self.runs
    }

    /// Completed intermediate merge passes.
    pub fn merge_passes(&self) -> u64 {
        self.merge_passes
    }

    /// Accumulated merge CPU profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Merge the `width` smallest runs into one new on-disk run.
    fn merge_pass(&mut self, width: usize) -> Result<()> {
        let width = width.min(self.runs.len());
        if width < 2 {
            return Ok(());
        }
        // Merge the smallest runs first (Hadoop's io.sort.factor policy):
        // sort descending and take from the tail so removal is O(1).
        self.runs.sort_by_key(|r| std::cmp::Reverse(r.bytes));
        let victims: Vec<RunMeta> = self.runs.split_off(self.runs.len() - width);

        let t = Stamp::start(Phase::Merge);
        let mut writer = self.store.begin_run()?;
        {
            let mut merge = KMerge::over_runs(self.store.as_ref(), &victims, MERGE_BATCH_BYTES)?;
            let (mut out, mut framed) = (SegmentBufBuilder::framed(MERGE_BATCH_BYTES), 0);
            while let Some((key, value)) = merge.head() {
                out.push(key, value);
                framed += encoded_len(key, value);
                if framed >= MERGE_BATCH_BYTES as u64 {
                    let full =
                        std::mem::replace(&mut out, SegmentBufBuilder::framed(MERGE_BATCH_BYTES));
                    writer.write_segment(&full.finish())?;
                    framed = 0;
                }
                merge.advance()?;
            }
            writer.write_segment(&out.finish())?;
        }
        let merged = writer.finish()?;
        for v in &victims {
            self.store.delete_run(v.id)?;
        }
        t.stop(&mut self.profile, &mut self.trace);
        self.trace
            .instant("merge_pass", "spill", &[("runs", width as f64)]);
        self.merge_passes += 1;
        self.runs.push(merged);
        Ok(())
    }

    /// Final merge: ensure at most `F` runs remain on disk (merging in
    /// passes if needed — §II-A: "it will perform a multi-pass merge if
    /// the on-disk files exceed F"), then return a streaming grouped
    /// iterator over the single logical sorted sequence.
    pub fn into_grouped(mut self) -> Result<GroupedMerge> {
        self.drain_grouped()
    }

    /// [`MultiPassMerger::into_grouped`] for an owner that cannot give the
    /// merger up by value: the runs move into the returned iterator and
    /// the merger is left empty.
    pub fn drain_grouped(&mut self) -> Result<GroupedMerge> {
        while self.runs.len() > self.factor {
            self.merge_pass(self.factor)?;
        }
        let merge = KMerge::over_runs(self.store.as_ref(), &self.runs, MERGE_BATCH_BYTES)?;
        Ok(GroupedMerge {
            merge,
            store: Arc::clone(&self.store),
            runs: std::mem::take(&mut self.runs),
            profile: std::mem::take(&mut self.profile),
            merge_passes: self.merge_passes,
        })
    }
}

/// A `(key, values)` group produced by the final merge.
pub type Group = (Vec<u8>, Vec<Vec<u8>>);

/// One source of a [`KMerge`]: the batch its head record sits in, and the
/// reader its next batches come from, `batch_bytes` at a time (none for
/// an in-memory segment).
struct Cursor {
    batch: SegmentBuf,
    pos: usize,
    reader: Option<(Box<dyn RunReader>, usize)>,
}

impl Cursor {
    fn key(&self) -> &[u8] {
        self.batch.key(self.pos)
    }

    /// Seat the head on `pos`, pulling batches until one holds it: the
    /// head key's `key_prefix`, or none once the source is exhausted.
    fn settle(&mut self) -> Result<Option<u128>> {
        while self.pos == self.batch.len() {
            let Some((reader, batch_bytes)) = &mut self.reader else {
                return Ok(None);
            };
            match reader.read_batch(*batch_bytes)? {
                Some(batch) => (self.batch, self.pos) = (batch, 0),
                None => {
                    self.reader = None;
                    return Ok(None);
                }
            }
        }
        Ok(Some(key_prefix(self.key())))
    }
}

/// Bits of a [`KMerge`] heap entry below the head's key prefix: the
/// source index.
const SOURCE_BITS: u32 = 60;

fn source(entry: u128) -> usize {
    (entry & ((1 << SOURCE_BITS) - 1)) as usize
}

/// The one k-way merge: key-sorted sources served in `(key, source,
/// position)` order, one record at a time, each borrowed in place from
/// its source's batch.
///
/// A binary min-heap orders the sources' heads, each entry one integer —
/// the head key's `key_prefix` above the source index — so a comparison
/// reads the keys only when two long keys share their first eight bytes.
/// The root is the head being served and `runner_up` the smaller of its
/// children. After the root's record is consumed, its source keeps the
/// root for as long as its next head still orders before the runner-up —
/// one comparison a record — and the heap is re-sifted only when it does
/// not. A run of one key in one source (a hot user in a sorted segment)
/// costs heap work once, not once per record.
pub(crate) struct KMerge {
    cursors: Vec<Cursor>,
    heap: Vec<u128>,
    runner_up: Option<u128>,
}

impl KMerge {
    /// A merge over in-memory key-sorted segments.
    pub(crate) fn over_segments(segs: &[SegmentBuf]) -> Result<Self> {
        Self::new(segs.iter().map(|seg| Cursor {
            batch: seg.clone(),
            pos: 0,
            reader: None,
        }))
    }

    /// A merge over sorted runs, each read `batch_bytes` at a time.
    pub(crate) fn over_runs(
        store: &dyn SpillStore,
        runs: &[RunMeta],
        batch_bytes: usize,
    ) -> Result<Self> {
        let mut cursors = Vec::with_capacity(runs.len());
        for run in runs {
            cursors.push(Cursor {
                batch: SegmentBuf::default(),
                pos: 0,
                reader: Some((store.open_run(run.id)?, batch_bytes)),
            });
        }
        Self::new(cursors)
    }

    fn new(cursors: impl IntoIterator<Item = Cursor>) -> Result<Self> {
        let mut cursors: Vec<Cursor> = cursors.into_iter().collect();
        let mut heap = Vec::with_capacity(cursors.len());
        for (s, cursor) in cursors.iter_mut().enumerate() {
            if let Some(prefix) = cursor.settle()? {
                heap.push(prefix << SOURCE_BITS | s as u128);
            }
        }
        let mut merge = KMerge {
            cursors,
            heap,
            runner_up: None,
        };
        for slot in (0..merge.heap.len() / 2).rev() {
            merge.sift_down(slot);
        }
        merge.seat_runner_up();
        Ok(merge)
    }

    /// Whether heap entry `a`'s head orders before `b`'s.
    #[inline]
    fn before(&self, a: u128, b: u128) -> bool {
        let rest = || {
            let (x, y) = (&self.cursors[source(a)], &self.cursors[source(b)]);
            x.key()[8..].cmp(&y.key()[8..])
        };
        cmp_prefixed(a >> SOURCE_BITS, b >> SOURCE_BITS, rest).then(a.cmp(&b)) == Ordering::Less
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let left = 2 * slot + 1;
            let Some(&l) = self.heap.get(left) else {
                return;
            };
            let (child, entry) = match self.heap.get(left + 1) {
                Some(&r) if self.before(r, l) => (left + 1, r),
                _ => (left, l),
            };
            if !self.before(entry, self.heap[slot]) {
                return;
            }
            self.heap.swap(slot, child);
            slot = child;
        }
    }

    fn seat_runner_up(&mut self) {
        self.runner_up = match self.heap.get(1..3) {
            Some(&[l, r]) => Some(if self.before(r, l) { r } else { l }),
            _ => self.heap.get(1).copied(),
        };
    }

    /// The smallest unconsumed record, borrowed from its batch.
    #[inline]
    pub(crate) fn head(&self) -> Option<(&[u8], &[u8])> {
        let c = &self.cursors[source(*self.heap.first()?)];
        Some(c.batch.get(c.pos))
    }

    /// Consume the head record.
    pub(crate) fn advance(&mut self) -> Result<()> {
        let Some(&top) = self.heap.first() else {
            return Ok(());
        };
        let s = source(top);
        let cursor = &mut self.cursors[s];
        cursor.pos += 1;
        match cursor.settle()? {
            Some(prefix) => {
                let next = prefix << SOURCE_BITS | s as u128;
                self.heap[0] = next;
                if !self.runner_up.is_some_and(|r| self.before(r, next)) {
                    return Ok(());
                }
            }
            None => {
                let last = self.heap.pop().unwrap_or(top);
                if let Some(root) = self.heap.first_mut() {
                    *root = last;
                }
            }
        }
        self.sift_down(0);
        self.seat_runner_up();
        Ok(())
    }

    /// Fold the next group: copy its key into `key`, then call `f(key,
    /// value, first)` for each of its values in merge order, `first` on
    /// the first. False once the merge is exhausted.
    pub(crate) fn next_group_with(
        &mut self,
        key: &mut Vec<u8>,
        mut f: impl FnMut(&[u8], &[u8], bool),
    ) -> Result<bool> {
        let Some(&top) = self.heap.first() else {
            return Ok(false);
        };
        let prefix = top >> SOURCE_BITS;
        let c = &self.cursors[source(top)];
        key.clear();
        key.extend_from_slice(c.key());
        f(key, c.batch.value(c.pos), true);
        self.advance()?;
        while let Some(&top) = self.heap.first() {
            let c = &self.cursors[source(top)];
            let rest = || c.key()[8..].cmp(&key[8..]);
            if cmp_prefixed(top >> SOURCE_BITS, prefix, rest) != Ordering::Equal {
                break;
            }
            f(key, c.batch.value(c.pos), false);
            self.advance()?;
        }
        Ok(true)
    }
}

/// Iterator over `(key, values)` groups produced by the final merge.
pub struct GroupedMerge {
    merge: KMerge,
    store: Arc<dyn SpillStore>,
    runs: Vec<RunMeta>,
    profile: Profile,
    merge_passes: u64,
}

impl GroupedMerge {
    /// Fold the next group straight from the batch arenas: its key is
    /// copied into `key`, then `f(key, value, first)` sees each of its
    /// values in merge order, `first` on the first. Returns false after
    /// the last group. Nothing is allocated per value.
    pub fn next_group_with(
        &mut self,
        key: &mut Vec<u8>,
        f: impl FnMut(&[u8], &[u8], bool),
    ) -> Result<bool> {
        self.merge.next_group_with(key, f)
    }

    /// Next group: the key plus all of its values, in merge order,
    /// copied out of the batch arenas. Returns `None` after the last
    /// group.
    pub fn next_group(&mut self) -> Result<Option<Group>> {
        let (mut key, mut values) = (Vec::new(), Vec::new());
        let found = self.next_group_with(&mut key, |_, value, _| values.push(value.to_vec()))?;
        Ok(found.then_some((key, values)))
    }

    /// Intermediate merge passes that were performed.
    pub fn merge_passes(&self) -> u64 {
        self.merge_passes
    }

    /// Merge CPU profile accumulated so far.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Delete the input runs (call after consuming all groups).
    pub fn cleanup(&mut self) -> Result<()> {
        for r in self.runs.drain(..) {
            self.store.delete_run(r.id)?;
        }
        Ok(())
    }
}

impl Drop for GroupedMerge {
    fn drop(&mut self) {
        let _ = self.cleanup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_core::io::SharedMemStore;

    /// Write `pairs` (must be pre-sorted by key) as one run.
    fn write_run(store: &SharedMemStore, pairs: &[(&[u8], &[u8])]) -> RunMeta {
        let mut w = store.begin_run().unwrap();
        for (k, v) in pairs {
            w.write_record(k, v).unwrap();
        }
        w.finish().unwrap()
    }

    fn collect_groups(mut g: GroupedMerge) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
        let mut out = Vec::new();
        while let Some(grp) = g.next_group().unwrap() {
            out.push(grp);
        }
        out
    }

    #[test]
    fn merges_two_runs_into_sorted_groups() {
        let store = SharedMemStore::new();
        let mut m = MultiPassMerger::new(Arc::new(store.clone()), 10).unwrap();
        m.add_run(write_run(&store, &[(b"a", b"1"), (b"c", b"2")]))
            .unwrap();
        m.add_run(write_run(&store, &[(b"a", b"3"), (b"b", b"4")]))
            .unwrap();
        let groups = collect_groups(m.into_grouped().unwrap());
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, b"a".to_vec());
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].0, b"b".to_vec());
        assert_eq!(groups[2].0, b"c".to_vec());
    }

    #[test]
    fn background_merge_triggers_at_factor() {
        let store = SharedMemStore::new();
        let mut m = MultiPassMerger::new(Arc::new(store.clone()), 3).unwrap();
        for i in 0..3u8 {
            m.add_run(write_run(&store, &[(&[i], b"v")])).unwrap();
        }
        // Three runs hit F=3: they merge into one.
        assert_eq!(m.runs().len(), 1);
        assert_eq!(m.merge_passes(), 1);
        // The merged run plus two more triggers another pass.
        for i in 10..12u8 {
            m.add_run(write_run(&store, &[(&[i], b"v")])).unwrap();
        }
        assert_eq!(m.runs().len(), 1);
        assert_eq!(m.merge_passes(), 2);
    }

    #[test]
    fn merge_io_amplification_is_accounted() {
        let store = SharedMemStore::new();
        let mut m = MultiPassMerger::new(Arc::new(store.clone()), 2).unwrap();
        let r1 = write_run(&store, &[(b"a", b"xx")]);
        let r2 = write_run(&store, &[(b"b", b"yy")]);
        let base = store.stats();
        m.add_run(r1).unwrap();
        m.add_run(r2).unwrap(); // F=2 -> immediate merge pass
        let st = store.stats();
        // The pass re-read both runs and re-wrote their contents.
        assert_eq!(st.bytes_read - base.bytes_read, r1.bytes + r2.bytes);
        assert_eq!(st.bytes_written - base.bytes_written, r1.bytes + r2.bytes);
    }

    #[test]
    fn final_merge_reduces_to_factor_first() {
        let store = SharedMemStore::new();
        // factor 4: adding 3 runs does not trigger background merges...
        let mut m = MultiPassMerger::new(Arc::new(store.clone()), 4).unwrap();
        for i in 0..3u8 {
            m.add_run(write_run(&store, &[(&[i], b"v")])).unwrap();
        }
        assert_eq!(m.runs().len(), 3);
        assert_eq!(m.merge_passes(), 0);
        // ...and the final merge streams them without an extra pass.
        let g = m.into_grouped().unwrap();
        assert_eq!(g.merge_passes(), 0);
        assert_eq!(collect_groups(g).len(), 3);
    }

    #[test]
    fn empty_merger_yields_no_groups() {
        let store = SharedMemStore::new();
        let m = MultiPassMerger::new(Arc::new(store.clone()), 5).unwrap();
        let groups = collect_groups(m.into_grouped().unwrap());
        assert!(groups.is_empty());
    }

    #[test]
    fn cleanup_deletes_input_runs() {
        let store = SharedMemStore::new();
        let mut m = MultiPassMerger::new(Arc::new(store.clone()), 10).unwrap();
        m.add_run(write_run(&store, &[(b"k", b"v")])).unwrap();
        {
            let g = m.into_grouped().unwrap();
            drop(g); // Drop impl cleans up
        }
        assert_eq!(store.live_runs(), 0);
    }

    #[test]
    fn factor_below_two_is_rejected() {
        let store: Arc<dyn SpillStore> = Arc::new(SharedMemStore::new());
        assert!(MultiPassMerger::new(store, 1).is_err());
    }

    /// Keys the merge properties draw from: equal short keys, prefixes of
    /// one another, and long keys sharing their first eight bytes.
    const POOL: [&[u8]; 9] = [
        b"",
        b"\0",
        b"a",
        b"a\0",
        b"ab",
        b"shared08",
        b"shared08\0",
        b"shared08a",
        b"shared08a\xff",
    ];

    /// Sources of pool indices: each sorted into a source of `(key,
    /// [source, position])` records.
    fn sources() -> impl proptest::strategy::Strategy<Value = Vec<Vec<usize>>> {
        use proptest::prelude::*;
        prop::collection::vec(prop::collection::vec(0..POOL.len(), 0..40), 0..6)
    }

    fn sorted_sources(picks: &[Vec<usize>]) -> Vec<SegmentBuf> {
        picks
            .iter()
            .enumerate()
            .map(|(s, picks)| {
                let mut keys: Vec<&[u8]> = picks.iter().map(|&i| POOL[i]).collect();
                keys.sort();
                let values: Vec<[u8; 2]> = (0..keys.len()).map(|i| [s as u8, i as u8]).collect();
                SegmentBuf::from_pairs(keys.into_iter().zip(values.iter().map(|v| &v[..])))
            })
            .collect()
    }

    /// Every record of `segs`, sorted by `(key, source, position)`.
    fn reference(segs: &[SegmentBuf]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all: Vec<_> = segs
            .iter()
            .enumerate()
            .flat_map(|(s, seg)| seg.iter().enumerate().map(move |(i, (k, v))| (k, s, i, v)))
            .collect();
        all.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));
        all.into_iter()
            .map(|(k, _, _, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }

    fn drain(mut merge: KMerge) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some((k, v)) = merge.head() {
            out.push((k.to_vec(), v.to_vec()));
            merge.advance().unwrap();
        }
        out
    }

    fn fold_groups(mut merge: KMerge) -> Vec<(Vec<u8>, Vec<u8>)> {
        let (mut key, mut out) = (Vec::new(), Vec::new());
        let mut values = Vec::new();
        while merge
            .next_group_with(&mut key, |k, v, first| {
                assert_eq!(first, values.is_empty());
                values.push((k.to_vec(), v.to_vec()));
            })
            .unwrap()
        {
            assert!(values.iter().all(|(k, _)| *k == key));
            out.append(&mut values);
        }
        out
    }

    fn write_runs(store: &dyn SpillStore, segs: &[SegmentBuf]) -> Vec<RunMeta> {
        segs.iter()
            .map(|seg| {
                let mut w = store.begin_run().unwrap();
                w.write_segment(seg).unwrap();
                w.finish().unwrap()
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn the_merge_serves_records_by_key_source_and_position(
            picks in sources(),
            batch_bytes in 1usize..200,
        ) {
            let segs = sorted_sources(&picks);
            let want = reference(&segs);
            proptest::prop_assert_eq!(&drain(KMerge::over_segments(&segs).unwrap()), &want);
            proptest::prop_assert_eq!(&fold_groups(KMerge::over_segments(&segs).unwrap()), &want);
            let file = onepass_core::io::FileSpillStore::temp().unwrap();
            let stores: [&dyn SpillStore; 2] = [&SharedMemStore::new(), &file];
            for store in stores {
                let runs = write_runs(store, &segs);
                let merge = KMerge::over_runs(store, &runs, batch_bytes).unwrap();
                proptest::prop_assert_eq!(&drain(merge), &want);
                let merge = KMerge::over_runs(store, &runs, batch_bytes).unwrap();
                proptest::prop_assert_eq!(&fold_groups(merge), &want);
            }
        }
    }

    #[test]
    fn a_key_run_spanning_batches_and_sources_stays_in_order() {
        // Three sources of one hot key, batches of a record or two: the
        // run crosses batch boundaries in every source.
        let segs = sorted_sources(&[vec![5; 30], vec![5; 7], vec![], vec![5, 6, 6, 0]]);
        let file = onepass_core::io::FileSpillStore::temp().unwrap();
        let runs = write_runs(&file, &segs);
        let merge = KMerge::over_runs(&file, &runs, 20).unwrap();
        assert_eq!(drain(merge), reference(&segs));
    }

    #[test]
    fn duplicate_keys_across_many_runs_group_once() {
        let store = SharedMemStore::new();
        let mut m = MultiPassMerger::new(Arc::new(store.clone()), 3).unwrap();
        for i in 0..7u32 {
            let v = i.to_le_bytes();
            m.add_run(write_run(&store, &[(b"dup", &v), (b"z", &v)]))
                .unwrap();
        }
        let groups = collect_groups(m.into_grouped().unwrap());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, b"dup".to_vec());
        assert_eq!(groups[0].1.len(), 7);
        assert_eq!(groups[1].1.len(), 7);
    }
}
