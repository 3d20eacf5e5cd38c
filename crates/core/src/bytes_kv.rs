//! Byte-array based key/value record storage.
//!
//! The paper's prototype "implements its key data structures in byte arrays
//! in the memory management library" to avoid the overhead of creating a
//! large number of per-record objects (§V). The Rust analogue of that
//! concern is per-record heap allocation: a naive
//! `Vec<(Vec<u8>, Vec<u8>)>` performs two allocations per record and
//! scatters records across the heap, destroying cache locality for the
//! sort/scan-heavy MapReduce inner loops.
//!
//! [`KvBuf`] instead stores all key and value bytes in one contiguous arena
//! with a parallel entry table `(partition, key_off, key_len, val_len)`.
//! Sorting permutes only the 16-byte entries, never the payload — exactly
//! what Hadoop's map-side buffer does with its kvindices array.
//!
//! Every sorted path runs one key sort (`sort_entries`): each entry gets a
//! packed 128-bit key — partition, [`key_prefix`], entry index — the
//! packed keys are sorted as integers and the entry table is permuted once
//! to match. The order is exactly `(partition, <[u8]>::cmp, arrival)`.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::hashlib::fingerprint;
use crate::io::{record_header, record_lens};

/// One logical record inside a [`KvBuf`]: which reducer partition it
/// belongs to plus the location of its key/value bytes in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Reducer partition assigned by the partitioner.
    pub partition: u32,
    /// Byte offset of the key within the arena; the value follows the key.
    pub key_off: u32,
    /// Key length in bytes.
    pub key_len: u32,
    /// Value length in bytes.
    pub val_len: u32,
}

/// An append-only arena of `(partition, key, value)` records.
///
/// Typical lifecycle: a mapper `push`es records until
/// [`KvBuf::arena_bytes`] exceeds its budget, then sorts (sort-merge path)
/// or partitions (hash path) and drains the buffer.
#[derive(Debug, Default, Clone)]
pub struct KvBuf {
    arena: Vec<u8>,
    entries: Vec<Entry>,
}

impl KvBuf {
    /// Create an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty buffer with arena capacity pre-reserved.
    pub fn with_capacity(arena_bytes: usize, records: usize) -> Self {
        KvBuf {
            arena: Vec::with_capacity(arena_bytes),
            entries: Vec::with_capacity(records),
        }
    }

    /// Append one record.
    pub fn push(&mut self, partition: u32, key: &[u8], value: &[u8]) {
        let key_off = self.arena.len() as u32;
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value);
        self.entries.push(Entry {
            partition,
            key_off,
            key_len: key.len() as u32,
            val_len: value.len() as u32,
        });
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total payload bytes currently in the arena.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Approximate total heap footprint (arena + entry table), used for
    /// memory budgeting.
    pub fn mem_bytes(&self) -> usize {
        self.arena.capacity() + self.entries.capacity() * std::mem::size_of::<Entry>()
    }

    /// Key bytes of the `i`-th record (in current entry order).
    #[inline]
    pub fn key(&self, i: usize) -> &[u8] {
        let e = self.entries[i];
        &self.arena[e.key_off as usize..(e.key_off + e.key_len) as usize]
    }

    /// Value bytes of the `i`-th record (in current entry order).
    #[inline]
    pub fn value(&self, i: usize) -> &[u8] {
        let e = self.entries[i];
        let start = (e.key_off + e.key_len) as usize;
        &self.arena[start..start + e.val_len as usize]
    }

    /// Partition of the `i`-th record (in current entry order).
    #[inline]
    pub fn partition(&self, i: usize) -> u32 {
        self.entries[i].partition
    }

    /// Iterate `(partition, key, value)` in current entry order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u8], &[u8])> + '_ {
        (0..self.len()).map(move |i| (self.partition(i), self.key(i), self.value(i)))
    }

    /// Sort entries by the compound `(partition, key)` — Hadoop's map-side
    /// block sort (§II-A: "a block-level sort on the compound (partition,
    /// key) to achieve both partitioning and sorting in each partition").
    /// Equal `(partition, key)` entries keep their arrival order.
    ///
    /// Only the entry table is permuted; payload bytes never move.
    pub fn sort_by_partition_key(&mut self) {
        self.entries = if self.entries.len() <= 1 << PARTITIONED_INDEX_BITS {
            sort_entries(&self.arena, &self.entries, true)
        } else {
            self.sorted_per_partition()
        };
    }

    /// [`KvBuf::sort_by_partition_key`] for a buffer with more entries
    /// than a packed key beside a partition can index: cluster by
    /// partition (stably), then key-sort each partition on its own.
    fn sorted_per_partition(&mut self) -> Vec<Entry> {
        self.entries.sort_by_key(|e| e.partition);
        let mut sorted = Vec::with_capacity(self.entries.len());
        for part in self.entries.chunk_by(|a, b| a.partition == b.partition) {
            sorted.extend(sort_entries(&self.arena, part, false));
        }
        sorted
    }

    /// Stable counting "sort" on partition only — the hash path's
    /// replacement for the compound sort ("the map output is scanned once
    /// for partitioning, and no effort is spent for grouping", §V). O(n).
    pub fn group_by_partition(&mut self, partitions: usize) {
        if self.entries.is_empty() {
            return;
        }
        let mut counts = vec![0usize; partitions];
        for e in &self.entries {
            counts[e.partition as usize] += 1;
        }
        let mut starts = vec![0usize; partitions];
        let mut acc = 0;
        for (s, c) in starts.iter_mut().zip(&counts) {
            *s = acc;
            acc += c;
        }
        let mut out = vec![
            Entry {
                partition: 0,
                key_off: 0,
                key_len: 0,
                val_len: 0
            };
            self.entries.len()
        ];
        for e in &self.entries {
            let slot = &mut starts[e.partition as usize];
            out[*slot] = *e;
            *slot += 1;
        }
        self.entries = out;
    }

    /// Ranges of entry indices per partition, assuming entries are already
    /// ordered by partition (after either sort above).
    pub fn partition_ranges(&self, partitions: usize) -> Vec<std::ops::Range<usize>> {
        let mut ranges = Vec::with_capacity(partitions);
        let mut start = 0usize;
        for p in 0..partitions as u32 {
            let mut end = start;
            while end < self.entries.len() && self.entries[end].partition == p {
                end += 1;
            }
            ranges.push(start..end);
            start = end;
        }
        debug_assert_eq!(start, self.entries.len(), "entries not partition-ordered");
        ranges
    }

    /// Remove all records, retaining capacity.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.entries.clear();
    }

    /// Drain the buffer into one immutable [`SegmentBuf`] per partition
    /// **without re-allocating payload bytes**: the arena is moved into an
    /// `Arc` shared by every returned segment, and only the (12-byte)
    /// entry tables are scattered per partition. Entries keep their
    /// current order within each partition, so a buffer sorted with
    /// [`KvBuf::sort_by_partition_key`] yields key-sorted segments and an
    /// unsorted buffer yields arrival-ordered segments — no
    /// partition-clustering pass is needed either way.
    ///
    /// The buffer is left empty (its arena ownership has been given away).
    pub fn freeze_into_segments(&mut self, partitions: usize) -> Vec<SegmentBuf> {
        let arena = Arc::new(std::mem::take(&mut self.arena));
        let entries = std::mem::take(&mut self.entries);
        let mut counts = vec![0usize; partitions];
        for e in &entries {
            counts[e.partition as usize] += 1;
        }
        let mut per: Vec<Vec<SegEntry>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for e in entries {
            per[e.partition as usize].push(SegEntry {
                key_off: e.key_off,
                key_len: e.key_len,
                val_len: e.val_len,
            });
        }
        per.into_iter()
            .map(|es| SegmentBuf::from_parts(Arc::clone(&arena), es))
            .collect()
    }

    /// A 64-bit content fingerprint, invariant under record order. Used by
    /// tests to check that transformations preserve the multiset of
    /// records.
    pub fn unordered_fingerprint(&self) -> u64 {
        let mut acc = 0u64;
        for i in 0..self.len() {
            let mut h = fingerprint(self.key(i));
            h = h.rotate_left(17) ^ fingerprint(self.value(i));
            h ^= (self.partition(i) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            acc = acc.wrapping_add(crate::hashlib::mix64(h));
        }
        acc
    }
}

/// Location of one record inside a [`SegmentBuf`] arena. The value bytes
/// immediately follow the key bytes, so one entry is 12 bytes and a record
/// access is two slice operations on the shared arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegEntry {
    /// Byte offset of the key within the arena.
    pub key_off: u32,
    /// Key length in bytes.
    pub key_len: u32,
    /// Value length in bytes.
    pub val_len: u32,
}

/// An immutable batch of `(key, value)` records backed by one contiguous,
/// `Arc`-shared byte arena.
///
/// This is the flat-buffer record representation that flows across the
/// whole engine: map flushes freeze a [`KvBuf`] into per-partition
/// `SegmentBuf`s ([`KvBuf::freeze_into_segments`]), the shuffle moves one
/// arena per partition instead of N boxed pairs, reducers retain segments
/// for retry replay with two atomic increments instead of a deep copy, and
/// spill readers hand back whole runs as zero-copy segments
/// ([`SegmentBuf::from_framed`]). `clone()` bumps two `Arc`s; payload
/// bytes are never re-allocated.
#[derive(Debug, Clone, Default)]
pub struct SegmentBuf {
    arena: Arc<Vec<u8>>,
    /// The entry table; a segment read from framed bytes builds it in the
    /// walk that validates them.
    entries: Arc<Vec<SegEntry>>,
    payload: usize,
    /// `Some(start)` when `arena[start..]` is exactly this segment's
    /// framed encoding, records in entry order: set by
    /// [`SegmentBuf::from_framed`] and [`SegmentBufBuilder::framed`]
    /// alone, so [`SegmentBuf::append_framed`] can copy those bytes
    /// instead of re-framing each record.
    framed_from: Option<u32>,
}

impl SegmentBuf {
    fn from_parts(arena: Arc<Vec<u8>>, entries: Vec<SegEntry>) -> Self {
        let payload = entries
            .iter()
            .map(|e| (e.key_len + e.val_len) as usize)
            .sum();
        SegmentBuf {
            arena,
            entries: Arc::new(entries),
            payload,
            framed_from: None,
        }
    }

    /// Build a segment by copying borrowed pairs into a fresh arena.
    /// Convenience for tests and small batches; hot paths should use
    /// [`SegmentBufBuilder`] or [`KvBuf::freeze_into_segments`].
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a [u8], &'a [u8])>) -> Self {
        let mut b = SegmentBufBuilder::new();
        for (k, v) in pairs {
            b.push(k, v);
        }
        b.finish()
    }

    /// Interpret length-prefixed record frames — the spill-run wire format
    /// `[u32 klen][u32 vlen][key][value]`, little-endian — starting at
    /// byte `start` of `data`, **sharing `data` as the arena**. Entries
    /// point directly into the framed bytes (payload offsets skip each
    /// 8-byte header), so no payload is copied. `data` is foreign bytes (a
    /// spill run, a wire frame): a `start` past its end, or a header whose
    /// lengths overrun it, is `Error::Corrupt`.
    pub fn from_framed(data: Arc<Vec<u8>>, start: usize) -> Result<Self> {
        let n = data.len();
        // Entries (and `framed_from`) hold `u32` offsets into the arena.
        if start > n || u32::try_from(n).is_err() {
            return Err(Error::Corrupt(format!(
                "framed records at {start} of a {n}-byte buffer"
            )));
        }
        let mut entries = Vec::new();
        let mut pos = start;
        while pos < n {
            let Some((header, rest)) = data[pos..].split_first_chunk::<8>() else {
                return Err(Error::Corrupt("truncated record header".into()));
            };
            let (klen, vlen) = record_lens(header);
            let body = pos + 8;
            if rest.len() < klen + vlen {
                return Err(Error::Corrupt("truncated record payload".into()));
            }
            entries.push(SegEntry {
                key_off: body as u32,
                key_len: klen as u32,
                val_len: vlen as u32,
            });
            pos = body + klen + vlen;
        }
        let mut seg = SegmentBuf::from_parts(data, entries);
        seg.framed_from = Some(start as u32);
        Ok(seg)
    }

    /// Bytes [`SegmentBuf::append_framed`] appends: an 8-byte header per
    /// record plus the payload.
    pub fn framed_len(&self) -> usize {
        self.payload + 8 * self.len()
    }

    /// This segment's framed encoding where the arena already holds it:
    /// the bytes [`SegmentBuf::from_framed`] read the segment from.
    pub fn framed_bytes(&self) -> Option<&[u8]> {
        self.framed_from.map(|start| &self.arena[start as usize..])
    }

    /// Append this segment's framed encoding (what
    /// [`SegmentBuf::from_framed`] reads back) to `out`. A segment that
    /// was itself read from framed bytes appends them as they are — a
    /// forwarded or replayed wire segment is never re-framed; any other
    /// frames its records one by one.
    pub fn append_framed(&self, out: &mut Vec<u8>) {
        if let Some(framed) = self.framed_bytes() {
            out.extend_from_slice(framed);
            return;
        }
        out.reserve(self.framed_len());
        for (k, v) in self.iter() {
            out.extend_from_slice(&record_header(k, v));
            out.extend_from_slice(k);
            out.extend_from_slice(v);
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the segment carries no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total key + value bytes (headers and entry tables excluded).
    pub fn payload_bytes(&self) -> usize {
        self.payload
    }

    /// Key bytes of the `i`-th record.
    #[inline]
    pub fn key(&self, i: usize) -> &[u8] {
        let e = self.entries[i];
        &self.arena[e.key_off as usize..(e.key_off + e.key_len) as usize]
    }

    /// Value bytes of the `i`-th record.
    #[inline]
    pub fn value(&self, i: usize) -> &[u8] {
        let e = self.entries[i];
        let start = (e.key_off + e.key_len) as usize;
        &self.arena[start..start + e.val_len as usize]
    }

    /// Both slices of the `i`-th record.
    #[inline]
    pub fn get(&self, i: usize) -> (&[u8], &[u8]) {
        (self.key(i), self.value(i))
    }

    /// The `i`-th record materialized as an [`OwnedKv`].
    pub fn owned(&self, i: usize) -> OwnedKv {
        OwnedKv::new(self.key(i), self.value(i))
    }

    /// Iterate `(key, value)` slice pairs in entry order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> + '_ {
        let arena = &self.arena[..];
        self.entries.iter().map(move |e| {
            let (key, value) = (e.key_off as usize, (e.key_off + e.key_len) as usize);
            (
                &arena[key..value],
                &arena[value..value + e.val_len as usize],
            )
        })
    }

    /// A copy of this segment with entries re-ordered by key, equal keys
    /// in entry order. The arena is shared — only the 12-byte entry table
    /// is permuted into a new one, which is how reducers sort unsorted
    /// (hash-path) segments without touching payload bytes.
    pub fn sorted_by_key(&self) -> SegmentBuf {
        self.sorted_range_by_key(0..self.len())
    }

    /// [`SegmentBuf::sorted_by_key`] restricted to the records in `range`
    /// (entry order): a key-sorted sub-segment sharing this arena. Lets a
    /// memory-bounded consumer cut an oversized batch into budget-sized
    /// sort buffers without copying payload.
    pub fn sorted_range_by_key(&self, range: std::ops::Range<usize>) -> SegmentBuf {
        let entries = sort_entries(&self.arena, &self.entries[range], false);
        SegmentBuf::from_parts(Arc::clone(&self.arena), entries)
    }

    /// Order-invariant 64-bit content fingerprint over `(partition, key,
    /// value)` triples — the [`KvBuf::unordered_fingerprint`] computation
    /// with every record attributed to `partition`, so segment-level and
    /// buffer-level fingerprints can be cross-checked.
    pub fn unordered_fingerprint(&self, partition: u32) -> u64 {
        let mut acc = 0u64;
        for (k, v) in self.iter() {
            let mut h = fingerprint(k);
            h = h.rotate_left(17) ^ fingerprint(v);
            h ^= (partition as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            acc = acc.wrapping_add(crate::hashlib::mix64(h));
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// The one key order
// ---------------------------------------------------------------------------

/// A key's first eight bytes as a big-endian word, zero-padded: two keys'
/// words compare as their first eight bytes do under `<[u8]>::cmp`, a
/// missing byte below every present one. Assembled from loads that
/// overlap, as `hashlib`'s tail word is, instead of a variable-length copy
/// into a zeroed buffer.
#[inline]
fn first_word(key: &[u8]) -> u64 {
    let n = key.len();
    if let Some(head) = key.first_chunk::<8>() {
        u64::from_be_bytes(*head)
    } else if let (Some(lo), Some(hi)) = (key.first_chunk::<4>(), key.last_chunk::<4>()) {
        u64::from(u32::from_be_bytes(*lo)) << 32
            | u64::from(u32::from_be_bytes(*hi)) << (8 * (8 - n))
    } else if n > 0 {
        // 1–3 bytes: first, middle and last cover every position.
        u64::from(key[0]) << 56
            | u64::from(key[n / 2]) << (56 - 8 * (n / 2))
            | u64::from(key[n - 1]) << (56 - 8 * (n - 1))
    } else {
        0
    }
}

/// The length class of a key longer than eight bytes: two keys with the
/// same [`key_prefix`] and this class tie on their first eight bytes and
/// compare the rest.
const LONG_KEY: u128 = 9;

/// A key's place in the one key order as far as one integer holds it:
/// its first eight bytes big-endian and zero-padded, above its length
/// capped at nine (four bits). Two prefixes compare exactly as their keys
/// do under `<[u8]>::cmp`, except that two keys longer than eight bytes
/// with the same first eight tie — only those look at the rest
/// ([`cmp_prefixed`]). Equal prefixes of any other class mean equal keys.
#[inline]
pub fn key_prefix(key: &[u8]) -> u128 {
    u128::from(first_word(key)) << 4 | key.len().min(9) as u128
}

/// `<[u8]>::cmp` of two keys given their [`key_prefix`]es `pa` and `pb`:
/// `rest` — the keys' bytes past the first eight, compared — is asked
/// only when the prefixes tie on two keys longer than eight bytes.
#[inline]
pub fn cmp_prefixed(pa: u128, pb: u128, rest: impl FnOnce() -> Ordering) -> Ordering {
    match pa.cmp(&pb) {
        Ordering::Equal if pa & 0xf == LONG_KEY => rest(),
        order => order,
    }
}

/// Entry-index bits of a packed sort key that carries a partition: the
/// partition (32 bits) and the key prefix (68) leave 28.
const PARTITIONED_INDEX_BITS: u32 = 28;

/// Entry-index bits of a packed sort key without a partition.
const INDEX_BITS: u32 = 60;

/// What the one key sort reads of an entry-table row.
trait SortEntry: Copy {
    /// The partition, ordered before the key when the sort asks for it.
    fn partition(&self) -> u32;
    /// The key bytes' location in the arena.
    fn key_range(&self) -> std::ops::Range<usize>;
}

impl SortEntry for Entry {
    fn partition(&self) -> u32 {
        self.partition
    }
    fn key_range(&self) -> std::ops::Range<usize> {
        self.key_off as usize..(self.key_off + self.key_len) as usize
    }
}

impl SortEntry for SegEntry {
    fn partition(&self) -> u32 {
        0
    }
    fn key_range(&self) -> std::ops::Range<usize> {
        self.key_off as usize..(self.key_off + self.key_len) as usize
    }
}

thread_local! {
    /// The packed keys of the sort in progress, kept between sorts so a
    /// sort allocates nothing but the entry table it returns.
    static SORT_KEYS: RefCell<Vec<u128>> = const { RefCell::new(Vec::new()) };
}

/// The one key sort: `entries` reordered by `(partition, key, position)`
/// — the partition only when `by_partition` — as a new entry table.
///
/// Each entry packs into one integer: `[partition 32][key prefix 68][index
/// 28]` with a partition, `[key prefix 68][index 60]` without. The
/// integers sort unstably (they are distinct: the index is in them), runs
/// of equal prefixes on keys longer than eight bytes are re-sorted by the
/// rest of their key bytes (stably, so arrival order still breaks ties),
/// and the index bits permute the table. The caller keeps `entries` under
/// the index limit of its layout.
fn sort_entries<E: SortEntry>(arena: &[u8], entries: &[E], by_partition: bool) -> Vec<E> {
    let index_bits = if by_partition {
        PARTITIONED_INDEX_BITS
    } else {
        INDEX_BITS
    };
    debug_assert!(entries.len() as u64 <= 1 << index_bits);
    let key = |e: &E| &arena[e.key_range()];
    SORT_KEYS.with_borrow_mut(|keys| {
        keys.clear();
        let mut long = false;
        keys.extend(entries.iter().enumerate().map(|(i, e)| {
            let k = key(e);
            long |= k.len() > 8;
            let part = if by_partition {
                u128::from(e.partition()) << (128 - 32)
            } else {
                0
            };
            part | key_prefix(k) << index_bits | i as u128
        }));
        keys.sort_unstable();
        let index = |packed: u128| (packed & ((1 << index_bits) - 1)) as usize;
        if long {
            for run in keys.chunk_by_mut(|a, b| a >> index_bits == b >> index_bits) {
                if run.len() > 1 && (run[0] >> index_bits) & 0xf == LONG_KEY {
                    run.sort_by(|a, b| {
                        key(&entries[index(*a)])[8..].cmp(&key(&entries[index(*b)])[8..])
                    });
                }
            }
        }
        keys.iter().map(|&packed| entries[index(packed)]).collect()
    })
}

impl FromIterator<OwnedKv> for SegmentBuf {
    fn from_iter<I: IntoIterator<Item = OwnedKv>>(iter: I) -> Self {
        let mut b = SegmentBufBuilder::new();
        for kv in iter {
            b.push(&kv.key, &kv.value);
        }
        b.finish()
    }
}

/// Incremental builder for a [`SegmentBuf`] — used where a flush has to
/// synthesize new payload bytes (combine output, batched spill reads)
/// rather than freeze an existing [`KvBuf`] arena.
#[derive(Debug, Default)]
pub struct SegmentBufBuilder {
    arena: Vec<u8>,
    entries: Vec<SegEntry>,
    /// Each record's header precedes it in the arena
    /// ([`SegmentBufBuilder::framed`]).
    framed: bool,
}

impl SegmentBufBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder with arena capacity pre-reserved.
    pub fn with_capacity(arena_bytes: usize, records: usize) -> Self {
        SegmentBufBuilder {
            arena: Vec::with_capacity(arena_bytes),
            entries: Vec::with_capacity(records),
            framed: false,
        }
    }

    /// A builder for records headed straight to a spill run: its arena is
    /// their framed encoding, header before each record, so the segment it
    /// finishes is written ([`SegmentBuf::append_framed`]) in one copy
    /// instead of re-framed record by record.
    pub fn framed(arena_bytes: usize) -> Self {
        SegmentBufBuilder {
            framed: true,
            ..Self::with_capacity(arena_bytes, 0)
        }
    }

    /// Append one record.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        if self.framed {
            self.arena.extend_from_slice(&record_header(key, value));
        }
        let key_off = self.arena.len() as u32;
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value);
        self.entries.push(SegEntry {
            key_off,
            key_len: key.len() as u32,
            val_len: value.len() as u32,
        });
    }

    /// Records appended so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Payload bytes appended so far (headers excluded).
    pub fn payload_bytes(&self) -> usize {
        self.arena.len() - if self.framed { 8 * self.len() } else { 0 }
    }

    /// Seal into an immutable, shareable segment.
    pub fn finish(self) -> SegmentBuf {
        let framed = self.framed;
        let mut seg = SegmentBuf::from_parts(Arc::new(self.arena), self.entries);
        if framed {
            seg.framed_from = Some(0);
        }
        seg
    }
}

/// The canonical owned `(key, value)` record — the materialized form of a
/// [`SegmentBuf`] entry, used at API boundaries where borrowing from an
/// arena is impractical (e.g. long-lived report output). Convert back and
/// forth with [`SegmentBuf::owned`] and `SegmentBuf::from_iter`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct OwnedKv {
    /// Key bytes.
    pub key: Vec<u8>,
    /// Value bytes.
    pub value: Vec<u8>,
}

impl OwnedKv {
    /// Construct from borrowed slices.
    pub fn new(key: &[u8], value: &[u8]) -> Self {
        OwnedKv {
            key: key.to_vec(),
            value: value.to_vec(),
        }
    }

    /// Payload size in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.key.len() + self.value.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KvBuf {
        let mut b = KvBuf::new();
        b.push(1, b"banana", b"v1");
        b.push(0, b"cherry", b"v2");
        b.push(1, b"apple", b"v3");
        b.push(0, b"apple", b"v4");
        b
    }

    #[test]
    fn push_and_access_roundtrip() {
        let b = sample();
        assert_eq!(b.len(), 4);
        assert_eq!(b.key(0), b"banana");
        assert_eq!(b.value(0), b"v1");
        assert_eq!(b.partition(3), 0);
        assert_eq!(b.arena_bytes(), 6 + 2 + 6 + 2 + 5 + 2 + 5 + 2);
    }

    #[test]
    fn sort_by_partition_key_orders_compound() {
        let mut b = sample();
        let fp = b.unordered_fingerprint();
        b.sort_by_partition_key();
        let got: Vec<(u32, &[u8])> = (0..b.len()).map(|i| (b.partition(i), b.key(i))).collect();
        assert_eq!(
            got,
            vec![
                (0, b"apple".as_slice()),
                (0, b"cherry".as_slice()),
                (1, b"apple".as_slice()),
                (1, b"banana".as_slice()),
            ]
        );
        assert_eq!(b.unordered_fingerprint(), fp, "sort must preserve content");
    }

    #[test]
    fn group_by_partition_clusters_without_key_order() {
        let mut b = sample();
        let fp = b.unordered_fingerprint();
        b.group_by_partition(2);
        assert!(b.partition(0) == 0 && b.partition(1) == 0);
        assert!(b.partition(2) == 1 && b.partition(3) == 1);
        // Stability: original relative order within partitions preserved.
        assert_eq!(b.key(0), b"cherry");
        assert_eq!(b.key(1), b"apple");
        assert_eq!(b.key(2), b"banana");
        assert_eq!(b.unordered_fingerprint(), fp);
    }

    #[test]
    fn partition_ranges_cover_all_entries() {
        let mut b = sample();
        b.sort_by_partition_key();
        let ranges = b.partition_ranges(2);
        assert_eq!(ranges, vec![0..2, 2..4]);
        // Partitions with no records get empty ranges.
        let mut c = KvBuf::new();
        c.push(2, b"k", b"v");
        c.group_by_partition(4);
        let r = c.partition_ranges(4);
        assert_eq!(r, vec![0..0, 0..0, 0..1, 1..1]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut b = sample();
        let cap = b.arena.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.arena.capacity(), cap);
    }

    #[test]
    fn empty_buffer_edge_cases() {
        let mut b = KvBuf::new();
        assert!(b.is_empty());
        b.sort_by_partition_key();
        b.group_by_partition(4);
        assert_eq!(b.partition_ranges(2), vec![0..0, 0..0]);
        assert_eq!(b.unordered_fingerprint(), 0);
    }

    #[test]
    fn freeze_into_segments_shares_one_arena() {
        let mut b = sample();
        let fp: u64 = {
            let mut acc = 0u64;
            for i in 0..b.len() {
                // Segment fingerprints must add up to the buffer's.
                acc = acc.wrapping_add(
                    SegmentBuf::from_pairs([(b.key(i), b.value(i))])
                        .unordered_fingerprint(b.partition(i)),
                );
            }
            acc
        };
        assert_eq!(fp, b.unordered_fingerprint());
        let segs = b.freeze_into_segments(2);
        assert!(b.is_empty(), "freeze drains the buffer");
        assert_eq!(segs.len(), 2);
        // Arrival order preserved within each partition.
        assert_eq!(segs[0].key(0), b"cherry");
        assert_eq!(segs[0].key(1), b"apple");
        assert_eq!(segs[0].value(1), b"v4");
        assert_eq!(segs[1].key(0), b"banana");
        assert_eq!(segs[1].key(1), b"apple");
        let total: u64 = segs
            .iter()
            .enumerate()
            .map(|(p, s)| s.unordered_fingerprint(p as u32))
            .fold(0u64, |a, x| a.wrapping_add(x));
        assert_eq!(total, fp, "freeze must preserve content");
    }

    #[test]
    fn freeze_after_sort_yields_key_sorted_segments() {
        let mut b = sample();
        b.sort_by_partition_key();
        let segs = b.freeze_into_segments(2);
        for seg in &segs {
            let keys: Vec<&[u8]> = (0..seg.len()).map(|i| seg.key(i)).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted);
        }
        assert_eq!(segs[0].payload_bytes(), 5 + 2 + 6 + 2);
    }

    #[test]
    fn segment_clone_is_shallow_and_sorted_by_key_shares_arena() {
        let seg = SegmentBuf::from_pairs([
            (b"b".as_slice(), b"2".as_slice()),
            (b"a".as_slice(), b"1".as_slice()),
            (b"c".as_slice(), b"3".as_slice()),
        ]);
        let clone = seg.clone();
        assert!(Arc::ptr_eq(&seg.arena, &clone.arena));
        assert!(Arc::ptr_eq(&seg.entries, &clone.entries));
        let sorted = seg.sorted_by_key();
        assert!(Arc::ptr_eq(&seg.arena, &sorted.arena), "arena is shared");
        let keys: Vec<&[u8]> = (0..sorted.len()).map(|i| sorted.key(i)).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b", b"c"]);
        // A range sorts (and accounts for) only its own records.
        let head = seg.sorted_range_by_key(0..2);
        assert!(Arc::ptr_eq(&seg.arena, &head.arena));
        assert_eq!(head.iter().collect::<Vec<_>>(), [seg.get(1), seg.get(0)]);
        assert_eq!(head.payload_bytes(), 4);
        // The original is untouched.
        assert_eq!(seg.key(0), b"b");
        assert_eq!(
            sorted.unordered_fingerprint(0),
            seg.unordered_fingerprint(0)
        );
    }

    #[test]
    fn from_framed_points_into_run_bytes() {
        // Two frames in the spill wire format.
        let mut data = Vec::new();
        for (k, v) in [(b"ka".as_slice(), b"v1".as_slice()), (b"key2", b"")] {
            data.extend_from_slice(&(k.len() as u32).to_le_bytes());
            data.extend_from_slice(&(v.len() as u32).to_le_bytes());
            data.extend_from_slice(k);
            data.extend_from_slice(v);
        }
        let seg = SegmentBuf::from_framed(Arc::new(data.clone()), 0).unwrap();
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.get(0), (b"ka".as_slice(), b"v1".as_slice()));
        assert_eq!(seg.get(1), (b"key2".as_slice(), b"".as_slice()));
        assert_eq!(seg.payload_bytes(), 2 + 2 + 4);

        // Read from framed bytes, the segment re-frames as those bytes
        // (from wherever it started); built any other way, record by record.
        let data = Arc::new(data);
        assert_eq!(seg.framed_bytes(), Some(&data[..]));
        let tail = SegmentBuf::from_framed(Arc::clone(&data), 12).unwrap();
        assert_eq!(tail.get(0), seg.get(1));
        assert_eq!(tail.framed_bytes(), Some(&data[12..]));
        let rebuilt = SegmentBuf::from_pairs(seg.iter());
        assert_eq!(rebuilt.framed_bytes(), None);
        assert_eq!(seg.sorted_by_key().framed_bytes(), None);
        for s in [&seg, &rebuilt] {
            let mut out = vec![0xaa];
            s.append_framed(&mut out);
            assert_eq!(out[1..], data[..]);
            assert_eq!(s.framed_len(), data.len());
        }
        // The end of the buffer is an empty segment; past it is corrupt,
        // not an empty segment whose framed bytes cannot be sliced.
        let end = SegmentBuf::from_framed(Arc::clone(&data), data.len()).unwrap();
        assert!(end.is_empty() && end.framed_bytes() == Some(&[][..]));
        assert!(matches!(
            SegmentBuf::from_framed(Arc::clone(&data), data.len() + 1),
            Err(Error::Corrupt(_))
        ));
        // A header claiming more than the buffer holds (here 4 GiB - 1).
        let mut lying = data.to_vec();
        lying[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            SegmentBuf::from_framed(Arc::new(lying), 0),
            Err(Error::Corrupt(_))
        ));

        // Truncation surfaces as Corrupt.
        let bad = vec![3u8, 0, 0];
        assert!(SegmentBuf::from_framed(Arc::new(bad), 0).is_err());
        let mut truncated = vec![4u8, 0, 0, 0, 1, 0, 0, 0];
        truncated.extend_from_slice(b"ke"); // promises 5 payload bytes, has 2
        assert!(SegmentBuf::from_framed(Arc::new(truncated), 0).is_err());
    }

    #[test]
    fn owned_kv_roundtrips_through_segments() {
        let seg = SegmentBuf::from_pairs([(b"k".as_slice(), b"v".as_slice())]);
        let kv = seg.owned(0);
        assert_eq!((&kv.key[..], &kv.value[..]), seg.get(0));
        assert_eq!(kv.payload_bytes(), 2);
        let back: SegmentBuf = vec![kv].into_iter().collect();
        assert_eq!(back.get(0), seg.get(0));
    }

    #[test]
    fn builder_matches_pairs_constructor() {
        let mut b = SegmentBufBuilder::with_capacity(16, 2);
        assert!(b.is_empty());
        b.push(b"x", b"1");
        b.push(b"", b"");
        assert_eq!(b.len(), 2);
        assert_eq!(b.payload_bytes(), 2);
        let seg = b.finish();
        let other = SegmentBuf::from_pairs([(b"x".as_slice(), b"1".as_slice()), (b"", b"")]);
        assert_eq!(seg.unordered_fingerprint(3), other.unordered_fingerprint(3));
        // A framed builder's arena is the records' framed encoding.
        let mut framed = SegmentBufBuilder::framed(0);
        for (k, v) in seg.iter() {
            framed.push(k, v);
        }
        assert_eq!(framed.payload_bytes(), 2);
        let framed = framed.finish();
        let mut want = Vec::new();
        seg.append_framed(&mut want);
        assert_eq!(framed.framed_bytes(), Some(&want[..]));
        assert_eq!(
            framed.iter().collect::<Vec<_>>(),
            seg.iter().collect::<Vec<_>>()
        );
        assert_eq!(framed.payload_bytes(), seg.payload_bytes());
        let empty = SegmentBuf::default();
        assert!(empty.is_empty());
        assert_eq!(empty.unordered_fingerprint(0), 0);
    }

    #[test]
    fn zero_length_keys_and_values_are_legal() {
        let mut b = KvBuf::new();
        b.push(0, b"", b"v");
        b.push(0, b"k", b"");
        b.push(0, b"", b"");
        assert_eq!(b.key(0), b"");
        assert_eq!(b.value(1), b"");
        assert_eq!(b.key(2), b"");
        assert_eq!(b.value(2), b"");
        b.sort_by_partition_key();
        let got: Vec<_> = b.iter().map(|(_, k, v)| (k, v)).collect();
        let empty: &[u8] = b"";
        assert_eq!(
            got,
            [(empty, b"v".as_slice()), (empty, empty), (b"k", empty)]
        );
    }

    #[test]
    fn key_prefixes_order_as_slices_do() {
        let keys: [&[u8]; 12] = [
            b"",
            b"\0",
            b"\0\0",
            b"a",
            b"a\0",
            b"ab",
            b"abcd",
            b"abcdefg",
            b"abcdefgh",
            b"abcdefgh\0",
            b"abcdefgh\x01",
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff",
        ];
        for a in keys {
            for b in keys {
                let by_prefix = cmp_prefixed(key_prefix(a), key_prefix(b), || a[8..].cmp(&b[8..]));
                assert_eq!(by_prefix, a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn the_per_partition_sort_orders_as_the_packed_one() {
        // Shared 8-byte prefixes, equal keys in several partitions.
        let mut b = KvBuf::new();
        for i in 0..64u32 {
            let key = format!("shared8b{}", i % 5);
            let key = if i % 3 == 0 { &key[..8] } else { &key };
            b.push(i % 4, key.as_bytes(), &i.to_le_bytes());
        }
        let mut clustered = b.clone();
        b.sort_by_partition_key();
        clustered.entries = clustered.sorted_per_partition();
        assert_eq!(b.entries, clustered.entries);
    }
}
