//! Spill-run file management — the paper's "file management library" (§V).
//!
//! Both the sort-merge baseline and the hash techniques stage intermediate
//! data in *runs*: sequences of `(key, value)` records written once and
//! read back sequentially. A [`SpillStore`] creates, opens and deletes runs
//! and keeps global I/O counters, which the experiment drivers report (the
//! paper's central quantitative claims are about exactly these bytes:
//! 370 GB of reduce-side merge I/O for sessionization, and a three
//! orders-of-magnitude reduction under frequent-hash).
//!
//! Two backends are provided, plus a fault-injection decorator:
//! * [`SharedMemStore`] — runs held in memory; deterministic and fast,
//!   used by unit tests and by callers that only want the *accounting*.
//! * [`FileSpillStore`] — runs as real files under a directory, with
//!   buffered sequential I/O; used by the engine when actually spilling.
//! * [`FaultInjectStore`] — wraps any store and starts failing after a
//!   configured number of operations, for failure-propagation testing.
//!
//! On-disk record format: `[u32 klen][u32 vlen][key bytes][value bytes]`,
//! little-endian, no alignment. A run must end exactly at a record
//! boundary; anything else surfaces as [`Error::Corrupt`].

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::bytes_kv::{SegmentBuf, SegmentBufBuilder};
use crate::error::{Error, Result};

/// Identifier of a spill run within its store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId(pub u64);

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMeta {
    /// The run's id, usable with [`SpillStore::open_run`].
    pub id: RunId,
    /// Number of records written.
    pub records: u64,
    /// Total encoded bytes (including the 8-byte headers).
    pub bytes: u64,
}

/// Cumulative I/O accounting for a store. All figures are encoded bytes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Bytes written across all runs.
    pub bytes_written: u64,
    /// Bytes read back across all runs.
    pub bytes_read: u64,
    /// Runs created.
    pub runs_created: u64,
    /// Runs deleted.
    pub runs_deleted: u64,
}

#[derive(Debug, Default)]
struct StatsCell {
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    runs_created: AtomicU64,
    runs_deleted: AtomicU64,
}

impl StatsCell {
    fn snapshot(&self) -> IoStats {
        IoStats {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            runs_created: self.runs_created.load(Ordering::Relaxed),
            runs_deleted: self.runs_deleted.load(Ordering::Relaxed),
        }
    }
}

/// One reader's bytes-read count, added to the store's shared counter once
/// per [`ReadTally::FLUSH_BYTES`], at end-of-run and on drop — a record
/// read costs no atomic operation.
struct ReadTally {
    stats: Arc<StatsCell>,
    pending: u64,
}

impl ReadTally {
    const FLUSH_BYTES: u64 = 1 << 16;

    fn new(stats: Arc<StatsCell>) -> Self {
        ReadTally { stats, pending: 0 }
    }

    #[inline]
    fn add(&mut self, bytes: u64) {
        self.pending += bytes;
        if self.pending >= Self::FLUSH_BYTES {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.stats
            .bytes_read
            .fetch_add(std::mem::take(&mut self.pending), Ordering::Relaxed);
    }
}

impl Drop for ReadTally {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A borrowed record yielded by a [`RunReader`].
#[derive(Debug, PartialEq, Eq)]
pub struct Record<'a> {
    /// Key bytes.
    pub key: &'a [u8],
    /// Value bytes.
    pub value: &'a [u8],
}

/// Sequential writer for one run. Obtain via [`SpillStore::begin_run`].
pub trait RunWriter: Send {
    /// Append one record.
    fn write_record(&mut self, key: &[u8], value: &[u8]) -> Result<()>;

    /// Append a whole batch. The on-disk byte stream is identical to
    /// record-at-a-time writes; backends override this to encode and write
    /// the batch in one operation instead of one syscall/copy per record.
    fn write_segment(&mut self, seg: &SegmentBuf) -> Result<()> {
        for (k, v) in seg.iter() {
            self.write_record(k, v)?;
        }
        Ok(())
    }

    /// Flush and seal the run, returning its metadata.
    fn finish(self: Box<Self>) -> Result<RunMeta>;
}

/// Sequential reader over one run. Obtain via [`SpillStore::open_run`].
pub trait RunReader: Send {
    /// Next record, or `None` at a clean end-of-run.
    fn next_record(&mut self) -> Result<Option<Record<'_>>>;

    /// Read roughly `max_bytes` of encoded records as one arena-backed
    /// batch, or `None` at a clean end-of-run. Backends override this to
    /// return the data in one read — the in-memory store hands back the
    /// remaining run bytes zero-copy.
    fn read_batch(&mut self, max_bytes: usize) -> Result<Option<SegmentBuf>> {
        let mut batch = SegmentBufBuilder::new();
        let mut taken = 0u64;
        while taken < max_bytes as u64 {
            match self.next_record()? {
                None => break,
                Some(rec) => {
                    taken += encoded_len(rec.key, rec.value);
                    batch.push(rec.key, rec.value);
                }
            }
        }
        if batch.is_empty() {
            Ok(None)
        } else {
            Ok(Some(batch.finish()))
        }
    }
}

/// A store of spill runs with shared I/O accounting.
pub trait SpillStore: Send + Sync {
    /// Start writing a new run.
    fn begin_run(&self) -> Result<Box<dyn RunWriter>>;
    /// Open a finished run for sequential reading.
    fn open_run(&self, id: RunId) -> Result<Box<dyn RunReader>>;
    /// Delete a finished run, reclaiming its space.
    fn delete_run(&self, id: RunId) -> Result<()>;
    /// Cumulative I/O counters.
    fn stats(&self) -> IoStats;
}

/// Encoded size of one record (header + payload).
#[inline]
pub fn encoded_len(key: &[u8], value: &[u8]) -> u64 {
    8 + key.len() as u64 + value.len() as u64
}

/// The 8-byte record header `[u32 klen][u32 vlen]`, little-endian: one
/// little-endian `u64` with `klen` in the low half.
#[inline]
pub(crate) fn record_header(key: &[u8], value: &[u8]) -> [u8; 8] {
    (u64::from(key.len() as u32) | u64::from(value.len() as u32) << 32).to_le_bytes()
}

/// `(klen, vlen)` out of a record header.
#[inline]
pub(crate) fn record_lens(header: &[u8; 8]) -> (usize, usize) {
    let h = u64::from_le_bytes(*header);
    ((h & 0xffff_ffff) as usize, (h >> 32) as usize)
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

struct MemWriter {
    store: Arc<MemStoreInner>,
    id: u64,
    buf: Vec<u8>,
    records: u64,
}

#[derive(Debug, Default)]
struct MemStoreInner {
    runs: Mutex<HashMap<u64, Arc<Vec<u8>>>>,
    next_id: AtomicU64,
    stats: Arc<StatsCell>,
}

/// Spill store keeping runs in memory. Cheap and deterministic; used by
/// unit tests and by callers that only need the byte accounting. Clones
/// share the same underlying store.
#[derive(Debug, Clone, Default)]
pub struct SharedMemStore {
    inner: Arc<MemStoreInner>,
}

impl SharedMemStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (not yet deleted) runs.
    pub fn live_runs(&self) -> usize {
        self.inner.runs.lock().len()
    }

    /// Total payload bytes currently held by live runs.
    pub fn resident_bytes(&self) -> u64 {
        self.inner
            .runs
            .lock()
            .values()
            .map(|v| v.len() as u64)
            .sum()
    }
}

impl SpillStore for SharedMemStore {
    fn begin_run(&self) -> Result<Box<dyn RunWriter>> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner
            .stats
            .runs_created
            .fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(MemWriter {
            store: Arc::clone(&self.inner),
            id,
            buf: Vec::new(),
            records: 0,
        }))
    }

    fn open_run(&self, id: RunId) -> Result<Box<dyn RunReader>> {
        let data = self
            .inner
            .runs
            .lock()
            .get(&id.0)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("mem run {}", id.0)))?;
        Ok(Box::new(MemReader {
            read: ReadTally::new(Arc::clone(&self.inner.stats)),
            data,
            pos: 0,
        }))
    }

    fn delete_run(&self, id: RunId) -> Result<()> {
        self.inner
            .runs
            .lock()
            .remove(&id.0)
            .ok_or_else(|| Error::NotFound(format!("mem run {}", id.0)))?;
        self.inner
            .stats
            .runs_deleted
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.inner.stats.snapshot()
    }
}

impl RunWriter for MemWriter {
    fn write_record(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(&record_header(key, value));
        self.buf.extend_from_slice(key);
        self.buf.extend_from_slice(value);
        self.records += 1;
        Ok(())
    }

    fn write_segment(&mut self, seg: &SegmentBuf) -> Result<()> {
        seg.append_framed(&mut self.buf);
        self.records += seg.len() as u64;
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<RunMeta> {
        let bytes = self.buf.len() as u64;
        self.store
            .stats
            .bytes_written
            .fetch_add(bytes, Ordering::Relaxed);
        self.store.runs.lock().insert(self.id, Arc::new(self.buf));
        Ok(RunMeta {
            id: RunId(self.id),
            records: self.records,
            bytes,
        })
    }
}

struct MemReader {
    read: ReadTally,
    data: Arc<Vec<u8>>,
    pos: usize,
}

impl RunReader for MemReader {
    fn next_record(&mut self) -> Result<Option<Record<'_>>> {
        if self.pos == self.data.len() {
            self.read.flush();
            return Ok(None);
        }
        let Some((header, rest)) = self.data[self.pos..].split_first_chunk::<8>() else {
            return Err(Error::Corrupt("truncated record header".into()));
        };
        let (klen, vlen) = record_lens(header);
        if rest.len() < klen + vlen {
            return Err(Error::Corrupt("truncated record payload".into()));
        }
        let start = self.pos + 8;
        self.pos = start + klen + vlen;
        self.read.add((8 + klen + vlen) as u64);
        Ok(Some(Record {
            key: &self.data[start..start + klen],
            value: &self.data[start + klen..start + klen + vlen],
        }))
    }

    /// Zero-copy batch read: the remaining run bytes already live in one
    /// `Arc`-shared buffer in the record wire format, so the returned
    /// segment's entries point straight into it — no payload copy, one
    /// "read" for the whole remainder regardless of `max_bytes`.
    fn read_batch(&mut self, _max_bytes: usize) -> Result<Option<SegmentBuf>> {
        if self.pos == self.data.len() {
            return Ok(None);
        }
        let seg = SegmentBuf::from_framed(Arc::clone(&self.data), self.pos)?;
        self.read.add((self.data.len() - self.pos) as u64);
        self.read.flush();
        self.pos = self.data.len();
        Ok(Some(seg))
    }
}

// ---------------------------------------------------------------------------
// File-backed backend
// ---------------------------------------------------------------------------

/// Spill store persisting runs as files under a directory.
#[derive(Debug)]
pub struct FileSpillStore {
    dir: PathBuf,
    next_id: AtomicU64,
    stats: Arc<StatsCell>,
    /// Remove the directory (and any leftover runs) on drop.
    cleanup_on_drop: bool,
}

impl FileSpillStore {
    /// Create a store rooted at `dir` (created if missing).
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(FileSpillStore {
            dir,
            next_id: AtomicU64::new(0),
            stats: Arc::new(StatsCell::default()),
            cleanup_on_drop: false,
        })
    }

    /// Create a store in a fresh unique subdirectory of the system temp
    /// dir, removed when the store is dropped.
    pub fn temp() -> Result<Self> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "onepass-spill-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let dir = std::env::temp_dir().join(unique);
        let mut s = Self::new(dir)?;
        s.cleanup_on_drop = true;
        Ok(s)
    }

    fn run_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("run-{id}.bin"))
    }
}

impl Drop for FileSpillStore {
    fn drop(&mut self) {
        if self.cleanup_on_drop {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

impl SpillStore for FileSpillStore {
    fn begin_run(&self) -> Result<Box<dyn RunWriter>> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.stats.runs_created.fetch_add(1, Ordering::Relaxed);
        let file = File::create(self.run_path(id))?;
        Ok(Box::new(FileWriter {
            id,
            out: BufWriter::with_capacity(1 << 16, file),
            records: 0,
            bytes: 0,
            scratch: Vec::new(),
            stats: Arc::clone(&self.stats),
        }))
    }

    fn open_run(&self, id: RunId) -> Result<Box<dyn RunReader>> {
        let path = self.run_path(id.0);
        let file = File::open(&path).map_err(|_| Error::NotFound(format!("file run {}", id.0)))?;
        Ok(Box::new(FileReader {
            unread: file.metadata()?.len(),
            file,
            buf: Vec::new(),
            pos: 0,
            read: ReadTally::new(Arc::clone(&self.stats)),
        }))
    }

    fn delete_run(&self, id: RunId) -> Result<()> {
        fs::remove_file(self.run_path(id.0))
            .map_err(|_| Error::NotFound(format!("file run {}", id.0)))?;
        self.stats.runs_deleted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }
}

struct FileWriter {
    id: u64,
    out: BufWriter<File>,
    records: u64,
    bytes: u64,
    scratch: Vec<u8>,
    stats: Arc<StatsCell>,
}

impl RunWriter for FileWriter {
    fn write_record(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.out.write_all(&record_header(key, value))?;
        self.out.write_all(key)?;
        self.out.write_all(value)?;
        self.records += 1;
        self.bytes += encoded_len(key, value);
        Ok(())
    }

    fn write_segment(&mut self, seg: &SegmentBuf) -> Result<()> {
        // Hand the batch's framed encoding to the writer in a single
        // write, instead of 3 small writes per record: as it lies in the
        // arena when it does, else encoded into one contiguous buffer.
        let framed = match seg.framed_bytes() {
            Some(framed) => framed,
            None => {
                self.scratch.clear();
                seg.append_framed(&mut self.scratch);
                &self.scratch
            }
        };
        self.out.write_all(framed)?;
        self.records += seg.len() as u64;
        self.bytes += framed.len() as u64;
        Ok(())
    }

    fn finish(mut self: Box<Self>) -> Result<RunMeta> {
        self.out.flush()?;
        self.stats
            .bytes_written
            .fetch_add(self.bytes, Ordering::Relaxed);
        Ok(RunMeta {
            id: RunId(self.id),
            records: self.records,
            bytes: self.bytes,
        })
    }
}

/// Bytes a [`FileReader`] reads from its file at a time when serving
/// records one by one.
const FILE_READ_CHUNK: usize = 1 << 16;

/// A run file read through one buffer, `buf[pos..]` holding the bytes read
/// and not yet served. Every record length is checked against the bytes
/// the run still holds before anything is sized by it, so a corrupt or
/// hostile header is [`Error::Corrupt`], never an allocation.
struct FileReader {
    file: File,
    /// Run bytes not yet read from the file.
    unread: u64,
    buf: Vec<u8>,
    pos: usize,
    read: ReadTally,
}

impl FileReader {
    /// Bytes of the run not yet served: buffered, then still in the file.
    fn available(&self) -> u64 {
        (self.buf.len() - self.pos) as u64 + self.unread
    }

    /// Drop the served bytes, then append up to `more` run bytes to the
    /// buffer (fewer at the end of the run).
    fn fill(&mut self, more: usize) -> Result<()> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        let more = more.min(usize::try_from(self.unread).unwrap_or(usize::MAX));
        self.buf.reserve_exact(more);
        let got = (&mut self.file)
            .take(more as u64)
            .read_to_end(&mut self.buf)?;
        if got < more {
            return Err(Error::Corrupt("run file shorter than its length".into()));
        }
        self.unread -= more as u64;
        Ok(())
    }

    /// `(klen, vlen)` of the record at `pos`, read through the file when
    /// the buffer holds less than its header; `None` at the clean end of
    /// the run.
    fn header(&mut self) -> Result<Option<(usize, usize)>> {
        let available = self.available();
        if available == 0 {
            return Ok(None);
        }
        if available < 8 {
            return Err(Error::Corrupt("truncated record header".into()));
        }
        if self.buf.len() - self.pos < 8 {
            self.fill(FILE_READ_CHUNK)?;
        }
        let header = self.buf[self.pos..]
            .first_chunk::<8>()
            .ok_or_else(|| Error::Corrupt("truncated record header".into()))?;
        let (klen, vlen) = record_lens(header);
        check_record_fits(klen, vlen, available - 8)?;
        Ok(Some((klen, vlen)))
    }
}

/// A header's lengths against the run bytes after it: a record that
/// claims more than the run holds is corrupt.
fn check_record_fits(klen: usize, vlen: usize, left: u64) -> Result<()> {
    if (klen + vlen) as u64 > left {
        return Err(Error::Corrupt(format!(
            "record header claims {klen}+{vlen} bytes, the run holds {left} more"
        )));
    }
    Ok(())
}

impl RunReader for FileReader {
    fn next_record(&mut self) -> Result<Option<Record<'_>>> {
        let Some((klen, vlen)) = self.header()? else {
            self.read.flush();
            return Ok(None);
        };
        let len = 8 + klen + vlen;
        let buffered = self.buf.len() - self.pos;
        if buffered < len {
            self.fill((len - buffered).max(FILE_READ_CHUNK))?;
        }
        let key = self.pos + 8;
        self.pos += len;
        self.read.add(len as u64);
        Ok(Some(Record {
            key: &self.buf[key..key + klen],
            value: &self.buf[key + klen..self.pos],
        }))
    }

    /// Bulk read: the buffered bytes plus up to `max_bytes` more from the
    /// file become one arena, the whole records in it one zero-copy
    /// segment ([`SegmentBuf::from_framed`]), and a record the read split
    /// stays buffered for the next call. A first record larger than the
    /// arena is read whole.
    fn read_batch(&mut self, max_bytes: usize) -> Result<Option<SegmentBuf>> {
        if self.available() == 0 {
            self.read.flush();
            return Ok(None);
        }
        self.fill(max_bytes)?;
        // At least the first header is buffered and fits the run.
        self.header()?;
        // Frame whole records; `end` is where the last one stops.
        let mut end = 0;
        while let Some(header) = self.buf[end..].first_chunk::<8>() {
            let (klen, vlen) = record_lens(header);
            let left = (self.buf.len() - end - 8) as u64 + self.unread;
            check_record_fits(klen, vlen, left)?;
            let next = end + 8 + klen + vlen;
            if next > self.buf.len() {
                if end == 0 {
                    // The first record outgrows the arena: read all of it.
                    self.fill(next - self.buf.len())?;
                    end = next;
                }
                break;
            }
            end = next;
        }
        let tail = self.buf[end..].to_vec();
        let mut arena = std::mem::replace(&mut self.buf, tail);
        arena.truncate(end);
        self.read.add(end as u64);
        self.read.flush();
        SegmentBuf::from_framed(Arc::new(arena), 0).map(Some)
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A [`SpillStore`] decorator that starts failing after a configured
/// number of I/O operations — for testing that operators and engines
/// propagate storage failures as errors instead of losing data or
/// panicking. Each record write, record read, run open/begin/delete
/// counts as one operation.
pub struct FaultInjectStore {
    inner: Arc<dyn SpillStore>,
    budget: Arc<AtomicU64>,
}

/// Saturating decrement of a shared fault budget; `Err` once exhausted.
fn fault_tick(budget: &AtomicU64) -> Result<()> {
    let mut cur = budget.load(Ordering::Relaxed);
    loop {
        if cur == 0 {
            return Err(Error::Io(std::io::Error::other(
                "injected spill-store failure",
            )));
        }
        match budget.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Ok(()),
            Err(actual) => cur = actual,
        }
    }
}

impl FaultInjectStore {
    /// Wrap `inner`; the first `ops_before_failure` operations succeed,
    /// everything after fails with [`Error::Io`].
    pub fn new(inner: Arc<dyn SpillStore>, ops_before_failure: u64) -> Self {
        FaultInjectStore {
            inner,
            budget: Arc::new(AtomicU64::new(ops_before_failure)),
        }
    }

    /// Operations remaining before failures begin.
    pub fn remaining(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }
}

impl SpillStore for FaultInjectStore {
    fn begin_run(&self) -> Result<Box<dyn RunWriter>> {
        fault_tick(&self.budget)?;
        let inner = self.inner.begin_run()?;
        Ok(Box::new(FaultWriter {
            inner,
            budget: Arc::clone(&self.budget),
        }))
    }

    fn open_run(&self, id: RunId) -> Result<Box<dyn RunReader>> {
        fault_tick(&self.budget)?;
        self.inner.open_run(id)
    }

    fn delete_run(&self, id: RunId) -> Result<()> {
        fault_tick(&self.budget)?;
        self.inner.delete_run(id)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
}

struct FaultWriter {
    inner: Box<dyn RunWriter>,
    budget: Arc<AtomicU64>,
}

impl RunWriter for FaultWriter {
    // Note: the default `write_segment` is kept deliberately — it loops
    // through `write_record`, so a batch write still ticks the fault
    // budget once per record, preserving operation-count semantics.
    fn write_record(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        fault_tick(&self.budget)?;
        self.inner.write_record(key, value)
    }

    fn finish(self: Box<Self>) -> Result<RunMeta> {
        fault_tick(&self.budget)?;
        self.inner.finish()
    }
}

/// Drain a reader into owned pairs — convenience for tests and small runs.
pub fn read_all(reader: &mut dyn RunReader) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut out = Vec::new();
    while let Some(rec) = reader.next_record()? {
        out.push((rec.key.to_vec(), rec.value.to_vec()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(store: &dyn SpillStore) {
        let mut w = store.begin_run().unwrap();
        w.write_record(b"alpha", b"1").unwrap();
        w.write_record(b"", b"empty-key").unwrap();
        w.write_record(b"beta", b"").unwrap();
        let meta = w.finish().unwrap();
        assert_eq!(meta.records, 3);
        assert_eq!(
            meta.bytes,
            encoded_len(b"alpha", b"1")
                + encoded_len(b"", b"empty-key")
                + encoded_len(b"beta", b"")
        );

        let mut r = store.open_run(meta.id).unwrap();
        let recs = read_all(r.as_mut()).unwrap();
        assert_eq!(
            recs,
            vec![
                (b"alpha".to_vec(), b"1".to_vec()),
                (b"".to_vec(), b"empty-key".to_vec()),
                (b"beta".to_vec(), b"".to_vec()),
            ]
        );

        let st = store.stats();
        assert_eq!(st.bytes_written, meta.bytes);
        assert_eq!(st.bytes_read, meta.bytes);
        assert_eq!(st.runs_created, 1);

        store.delete_run(meta.id).unwrap();
        assert!(store.open_run(meta.id).is_err());
        assert_eq!(store.stats().runs_deleted, 1);
    }

    #[test]
    fn mem_store_roundtrip() {
        roundtrip(&SharedMemStore::new());
    }

    #[test]
    fn file_store_roundtrip() {
        let store = FileSpillStore::temp().unwrap();
        roundtrip(&store);
    }

    #[test]
    fn empty_run_is_legal() {
        let store = SharedMemStore::new();
        let w = store.begin_run().unwrap();
        let meta = w.finish().unwrap();
        assert_eq!(meta.records, 0);
        let mut r = store.open_run(meta.id).unwrap();
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn missing_run_is_not_found() {
        let store = SharedMemStore::new();
        assert!(matches!(store.open_run(RunId(42)), Err(Error::NotFound(_))));
        assert!(store.delete_run(RunId(42)).is_err());
    }

    #[test]
    fn concurrent_writers_get_distinct_runs() {
        let store = SharedMemStore::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let store = store.clone();
                s.spawn(move || {
                    let mut w = store.begin_run().unwrap();
                    w.write_record(&t.to_le_bytes(), b"v").unwrap();
                    w.finish().unwrap();
                });
            }
        });
        assert_eq!(store.live_runs(), 4);
        assert_eq!(store.stats().runs_created, 4);
    }

    #[test]
    fn file_store_temp_cleans_up() {
        let dir;
        {
            let store = FileSpillStore::temp().unwrap();
            dir = store.dir.clone();
            let mut w = store.begin_run().unwrap();
            w.write_record(b"k", b"v").unwrap();
            w.finish().unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "temp spill dir should be removed on drop");
    }

    fn batch_roundtrip(store: &dyn SpillStore) {
        let seg = SegmentBuf::from_pairs([
            (b"alpha".as_slice(), b"1".as_slice()),
            (b"", b"empty-key"),
            (b"beta", b""),
        ]);
        // Batch write produces byte-identical runs to record-at-a-time.
        let mut w = store.begin_run().unwrap();
        w.write_segment(&seg).unwrap();
        let batch_meta = w.finish().unwrap();
        let mut w = store.begin_run().unwrap();
        for (k, v) in seg.iter() {
            w.write_record(k, v).unwrap();
        }
        let record_meta = w.finish().unwrap();
        assert_eq!(batch_meta.records, 3);
        assert_eq!(batch_meta.bytes, record_meta.bytes);

        // Batch read returns the same records, and accounts the same
        // bytes as a record-at-a-time scan.
        let before = store.stats().bytes_read;
        let mut r = store.open_run(batch_meta.id).unwrap();
        let got = r.read_batch(usize::MAX).unwrap().unwrap();
        assert_eq!(store.stats().bytes_read - before, batch_meta.bytes);
        let got: Vec<_> = got.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        let want: Vec<_> = seg.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(got, want);
        assert!(r.read_batch(usize::MAX).unwrap().is_none(), "end of run");

        // A mixed scan: one record, then the batched remainder.
        let mut r = store.open_run(record_meta.id).unwrap();
        let first = r.next_record().unwrap().unwrap();
        assert_eq!(first.key, b"alpha");
        let rest = r.read_batch(usize::MAX).unwrap().unwrap();
        assert_eq!(rest.len(), 2);
        assert_eq!(rest.get(0), (b"".as_slice(), b"empty-key".as_slice()));

        store.delete_run(batch_meta.id).unwrap();
        store.delete_run(record_meta.id).unwrap();
    }

    /// The bytes-read counter is tallied per reader and reaches the store
    /// at end-of-run or when the reader is dropped, never later.
    fn partial_read_is_counted_on_drop(store: &dyn SpillStore) {
        let mut w = store.begin_run().unwrap();
        w.write_record(b"k1", b"v1").unwrap();
        w.write_record(b"k2", b"v2").unwrap();
        let meta = w.finish().unwrap();
        let mut r = store.open_run(meta.id).unwrap();
        assert_eq!(r.next_record().unwrap().unwrap().key, b"k1");
        drop(r);
        assert_eq!(store.stats().bytes_read, encoded_len(b"k1", b"v1"));
    }

    #[test]
    fn partial_reads_are_counted_on_drop() {
        partial_read_is_counted_on_drop(&SharedMemStore::new());
        partial_read_is_counted_on_drop(&FileSpillStore::temp().unwrap());
    }

    #[test]
    fn mem_store_batch_roundtrip() {
        batch_roundtrip(&SharedMemStore::new());
    }

    #[test]
    fn file_store_batch_roundtrip() {
        let store = FileSpillStore::temp().unwrap();
        batch_roundtrip(&store);
    }

    #[test]
    fn bounded_batch_reads_respect_max_bytes() {
        let store = FileSpillStore::temp().unwrap();
        let mut w = store.begin_run().unwrap();
        for i in 0..10u32 {
            w.write_record(&i.to_le_bytes(), &[0xee; 16]).unwrap();
        }
        let meta = w.finish().unwrap();
        let mut r = store.open_run(meta.id).unwrap();
        // Each record encodes to 28 bytes; a 30-byte cap yields ~2 records
        // per batch (the default impl stops once the cap is crossed).
        let mut total = 0usize;
        let mut batches = 0usize;
        while let Some(b) = r.read_batch(30).unwrap() {
            total += b.len();
            batches += 1;
            assert!(b.len() <= 2);
        }
        assert_eq!(total, 10);
        assert!(batches >= 5);
    }

    #[test]
    fn large_records_roundtrip_through_files() {
        let store = FileSpillStore::temp().unwrap();
        let big_val = vec![0xabu8; 1 << 20];
        let mut w = store.begin_run().unwrap();
        w.write_record(b"big", &big_val).unwrap();
        let meta = w.finish().unwrap();
        let mut r = store.open_run(meta.id).unwrap();
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.key, b"big");
        assert_eq!(rec.value.len(), big_val.len());
        assert!(rec.value == big_val.as_slice());
    }
}
