//! # onepass-groupby
//!
//! Group-by operator implementations — the algorithmic heart of the paper.
//!
//! MapReduce's parallelism model is "group data by key, then apply the
//! reduce function to each group" (§II). How that group-by is implemented
//! is precisely what the paper investigates:
//!
//! * [`sortmerge`] — the Hadoop baseline: buffer key-sorted segments,
//!   merge-spill sorted runs, **multi-pass merge** with factor `F`, then
//!   stream the single sorted run through the reduce function. Blocking;
//!   heavy CPU (sort) and I/O (merge) — §III's findings.
//! * [`hybrid_hash`] — Shapiro's Hybrid Hash: bucket 0 resident, other
//!   buckets spilled and recursively processed. No sort CPU, I/O
//!   comparable to sort-merge, still blocking (§V reduce technique 1).
//! * [`freq_hash`] — incremental hash: one in-memory state per key, updated
//!   in place; pipelined, supports early emission (§V technique 2, spelled
//!   [`IncHashGrouper`]). With its online frequent-items summary on
//!   ([`FreqHashGrouper::new`]) hot keys keep resident state and cold
//!   records spill: early answers for hot keys with orders-of-magnitude
//!   less spill I/O (§V technique 3). One operator; technique 2 is
//!   technique 3 with the summary off.
//!
//! Every per-key state they hold is a [`StateBuf`]: up to 15 bytes in the
//! table slot itself, so a count or a sum costs no heap allocation.
//!
//! All operators implement [`GroupBy`], consume byte-string records, are
//! bounded by a [`MemoryBudget`](onepass_core::memory::MemoryBudget), spill
//! through a [`SpillStore`](onepass_core::io::SpillStore), and report
//! [`OpStats`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod freq_hash;
pub mod hybrid_hash;
pub mod join;
pub mod merge;
pub mod sink;
pub mod sortmerge;
pub mod state;

pub use aggregate::{Aggregator, AvgAgg, CountAgg, FirstAgg, ListAgg, MaxAgg, StateInput, SumAgg};
pub use freq_hash::{CountThreshold, EarlyEmit, FreqHashGrouper, IncHashGrouper, PeriodicCount};
pub use hybrid_hash::HybridHashGrouper;
pub use join::{JoinAgg, TAG_BUILD, TAG_PROBE};
pub use merge::MultiPassMerger;
pub use sink::{EmitKind, OpStats, Sink, VecSink};
pub use sortmerge::SortMergeGrouper;
pub use state::StateBuf;

use onepass_core::{Result, SegmentBuf};

/// A streaming group-by operator: push records, then finish to flush
/// remaining groups. Operators may emit *early* (incremental) output
/// during `push` — that is the defining capability the paper asks for.
///
/// ```
/// use std::sync::Arc;
/// use onepass_core::io::SharedMemStore;
/// use onepass_core::memory::MemoryBudget;
/// use onepass_groupby::{CountAgg, FreqHashGrouper, GroupBy, VecSink};
///
/// let mut op = FreqHashGrouper::new(
///     Arc::new(SharedMemStore::new()),
///     MemoryBudget::new(1 << 20),
///     Arc::new(CountAgg),
/// );
/// let mut sink = VecSink::default();
/// let batch = onepass_core::SegmentBuf::from_pairs(
///     [b"a", b"b", b"a"].map(|k| (k.as_slice(), b"".as_slice())),
/// );
/// op.push_batch(&batch, &mut sink).unwrap();
/// let stats = op.finish(&mut sink).unwrap();
/// assert_eq!(stats.groups_out, 2);
/// assert_eq!(stats.io.bytes_written, 0); // fits in memory: zero I/O
/// ```
///
/// Operators are `Send` so engines can move them across worker threads
/// (each operator is still single-threaded internally).
pub trait GroupBy: Send {
    /// Consume a whole arena-backed batch — the primary entry point.
    ///
    /// Operators probe per segment, not per record: implementations hash
    /// each key once and reuse the fingerprint for partition routing and
    /// table probes, which is where the one-pass CPU advantage over
    /// sort-merge comes from (§V). Key/value slices borrow straight from
    /// the segment's arena; no per-record copies are required.
    fn push_batch(&mut self, batch: &SegmentBuf, sink: &mut dyn Sink) -> Result<()>;

    /// [`GroupBy::push_batch`] for a batch the caller guarantees is sorted
    /// by key (sort-spill map output). Order is only a hint: the default
    /// ignores it, while sort-merge buffers the segment as-is instead of
    /// re-sorting it. Output is identical either way.
    fn push_sorted(&mut self, batch: &SegmentBuf, sink: &mut dyn Sink) -> Result<()> {
        self.push_batch(batch, sink)
    }

    /// Emit an approximate answer over everything pushed so far as
    /// [`EmitKind::Early`], leaving the operator's state (and so its final
    /// output) untouched — MapReduce Online's snapshot (§III-D). Only a
    /// blocking operator needs it: sort-merge re-reads its runs and buffer
    /// and pays that I/O; the default emits nothing, since incremental
    /// operators publish early answers on their own during `push_batch`.
    fn snapshot(&mut self, sink: &mut dyn Sink) -> Result<()> {
        let _ = sink;
        Ok(())
    }

    /// Shed at least `target_bytes` of resident state through the
    /// operator's own spill path, returning the bytes actually freed.
    ///
    /// Called at batch boundaries when a
    /// [`MemoryGovernor`](onepass_core::governor::MemoryGovernor) picks
    /// this operator as a spill victim under global pressure. Shedding is
    /// a correctness-neutral reordering: shed state flows through the same
    /// tagged overflow/run machinery the operator's normal spill uses, so
    /// final output is byte-identical. The default does nothing (an
    /// operator with nothing shedable returns 0).
    fn shed(&mut self, target_bytes: usize) -> Result<usize> {
        let _ = target_bytes;
        Ok(0)
    }

    /// Flush all remaining groups into `sink` and return statistics.
    /// The operator must not be pushed to afterwards.
    fn finish(&mut self, sink: &mut dyn Sink) -> Result<OpStats>;

    /// Human-readable operator name for reports.
    fn name(&self) -> &'static str;
}

// The operators hash a record's key through this name, once, on entry;
// under test it is the counting wrapper that holds them to it.
#[cfg(not(test))]
use onepass_core::hashlib::fingerprint;
#[cfg(test)]
use test_support::counted_fingerprint as fingerprint;

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use std::collections::BTreeMap;

    /// Borrow owned pairs as the slice-pair iterator the helpers (and the
    /// operator APIs) consume.
    pub fn pairs(records: &[(Vec<u8>, Vec<u8>)]) -> impl Iterator<Item = (&[u8], &[u8])> {
        records.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Drive `op` over `records` (as one arena-backed batch, the primary
    /// API) and return final `(key -> emitted value)` plus stats and the
    /// raw sink. Panics on duplicate final emissions.
    pub fn run_op<'a>(
        op: &mut dyn GroupBy,
        records: impl IntoIterator<Item = (&'a [u8], &'a [u8])>,
    ) -> (BTreeMap<Vec<u8>, Vec<u8>>, OpStats, VecSink) {
        let mut sink = VecSink::default();
        let batch = SegmentBuf::from_pairs(records);
        if !batch.is_empty() {
            op.push_batch(&batch, &mut sink).unwrap();
        }
        let stats = op.finish(&mut sink).unwrap();
        let mut out = BTreeMap::new();
        for (k, v, kind) in &sink.emitted {
            if *kind == EmitKind::Final {
                let prev = out.insert(k.clone(), v.clone());
                assert!(prev.is_none(), "duplicate final emission for key {k:?}");
            }
        }
        (out, stats, sink)
    }

    /// Reference group-count: how often each key appears.
    pub fn count_truth<'a>(
        records: impl IntoIterator<Item = (&'a [u8], &'a [u8])>,
    ) -> BTreeMap<Vec<u8>, u64> {
        let mut t: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (k, _) in records {
            *t.entry(k.to_vec()).or_default() += 1;
        }
        t
    }

    thread_local! {
        static FINGERPRINTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// [`fingerprint`](onepass_core::hashlib::fingerprint), counted per
    /// thread: what this crate's operators call under test.
    pub fn counted_fingerprint(key: &[u8]) -> u64 {
        FINGERPRINTS.set(FINGERPRINTS.get() + 1);
        onepass_core::hashlib::fingerprint(key)
    }

    /// Fingerprints the operators computed on this thread while `f` ran.
    pub fn fingerprints_during(f: impl FnOnce()) -> u64 {
        let before = FINGERPRINTS.get();
        f();
        FINGERPRINTS.get() - before
    }

    /// Records the exact passes pushed into hybrid-hash children, read
    /// off the trace: every `cold_bucket_resolve` and `bucket_reload`
    /// instant carries the record count of the run about to be replayed.
    pub fn records_replayed(tracer: &onepass_core::trace::Tracer) -> u64 {
        let replays = tracer
            .drain()
            .into_iter()
            .filter(|e| e.name == "cold_bucket_resolve" || e.name == "bucket_reload");
        replays
            .flat_map(|e| e.args)
            .filter(|(arg, _)| *arg == "records")
            .map(|(_, n)| n as u64)
            .sum()
    }

    /// Decode a u64 value emitted by `CountAgg`/`SumAgg`.
    pub fn dec_u64(v: &[u8]) -> u64 {
        u64::from_le_bytes(v.try_into().expect("8-byte aggregate"))
    }
}
