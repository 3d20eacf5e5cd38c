//! Hybrid Hash group-by (Shapiro 1986) — §V map option 2 / reduce
//! technique 1.
//!
//! "Our system uses Hybrid Hash to group key-value pairs by key. This
//! method works with or without a combine function, but is still blocking
//! and results in an I/O cost comparable to the sort-merge based
//! implementation in Hadoop."
//!
//! The variant implemented here is the dynamic (Grace-degrading) form that
//! a streaming operator needs, since input size is unknown up front:
//!
//! 1. Start fully resident: per-key aggregate states in a hash table.
//! 2. On budget exhaustion, *partition*: keys hashing to bucket 0 (under
//!    the current level's hash function) stay resident; the states of all
//!    other buckets are spilled, and subsequent records route by hash —
//!    bucket 0 updates in memory, buckets 1..B append to spill runs.
//! 3. `finish` emits resident groups, then recursively processes each
//!    spilled bucket with the *next* hash function of the family (pairwise
//!    independence across levels is what guarantees the recursion splits).
//!
//! Spilled records are tagged raw-value vs partial-state so recursion can
//! replay them through [`Aggregator::update`] / [`Aggregator::merge`]
//! respectively. In the common case the data fits and "Hybrid Hash is
//! simply in-memory hashing" (§V) with zero I/O and no sort CPU.

use std::sync::Arc;

use onepass_core::error::{Error, Result};
use onepass_core::fp_table::{FpTable, ENTRY_OVERHEAD};
use onepass_core::hashlib::{MultiplyShift, SeededFamily};
use onepass_core::io::{IoStats, RunMeta, RunWriter, SpillStore};
use onepass_core::memory::MemoryBudget;
use onepass_core::metrics::{Phase, Profile, Stamp};
use onepass_core::trace::LocalTracer;
use onepass_core::SegmentBuf;

use crate::aggregate::{render, Aggregator};
use crate::sink::{EmitKind, OpStats, Sink};
use crate::state::StateBuf;
use crate::{fingerprint, GroupBy};

/// Budget charge for one resident `(key, state)` entry.
pub(crate) fn state_cost(key: &[u8], state: &[u8]) -> usize {
    key.len() + state.len() + ENTRY_OVERHEAD
}

/// Account an in-place `update`/`merge` that took a resident state from
/// `before` to `after` bytes. Growth must not fail mid-update, so it is
/// charged softly; and it is charged once per batch, not per record: it
/// joins `reserved` and `unsettled`, which [`settle`] force-grants at the
/// end of the batch and before the operator next reads or asks its
/// budget. A shrink cancels unsettled growth first and releases the rest.
/// The overshoot makes the next new key take the operator's spill path.
pub(crate) fn resize(
    budget: &MemoryBudget,
    reserved: &mut usize,
    unsettled: &mut usize,
    before: usize,
    after: usize,
) {
    if after > before {
        *reserved += after - before;
        *unsettled += after - before;
    } else if before > after {
        let shrink = before - after;
        let cancelled = shrink.min(*unsettled);
        *unsettled -= cancelled;
        budget.release(shrink - cancelled);
        *reserved -= shrink;
    }
}

/// Force-grant the growth [`resize`] left unsettled: afterwards the
/// budget holds everything the operator reserved.
pub(crate) fn settle(budget: &MemoryBudget, unsettled: &mut usize) {
    if *unsettled > 0 {
        budget.force_grant(std::mem::take(unsettled));
    }
}

/// Spill I/O on `store` since the snapshot `base` — an operator's own
/// share, for [`OpStats::io`].
pub(crate) fn io_since(store: &dyn SpillStore, base: &IoStats) -> IoStats {
    let now = store.stats();
    IoStats {
        bytes_written: now.bytes_written - base.bytes_written,
        bytes_read: now.bytes_read - base.bytes_read,
        runs_created: now.runs_created - base.runs_created,
        runs_deleted: now.runs_deleted - base.runs_deleted,
    }
}

/// Tag byte for spilled payloads: a raw, un-aggregated value.
pub(crate) const TAG_RAW: u8 = 0;
/// Tag byte for spilled payloads: a partial aggregate state.
pub(crate) const TAG_STATE: u8 = 1;

/// Append `(key, [tag][payload])` to `writer`, framing the tagged payload
/// in the caller's reusable `scratch` instead of a fresh `Vec` per record.
pub(crate) fn write_tagged(
    writer: &mut dyn RunWriter,
    scratch: &mut Vec<u8>,
    key: &[u8],
    tag: u8,
    payload: &[u8],
) -> Result<()> {
    scratch.clear();
    scratch.push(tag);
    scratch.extend_from_slice(payload);
    writer.write_record(key, scratch)
}

/// Split a spilled payload back into `(tag, payload)`.
pub(crate) fn split_tagged(value: &[u8]) -> Result<(u8, &[u8])> {
    match value.split_first() {
        Some((&tag, payload)) => Ok((tag, payload)),
        None => Err(Error::Corrupt("untagged spill record".into())),
    }
}

/// Remove from `table` every entry `spill` writes out (`Ok(true)`), keep
/// the ones it declines (`Ok(false)`). The first error stops the sweep,
/// leaves the remaining entries in place and is returned.
pub(crate) fn spill_entries<V>(
    table: &mut FpTable<V>,
    mut spill: impl FnMut(u64, &[u8], &V) -> Result<bool>,
) -> Result<()> {
    let mut result = Ok(());
    table.retain(|fp, key, value| {
        if result.is_err() {
            return true;
        }
        match spill(fp, key, value) {
            Ok(spilled) => !spilled,
            Err(e) => {
                result = Err(e);
                true
            }
        }
    });
    result
}

/// Recursion-depth safety valve. With pairwise-independent per-level hash
/// functions, depth grows logarithmically; hitting this indicates a broken
/// hash family rather than data skew (a single giant key stays resident).
const MAX_DEPTH: u32 = 64;

/// The Hybrid Hash group-by operator.
pub struct HybridHashGrouper {
    store: Arc<dyn SpillStore>,
    budget: MemoryBudget,
    agg: Arc<dyn Aggregator>,
    /// This recursion level's member of the default [`SeededFamily`],
    /// constructed once in [`Self::at_level`]; per-record probes reuse it
    /// via the fingerprint fast path.
    hasher: MultiplyShift,
    fanout: usize,
    level: u32,
    resident: FpTable<StateBuf>,
    /// The buffer every answer is rendered in, reused from key to key.
    out: Vec<u8>,
    /// Bytes reserved for `resident`: granted from the budget, but for
    /// `unsettled`.
    reserved: usize,
    /// In-place growth not yet charged to the budget ([`resize`]).
    unsettled: usize,
    peak_reserved: usize,
    /// `None` until the first partition event; afterwards one writer per
    /// bucket: index 0 holds the *overflow* of bucket-0 keys that could
    /// not stay resident (they redistribute under the next level's hash),
    /// indices 1..fanout hold their buckets' records.
    spill: Option<Vec<Box<dyn RunWriter>>>,
    /// Framing buffer for tagged spill payloads ([`write_tagged`]).
    scratch: Vec<u8>,
    /// Bucket-0 keys with records in run 0 (the bucket-0 overflow). A
    /// resident key in this set is incomplete: at emit time its partial
    /// state is flushed to run 0 for the child pass to merge, instead of
    /// being emitted here. Without this, a key whose admission *flips*
    /// mid-stream (possible once a shed or a governor limit-raise frees
    /// budget) would get two Finals — one here, one from the run-0 child.
    run0_keys: FpTable<()>,
    records_in: u64,
    groups_out: u64,
    spills: u64,
    passes: u64,
    profile: Profile,
    io_base: IoStats,
    trace: LocalTracer,
}

impl std::fmt::Debug for HybridHashGrouper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridHashGrouper")
            .field("level", &self.level)
            .field("resident_keys", &self.resident.len())
            .field("partitioned", &self.spill.is_some())
            .finish()
    }
}

impl HybridHashGrouper {
    /// Create a hybrid-hash grouper with bucket fanout `fanout` (≥ 2).
    pub fn new(
        store: Arc<dyn SpillStore>,
        budget: MemoryBudget,
        fanout: usize,
        agg: Arc<dyn Aggregator>,
    ) -> Result<Self> {
        Self::at_level(store, budget, fanout, agg, 0)
    }

    fn at_level(
        store: Arc<dyn SpillStore>,
        budget: MemoryBudget,
        fanout: usize,
        agg: Arc<dyn Aggregator>,
        level: u32,
    ) -> Result<Self> {
        if fanout < 2 {
            return Err(Error::Config(format!(
                "hybrid hash fanout must be ≥ 2, got {fanout}"
            )));
        }
        if level > MAX_DEPTH {
            return Err(Error::InvalidState(format!(
                "hybrid hash recursion exceeded depth {MAX_DEPTH}"
            )));
        }
        let io_base = store.stats();
        let hasher = SeededFamily::default().member(level as u64);
        Ok(HybridHashGrouper {
            store,
            budget,
            agg,
            hasher,
            fanout,
            level,
            resident: FpTable::new(),
            out: Vec::new(),
            reserved: 0,
            unsettled: 0,
            peak_reserved: 0,
            spill: None,
            scratch: Vec::new(),
            run0_keys: FpTable::new(),
            records_in: 0,
            groups_out: 0,
            spills: 0,
            passes: 0,
            profile: Profile::new(),
            io_base,
            trace: LocalTracer::disabled(),
        })
    }

    /// Attach a trace buffer; partition/reload events land on its track.
    pub fn set_tracer(&mut self, trace: LocalTracer) {
        self.trace = trace;
    }

    /// Update or create the resident state for `key`, charging the budget
    /// for growth. Returns `false` (leaving state untouched) if the key is
    /// new and the budget cannot take it.
    fn try_absorb(&mut self, fp: u64, key: &[u8], payload: &[u8], tag: u8) -> Result<bool> {
        if let Some(state) = self.resident.get_mut(fp, key) {
            let before = state.len();
            match tag {
                TAG_RAW => self.agg.update(key, state, payload),
                _ => self.agg.merge(key, state, payload),
            }
            resize(
                &self.budget,
                &mut self.reserved,
                &mut self.unsettled,
                before,
                state.len(),
            );
            self.peak_reserved = self.peak_reserved.max(self.reserved);
            return Ok(true);
        }
        // New key.
        let state = match tag {
            TAG_RAW => self.agg.init(key, payload),
            _ => StateBuf::from_slice(payload),
        };
        let cost = state_cost(key, &state);
        // Escalate to the governor (if leased) before partitioning or
        // spilling the record. The *first* key of a level is exempt and
        // force-charged (soft limit): recursion only terminates if every
        // level can keep at least one group resident — under a fully
        // subscribed shared pool a denied first key would re-spill a
        // single-key bucket unchanged, level after level, until the
        // depth cap trips.
        settle(&self.budget, &mut self.unsettled);
        if !self.budget.try_grant_or_request(cost) {
            if !self.resident.is_empty() {
                return Ok(false);
            }
            self.budget.force_grant(cost);
        }
        self.reserved += cost;
        self.peak_reserved = self.peak_reserved.max(self.reserved);
        self.resident.insert(fp, key, state);
        Ok(true)
    }

    /// Append a tagged record to `bucket`'s run.
    fn write_spill(&mut self, bucket: usize, key: &[u8], tag: u8, payload: &[u8]) -> Result<()> {
        let writer = self
            .spill
            .as_mut()
            .and_then(|writers| writers.get_mut(bucket))
            .ok_or_else(|| Error::InvalidState("hybrid hash spilled before partitioning".into()))?;
        write_tagged(writer.as_mut(), &mut self.scratch, key, tag, payload)
    }

    /// Move every resident state for which `pick` names a bucket into
    /// that bucket's run as a partial state, releasing its budget. Stops
    /// at the first write error, leaving the remaining states resident.
    fn spill_residents(
        &mut self,
        mut pick: impl FnMut(&mut Self, u64, &[u8], &[u8]) -> Option<usize>,
    ) -> Result<()> {
        settle(&self.budget, &mut self.unsettled);
        let mut resident = std::mem::take(&mut self.resident);
        let result = spill_entries(&mut resident, |fp, key, state| {
            let Some(bucket) = pick(self, fp, key, state) else {
                return Ok(false);
            };
            self.write_spill(bucket, key, TAG_STATE, state)?;
            let cost = state_cost(key, state);
            self.budget.release(cost);
            self.reserved -= cost;
            Ok(true)
        });
        self.resident = resident;
        result
    }

    /// First budget exhaustion: open spill writers and evict every
    /// resident state whose key does not hash to bucket 0.
    fn partition(&mut self) -> Result<()> {
        let t = Stamp::start(Phase::MapHash);
        let mut writers = Vec::with_capacity(self.fanout);
        for _ in 0..self.fanout {
            writers.push(self.store.begin_run()?);
        }
        self.spill = Some(writers);
        self.spills += 1;
        let before = self.resident.len();
        self.spill_residents(|g, fp, _, _| {
            Some(g.hasher.bucket_fp(fp, g.fanout)).filter(|&b| b != 0)
        })?;
        self.trace.instant(
            "partition",
            "spill",
            &[
                ("level", self.level as f64),
                ("evicted_keys", (before - self.resident.len()) as f64),
            ],
        );
        t.stop(&mut self.profile, &mut self.trace);
        Ok(())
    }

    /// Push a record whose payload is either a raw value (`tag` =
    /// [`TAG_RAW`]) or a partial aggregate state (`tag` = [`TAG_STATE`]).
    /// Used by `freq_hash` to hand off its cold buckets, and internally
    /// for recursion. Callers must count `records_in` themselves if they
    /// care about it. The key is fingerprinted here, once: routing, the
    /// probe, the insert and the run-0 set all read that value.
    pub(crate) fn push_tagged(&mut self, key: &[u8], payload: &[u8], tag: u8) -> Result<()> {
        let fp = fingerprint(key);
        if self.spill.is_none() {
            if self.try_absorb(fp, key, payload, tag)? {
                return Ok(());
            }
            self.partition()?;
            // Fall through: route the record that triggered partitioning.
        }
        // Partitioned mode: bucket 0 keys update resident state when
        // possible; everything else goes to its bucket's run.
        let bucket = self.hasher.bucket_fp(fp, self.fanout);
        if bucket == 0 {
            if self.try_absorb(fp, key, payload, tag)? {
                return Ok(());
            }
            // Bucket-0 keys that could not stay resident overflow into run
            // 0: keeping them separate from bucket 1..B is what guarantees
            // each child sees at most ~1/fanout of this level's keys
            // (merging them into another bucket would let tiny budgets
            // recurse almost without shrinking).
            self.run0_keys.insert(fp, key, ());
        }
        self.write_spill(bucket, key, tag, payload)
    }

    /// Emit all resident groups and drop their budget reservation.
    /// Residents with records in run 0 are incomplete — their partial
    /// state goes to run 0 for the child pass to merge and emit exactly
    /// once.
    fn emit_resident(&mut self, sink: &mut dyn Sink) -> Result<()> {
        let t = Stamp::start(Phase::ReduceFn);
        settle(&self.budget, &mut self.unsettled);
        if !self.run0_keys.is_empty() {
            self.spill_residents(|g, fp, key, _| g.run0_keys.get(fp, key).map(|_| 0))?;
        }
        let (agg, out, groups_out) = (self.agg.as_ref(), &mut self.out, &mut self.groups_out);
        self.resident.drain(|key, state| {
            sink.emit(key, render(agg, key, &state, out), EmitKind::Final);
            *groups_out += 1;
        });
        self.budget.release(self.reserved);
        self.reserved = 0;
        t.stop(&mut self.profile, &mut self.trace);
        Ok(())
    }
}

impl GroupBy for HybridHashGrouper {
    fn push_batch(&mut self, batch: &SegmentBuf, _sink: &mut dyn Sink) -> Result<()> {
        self.records_in += batch.len() as u64;
        let pushed = batch
            .iter()
            .try_for_each(|(key, value)| self.push_tagged(key, value, TAG_RAW));
        settle(&self.budget, &mut self.unsettled);
        pushed
    }

    fn shed(&mut self, target_bytes: usize) -> Result<usize> {
        let start = self.reserved;
        if self.spill.is_none() {
            if self.resident.is_empty() {
                return Ok(0);
            }
            // Partitioning *is* the natural shed: every non-bucket-0
            // state moves to its bucket's run.
            self.partition()?;
        }
        if start - self.reserved < target_bytes && !self.resident.is_empty() {
            // Still short: evict bucket-0 residents into run 0 (their
            // overflow run) as partial states. `run0_keys` keeps any
            // later re-admission of these keys correct.
            let mut planned = start - self.reserved;
            self.spill_residents(|g, fp, key, state| {
                if planned >= target_bytes {
                    return None;
                }
                planned += state_cost(key, state);
                g.run0_keys.insert(fp, key, ());
                Some(0)
            })?;
        }
        Ok(start - self.reserved)
    }

    fn finish(&mut self, sink: &mut dyn Sink) -> Result<OpStats> {
        self.emit_resident(sink)?;

        let mut groups_out = self.groups_out;
        let mut spills = self.spills;
        let mut passes = self.passes;
        let mut profile = self.profile.clone();

        if let Some(writers) = self.spill.take() {
            let metas: Vec<RunMeta> = writers
                .into_iter()
                .map(|w| w.finish())
                .collect::<Result<_>>()?;
            for meta in metas {
                if meta.records == 0 {
                    self.store.delete_run(meta.id)?;
                    continue;
                }
                passes += 1;
                self.trace.instant(
                    "bucket_reload",
                    "spill",
                    &[
                        ("level", self.level as f64),
                        ("bytes", meta.bytes as f64),
                        ("records", meta.records as f64),
                    ],
                );
                // Recurse with the next hash function.
                let mut child = HybridHashGrouper::at_level(
                    Arc::clone(&self.store),
                    self.budget.clone(),
                    self.fanout,
                    Arc::clone(&self.agg),
                    self.level + 1,
                )?;
                child.set_tracer(self.trace.fork());
                {
                    let mut reader = self.store.open_run(meta.id)?;
                    while let Some(rec) = reader.next_record()? {
                        let (tag, payload) = split_tagged(rec.value)?;
                        child.push_tagged(rec.key, payload, tag)?;
                    }
                }
                self.store.delete_run(meta.id)?;
                let child_stats = child.finish(sink)?;
                groups_out += child_stats.groups_out;
                spills += child_stats.spills;
                passes += child_stats.passes;
                profile.merge(&child_stats.profile);
            }
        }

        Ok(OpStats {
            records_in: self.records_in,
            groups_out,
            early_emits: 0, // hybrid hash is blocking, like sort-merge
            io: io_since(self.store.as_ref(), &self.io_base),
            profile,
            peak_mem: self.peak_reserved,
            spills,
            passes,
        })
    }

    fn name(&self) -> &'static str {
        "hybrid-hash"
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
                    format!("key{:05}", i.wrapping_mul(2_654_435_761) % distinct).into_bytes(),
                    format!("v{i}").into_bytes(),
                )
            })
            .collect()
    }

    fn grouper(budget: usize, fanout: usize) -> (HybridHashGrouper, SharedMemStore) {
        let store = SharedMemStore::new();
        let g = HybridHashGrouper::new(
            Arc::new(store.clone()),
            MemoryBudget::new(budget),
            fanout,
            Arc::new(CountAgg),
        )
        .unwrap();
        (g, store)
    }

    #[test]
    fn in_memory_when_data_fits() {
        let (mut g, store) = grouper(1 << 20, 8);
        let recs = records(500, 20);
        let (out, stats, _) = run_op(&mut g, pairs(&recs));
        assert_eq!(out.len(), 20);
        for (k, c) in count_truth(pairs(&recs)) {
            assert_eq!(dec_u64(&out[&k]), c);
        }
        assert_eq!(
            stats.io.bytes_written, 0,
            "in-memory hybrid hash spills nothing"
        );
        assert_eq!(store.live_runs(), 0);
    }

    #[test]
    fn the_budget_holds_what_the_operator_reserved_after_every_batch() {
        // Growing list states, charged once per batch: with room to
        // spare, and partitioned.
        for limit in [usize::MAX / 2, 2048] {
            let budget = MemoryBudget::new(limit);
            let mut g = HybridHashGrouper::new(
                Arc::new(SharedMemStore::new()),
                budget.clone(),
                4,
                Arc::new(ListAgg),
            )
            .unwrap();
            let mut sink = crate::sink::VecSink::default();
            let recs = records(3000, 40);
            for chunk in recs.chunks(97) {
                g.push_batch(&SegmentBuf::from_pairs(pairs(chunk)), &mut sink)
                    .unwrap();
                assert_eq!(budget.used(), g.reserved, "{limit}-byte budget");
            }
            assert_eq!(g.spill.is_some(), limit == 2048);
            g.finish(&mut sink).unwrap();
            assert_eq!(budget.used(), 0, "{limit}-byte budget");
        }
    }

    #[test]
    fn partitions_and_recurses_under_pressure() {
        let (mut g, store) = grouper(1200, 4);
        let recs = records(2000, 300);
        let (out, stats, _) = run_op(&mut g, pairs(&recs));
        assert_eq!(out.len(), 300);
        for (k, c) in count_truth(pairs(&recs)) {
            assert_eq!(dec_u64(&out[&k]), c, "count mismatch for {k:?}");
        }
        assert!(
            stats.spills >= 1,
            "budget pressure must trigger partitioning"
        );
        assert!(stats.io.bytes_written > 0);
        assert!(stats.passes >= 1, "spilled buckets must be recursed");
        assert_eq!(store.live_runs(), 0, "all runs must be cleaned up");
    }

    #[test]
    fn a_key_is_fingerprinted_once_per_record_at_every_level() {
        use crate::test_support::{fingerprints_during, records_replayed};
        use onepass_core::trace::{Tracer, Track};
        let tracer = Tracer::enabled();
        let (mut g, _) = grouper(1200, 4);
        g.set_tracer(tracer.local(Track::new("reduce", 0)));
        // Absorbed, inserted, routed to a bucket run and overflowed to run
        // 0 alike: the one value computed on entry serves them all, and
        // partitioning re-buckets residents from their stored values.
        let recs = records(2000, 300);
        let batch = SegmentBuf::from_pairs(pairs(&recs));
        let mut sink = crate::sink::VecSink::default();
        let pushing = fingerprints_during(|| g.push_batch(&batch, &mut sink).unwrap());
        assert_eq!(pushing, 2000);
        assert!(g.spill.is_some() && !g.run0_keys.is_empty());
        let mut passes = 0;
        let recursing = fingerprints_during(|| passes = g.finish(&mut sink).unwrap().passes);
        drop(g);
        assert!(passes > 4, "children partitioned again: {passes} passes");
        assert_eq!(recursing, records_replayed(&tracer));
    }

    #[test]
    fn no_sort_cpu_is_charged() {
        let (mut g, _) = grouper(900, 4);
        let recs = records(1500, 200);
        let (_, stats, _) = run_op(&mut g, pairs(&recs));
        assert_eq!(
            stats.profile.time(Phase::MapSort),
            std::time::Duration::ZERO,
            "hash grouping must never sort"
        );
    }

    #[test]
    fn heavy_single_key_stays_resident() {
        // One key dominating the stream must not cause unbounded
        // recursion: its state lives in memory and absorbs everything.
        let (mut g, _) = grouper(800, 4);
        let recs: Vec<_> = (0..5000u32)
            .map(|i| (b"hot".to_vec(), i.to_le_bytes().to_vec()))
            .collect();
        let (out, stats, _) = run_op(&mut g, pairs(&recs));
        assert_eq!(out.len(), 1);
        assert_eq!(dec_u64(&out[b"hot".as_slice()]), 5000);
        assert_eq!(stats.io.bytes_written, 0);
    }

    #[test]
    fn list_agg_under_pressure_collects_everything() {
        let store = SharedMemStore::new();
        let mut g = HybridHashGrouper::new(
            Arc::new(store.clone()),
            MemoryBudget::new(2500),
            4,
            Arc::new(ListAgg),
        )
        .unwrap();
        let recs = records(400, 80);
        let (out, _, _) = run_op(&mut g, pairs(&recs));
        assert_eq!(out.len(), 80);
        let total: usize = out.values().map(|v| ListAgg::decode(v).len()).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn fanout_below_two_rejected() {
        let store: Arc<dyn SpillStore> = Arc::new(SharedMemStore::new());
        assert!(
            HybridHashGrouper::new(store, MemoryBudget::unlimited(), 1, Arc::new(CountAgg))
                .is_err()
        );
    }

    #[test]
    fn empty_input() {
        let (mut g, _) = grouper(1024, 4);
        let (out, stats, _) = run_op(&mut g, pairs(&[]));
        assert!(out.is_empty());
        assert_eq!(stats.records_in, 0);
    }

    #[test]
    fn recursion_terminates_on_adversarial_distincts() {
        // Millions of distinct keys relative to the budget: recursion
        // must keep splitting (independent hash per level) and finish.
        let store = SharedMemStore::new();
        let mut g = HybridHashGrouper::new(
            Arc::new(store.clone()),
            MemoryBudget::new(600),
            2, // minimal fanout: deepest possible recursion
            Arc::new(CountAgg),
        )
        .unwrap();
        let recs: Vec<_> = (0..3000u32)
            .map(|i| (i.to_le_bytes().to_vec(), b"v".to_vec()))
            .collect();
        let (out, stats, _) = run_op(&mut g, pairs(&recs));
        assert_eq!(out.len(), 3000);
        assert!(stats.passes > 1, "expected recursive passes");
        assert_eq!(store.live_runs(), 0);
    }

    #[test]
    fn budget_fully_released() {
        let budget = MemoryBudget::new(1500);
        let store = SharedMemStore::new();
        let mut g =
            HybridHashGrouper::new(Arc::new(store), budget.clone(), 4, Arc::new(CountAgg)).unwrap();
        let recs = records(1000, 150);
        let _ = run_op(&mut g, pairs(&recs));
        assert_eq!(budget.used(), 0);
    }
}
