//! Incremental hash with frequent-key residency — §V reduce technique 3.
//!
//! "For the case that the memory cannot hold the states of all the keys,
//! we further optimize the incremental hash by borrowing an existing
//! online frequent algorithm to identify hot keys, and keep hot keys in
//! memory. As the size of a state is usually sublinear in the number of
//! values aggregated, maintaining hot keys instead of random keys in
//! memory results in less I/Os. Moreover, hot keys are typically of
//! greater importance to the users. This technique can return
//! (approximate) results for these keys as early as when all the input
//! data has arrived."
//!
//! Mechanics:
//! * a record whose key is resident updates that state in place
//!   (incremental hash) and bumps the entry's own hit counter — the
//!   common case touches one hash table and nothing else;
//! * a record whose key is *not* resident is inserted while the budget
//!   has room; once it is full, the miss is counted in an online
//!   frequent-items summary ([`MisraGries`]) and a **hotness gate**
//!   decides: if the key's guaranteed miss count exceeds the hit count of
//!   the residents last evicted, an eviction round makes room; otherwise
//!   the record itself spills. Cold spill is hash-partitioned into
//!   buckets up front;
//! * an eviction round ranks residents by hit count and spills the
//!   coldest partial states until a **byte target** is free (the table
//!   back under 90% of its budget). States of a holistic aggregate grow
//!   with their hits, so a round sized in keys would free almost nothing;
//! * `finish` first answers the resident hot keys straight from memory,
//!   the moment input ends: a state that was inserted before the first
//!   cold write and never evicted is its key's complete group and goes
//!   out as its **final** answer; every other resident state goes out as
//!   an **early (approximate) answer** and is flushed into its cold
//!   bucket. Each bucket is then resolved exactly with a
//!   [`HybridHashGrouper`] child, so every key gets exactly one exact
//!   final answer.
//!
//! On skewed data the cold spill carries only the distribution's tail, so
//! spill I/O drops by orders of magnitude versus sort-merge — the §V
//! claim `exp_section5` reproduces.

use std::sync::Arc;

use onepass_core::error::Result;
use onepass_core::hashlib::{ByteMap, MultiplyShift, SeededFamily};
use onepass_core::io::{IoStats, RunMeta, RunWriter, SpillStore};
use onepass_core::memory::MemoryBudget;
use onepass_core::metrics::{Phase, Profile};
use onepass_core::trace::LocalTracer;
use onepass_core::SegmentBuf;
use onepass_sketch::{FrequentItems, MisraGries};

use crate::aggregate::Aggregator;
use crate::hybrid_hash::{
    spill_entries, split_tagged, write_tagged, HybridHashGrouper, TAG_RAW, TAG_STATE,
};
use crate::sink::{EmitKind, OpStats, Sink};
use crate::GroupBy;

/// Per-key bookkeeping overhead charged to the budget.
const STATE_OVERHEAD: usize = 48;

/// Share of the budget an eviction round leaves free.
const EVICT_HEADROOM_DIV: usize = 10;

/// Configuration for [`FreqHashGrouper`].
#[derive(Debug, Clone)]
pub struct FreqHashConfig {
    /// Counters in the frequent-items summary (more ⇒ finer hot/cold
    /// discrimination, more sketch memory). Default 1024.
    pub sketch_capacity: usize,
    /// Emit resident (hot-key) states as early answers at the start of
    /// `finish`, before any disk pass. Default true.
    pub early_hot_answers: bool,
    /// Number of hash buckets for the cold spill. Default 16.
    pub cold_fanout: usize,
    /// Fanout of the hybrid-hash children that resolve cold buckets.
    /// Default 8.
    pub resolve_fanout: usize,
}

impl Default for FreqHashConfig {
    fn default() -> Self {
        FreqHashConfig {
            sketch_capacity: 1024,
            early_hot_answers: true,
            cold_fanout: 16,
            resolve_fanout: 8,
        }
    }
}

/// One resident key: its partial state and how many records it absorbed
/// (seeded with the key's guaranteed miss count when the hotness gate
/// admitted it). Eviction ranks on `hits`.
struct Resident {
    state: Vec<u8>,
    hits: u64,
    /// Inserted before the first cold write and resident ever since: no
    /// record of this key is on disk, so the state is its exact group.
    complete: bool,
}

/// The cold side, opened at the first spill: one run per hash bucket and
/// the buffer tagged payloads are framed in.
struct ColdRuns {
    writers: Vec<Box<dyn RunWriter>>,
    scratch: Vec<u8>,
}

/// The frequent-key incremental hash group-by operator.
pub struct FreqHashGrouper {
    store: Arc<dyn SpillStore>,
    budget: MemoryBudget,
    agg: Arc<dyn Aggregator>,
    /// Counts misses only: records whose key was not resident while the
    /// budget was full.
    sketch: MisraGries,
    config: FreqHashConfig,
    /// Cached cold-bucket hasher (member 1_000_003 of the default
    /// [`SeededFamily`]) — built once so per-record cold routing never
    /// re-derives the member.
    cold_hasher: MultiplyShift,
    states: ByteMap<Resident>,
    reserved: usize,
    peak_reserved: usize,
    cold: Option<ColdRuns>,
    /// Hit count of the hottest resident the last eviction round spilled;
    /// a missing key must be guaranteed hotter than this to start another
    /// round.
    cold_threshold: u64,
    records_in: u64,
    groups_out: u64,
    early_emits: u64,
    evictions: u64,
    spills: u64,
    profile: Profile,
    io_base: IoStats,
    trace: LocalTracer,
}

impl std::fmt::Debug for FreqHashGrouper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreqHashGrouper")
            .field("resident_keys", &self.states.len())
            .field("evictions", &self.evictions)
            .finish()
    }
}

impl FreqHashGrouper {
    /// Create with default configuration.
    pub fn new(store: Arc<dyn SpillStore>, budget: MemoryBudget, agg: Arc<dyn Aggregator>) -> Self {
        Self::with_config(store, budget, agg, FreqHashConfig::default())
    }

    /// Create with explicit configuration.
    pub fn with_config(
        store: Arc<dyn SpillStore>,
        budget: MemoryBudget,
        agg: Arc<dyn Aggregator>,
        config: FreqHashConfig,
    ) -> Self {
        let io_base = store.stats();
        let sketch = MisraGries::new(config.sketch_capacity.max(1));
        // Member index chosen not to collide with the hybrid children's
        // level-0 function (they start at member 0).
        let cold_hasher = SeededFamily::default().member(1_000_003);
        FreqHashGrouper {
            store,
            budget,
            agg,
            sketch,
            cold_hasher,
            config,
            states: ByteMap::default(),
            reserved: 0,
            peak_reserved: 0,
            cold: None,
            cold_threshold: 0,
            records_in: 0,
            groups_out: 0,
            early_emits: 0,
            evictions: 0,
            spills: 0,
            profile: Profile::new(),
            io_base,
            trace: LocalTracer::disabled(),
        }
    }

    /// Attach a trace buffer; admit/evict/spill events land on its track.
    pub fn set_tracer(&mut self, trace: LocalTracer) {
        self.trace = trace;
    }

    /// Number of keys currently resident.
    pub fn resident_keys(&self) -> usize {
        self.states.len()
    }

    /// Eviction rounds performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Read access to the resident state of `key` (tests/diagnostics).
    pub fn resident_state(&self, key: &[u8]) -> Option<&[u8]> {
        self.states.get(key).map(|r| r.state.as_slice())
    }

    fn state_cost(key: &[u8], state: &[u8]) -> usize {
        key.len() + state.len() + STATE_OVERHEAD
    }

    /// Absorb `value` into `key`'s resident state; false if not resident.
    fn update_resident(&mut self, key: &[u8], value: &[u8]) -> bool {
        let Some(resident) = self.states.get_mut(key) else {
            return false;
        };
        resident.hits += 1;
        let before = resident.state.len();
        self.agg.update(key, &mut resident.state, value);
        let after = resident.state.len();
        if after > before {
            self.budget.force_grant(after - before);
            self.reserved += after - before;
        } else if before > after {
            self.budget.release(before - after);
            self.reserved -= before - after;
        }
        self.peak_reserved = self.peak_reserved.max(self.reserved);
        true
    }

    /// Insert a new resident state if the budget allows.
    fn try_insert(&mut self, key: &[u8], value: &[u8], hits: u64) -> bool {
        // The entry's fixed part is charged first, so on a full budget —
        // every cold record — this fails before `init` allocates a state.
        // Escalates to the governor (if leased) before the hotness gate
        // decides between eviction and cold spill. The state itself is
        // charged like in-place growth: softly.
        let fixed = key.len() + STATE_OVERHEAD;
        if !self.budget.try_grant_or_request(fixed) {
            return false;
        }
        let state = self.agg.init(key, value);
        self.budget.force_grant(state.len());
        self.reserved += fixed + state.len();
        self.peak_reserved = self.peak_reserved.max(self.reserved);
        let complete = self.cold.is_none();
        self.states.insert(
            key.to_vec(),
            Resident {
                state,
                hits,
                complete,
            },
        );
        true
    }

    /// One eviction round: spill resident partial states, fewest hits
    /// first, until `target_bytes` are free, and move the cold threshold
    /// to the hottest state spilled. Returns the bytes freed.
    fn evict_bytes(&mut self, target_bytes: usize) -> Result<usize> {
        let group_start = std::time::Instant::now();
        let mut ranked: Vec<(u64, &[u8], usize)> = self
            .states
            .iter()
            .map(|(k, r)| (r.hits, k.as_slice(), Self::state_cost(k, &r.state)))
            .collect();
        ranked.sort_unstable();
        if ranked.is_empty() {
            return Ok(0);
        }
        let mut planned = 0usize;
        let last = ranked
            .iter()
            .position(|&(_, _, cost)| {
                planned += cost;
                planned >= target_bytes
            })
            .unwrap_or(ranked.len() - 1);
        // `(hits, key)` is a total order, so the victims are exactly the
        // entries at or below the cut.
        let cut = (ranked[last].0, ranked[last].1.to_vec());
        let before = (self.states.len(), self.reserved);
        let mut states = std::mem::take(&mut self.states);
        let result = spill_entries(&mut states, |key, r| {
            if (r.hits, key) > (cut.0, cut.1.as_slice()) {
                return Ok(false);
            }
            self.write_cold(key, &r.state, TAG_STATE)?;
            let cost = Self::state_cost(key, &r.state);
            self.budget.release(cost);
            self.reserved -= cost;
            Ok(true)
        });
        self.states = states;
        result?;
        // New keys no hotter than the hottest key just evicted shouldn't
        // start another round.
        self.cold_threshold = cut.0;
        self.evictions += 1;
        self.profile
            .add_time(Phase::ReduceGroup, group_start.elapsed());
        // Advertise how cold this operator's evictable tail is, so the
        // governor's ColdestKeys policy can rank victims.
        self.budget.publish_heat(self.cold_threshold);
        self.trace.instant(
            "evict",
            "freq",
            &[
                ("keys", (before.0 - self.states.len()) as f64),
                ("cold_threshold", self.cold_threshold as f64),
            ],
        );
        Ok(before.1 - self.reserved)
    }

    fn write_cold(&mut self, key: &[u8], payload: &[u8], tag: u8) -> Result<()> {
        let cold = match &mut self.cold {
            Some(cold) => cold,
            slot => {
                let mut writers = Vec::with_capacity(self.config.cold_fanout);
                for _ in 0..self.config.cold_fanout {
                    writers.push(self.store.begin_run()?);
                }
                self.spills += 1;
                slot.insert(ColdRuns {
                    writers,
                    scratch: Vec::new(),
                })
            }
        };
        let b = self.cold_hasher.bucket(key, cold.writers.len());
        write_tagged(
            cold.writers[b].as_mut(),
            &mut cold.scratch,
            key,
            tag,
            payload,
        )
    }

    /// Empty the table at end of input, straight from memory. A complete
    /// state is its key's exact group and goes out as final output. Any
    /// other partial state is published as an early (approximate) answer,
    /// then joins the rest of its key's data in its cold bucket.
    fn drain_residents(&mut self, sink: &mut dyn Sink) -> Result<()> {
        let mut reduce = std::time::Duration::ZERO;
        for (key, r) in std::mem::take(&mut self.states) {
            let reduce_start = std::time::Instant::now();
            if r.complete {
                let out = self.agg.finish(&key, r.state);
                sink.emit(&key, &out, EmitKind::Final);
                self.groups_out += 1;
                reduce += reduce_start.elapsed();
                continue;
            }
            if self.config.early_hot_answers {
                let out = self.agg.finish(&key, r.state.clone());
                sink.emit(&key, &out, EmitKind::Early);
                self.early_emits += 1;
                reduce += reduce_start.elapsed();
            }
            self.write_cold(&key, &r.state, TAG_STATE)?;
        }
        self.budget.release(self.reserved);
        self.reserved = 0;
        self.profile.add_time(Phase::ReduceFn, reduce);
        Ok(())
    }

    fn push_one(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.update_resident(key, value) || self.try_insert(key, value, 1) {
            return Ok(());
        }
        // Budget full and key not resident: count the miss, then the
        // hotness gate. The sketch sees misses only — a resident key's
        // heat is its own hit counter — so the common (hit) path never
        // pays for it. Its count is a guaranteed lower bound; an upper
        // bound would make every newly tracked key look hot and start
        // eviction storms.
        self.sketch.offer(key);
        let heat = self.sketch.lower_bound(key);
        let limit = self.budget.limit();
        let headroom = limit / EVICT_HEADROOM_DIV;
        let used = self.budget.used();
        // Resident states grow past the limit in place (soft charges); a
        // table that far over is cut back whatever this key's heat.
        if heat > self.cold_threshold || used > limit.saturating_add(headroom) {
            self.evict_bytes(used.saturating_sub(limit - headroom))?;
            // (A full summary may have discarded this very miss.)
            if self.try_insert(key, value, heat.max(1)) {
                self.trace
                    .instant("admit", "freq", &[("heat", heat as f64)]);
                return Ok(());
            }
            // Another holder of a shared budget took the room: spill.
        }
        self.write_cold(key, value, TAG_RAW)
    }
}

impl GroupBy for FreqHashGrouper {
    fn push_batch(&mut self, batch: &SegmentBuf, _sink: &mut dyn Sink) -> Result<()> {
        self.records_in += batch.len() as u64;
        for (key, value) in batch.iter() {
            self.push_one(key, value)?;
        }
        Ok(())
    }

    fn shed(&mut self, target_bytes: usize) -> Result<usize> {
        // Shed = one coldest-first eviction round sized by the request:
        // the shed states land in the cold buckets the exact pass already
        // resolves, so re-admitted keys stay correct (they come back
        // incomplete, and finish moves every incomplete resident to its
        // bucket).
        self.evict_bytes(target_bytes)
    }

    fn finish(&mut self, sink: &mut dyn Sink) -> Result<OpStats> {
        // 1. Hot-key answers, straight from memory: exact for the keys that
        //    never left it, early for the rest, whose partial states move
        //    into their buckets so the exact pass sees each remaining
        //    key's complete data in one place.
        self.drain_residents(sink)?;
        let Some(cold) = self.cold.take() else {
            // Everything fit in memory.
            let io_now = self.store.stats();
            return Ok(self.stats_snapshot(io_now, 0));
        };
        let metas: Vec<RunMeta> = cold
            .writers
            .into_iter()
            .map(|w| w.finish())
            .collect::<Result<_>>()?;

        // 2. Resolve each bucket exactly with a hybrid-hash child.
        let mut passes = 0u64;
        for meta in metas {
            if meta.records == 0 {
                self.store.delete_run(meta.id)?;
                continue;
            }
            passes += 1;
            self.trace.instant(
                "cold_bucket_resolve",
                "spill",
                &[
                    ("bytes", meta.bytes as f64),
                    ("records", meta.records as f64),
                ],
            );
            let mut child = HybridHashGrouper::new(
                Arc::clone(&self.store),
                self.budget.clone(),
                self.config.resolve_fanout,
                Arc::clone(&self.agg),
            )?;
            {
                let mut reader = self.store.open_run(meta.id)?;
                while let Some(rec) = reader.next_record()? {
                    let (tag, payload) = split_tagged(rec.value)?;
                    child.push_tagged(rec.key, payload, tag)?;
                }
            }
            self.store.delete_run(meta.id)?;
            let child_stats = child.finish(sink)?;
            self.groups_out += child_stats.groups_out;
            passes += child_stats.passes;
            self.profile.merge(&child_stats.profile);
        }

        let io_now = self.store.stats();
        Ok(self.stats_snapshot(io_now, passes))
    }

    fn name(&self) -> &'static str {
        "frequent-hash"
    }
}

impl FreqHashGrouper {
    fn stats_snapshot(&self, io_now: IoStats, passes: u64) -> OpStats {
        OpStats {
            records_in: self.records_in,
            groups_out: self.groups_out,
            early_emits: self.early_emits,
            io: IoStats {
                bytes_written: io_now.bytes_written - self.io_base.bytes_written,
                bytes_read: io_now.bytes_read - self.io_base.bytes_read,
                runs_created: io_now.runs_created - self.io_base.runs_created,
                runs_deleted: io_now.runs_deleted - self.io_base.runs_deleted,
            },
            profile: self.profile.clone(),
            peak_mem: self.peak_reserved,
            spills: self.spills,
            passes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CountAgg;
    use crate::sink::VecSink;
    use crate::test_support::{count_truth, dec_u64, pairs, run_op};
    use crate::SortMergeGrouper;
    use onepass_core::io::SharedMemStore;

    /// Skewed stream: 50% of records hit key 0; the rest cycle uniformly
    /// over the remaining `distinct - 1` keys.
    fn skewed_records(n: u32, distinct: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut recs = Vec::with_capacity(n as usize);
        let mut j = 0u32;
        for i in 0..n {
            j = (j + 1) % distinct.max(2);
            let key_id = if i % 2 == 0 { 0 } else { j.max(1) };
            recs.push((
                format!("key{:05}", key_id).into_bytes(),
                format!("v{i}").into_bytes(),
            ));
        }
        recs
    }

    #[test]
    fn exact_results_under_memory_pressure() {
        let store = SharedMemStore::new();
        let mut g = FreqHashGrouper::new(
            Arc::new(store.clone()),
            MemoryBudget::new(30 * (8 + 9 + STATE_OVERHEAD)),
            Arc::new(CountAgg),
        );
        let recs = skewed_records(4000, 500);
        let (out, stats, _) = run_op(&mut g, pairs(&recs));
        let truth = count_truth(pairs(&recs));
        assert_eq!(out.len(), truth.len());
        for (k, c) in truth {
            assert_eq!(dec_u64(&out[&k]), c, "count mismatch for {k:?}");
        }
        assert!(stats.spills >= 1);
        assert_eq!(store.live_runs(), 0);
    }

    #[test]
    fn hot_keys_stay_resident() {
        let store = SharedMemStore::new();
        let mut g = FreqHashGrouper::new(
            Arc::new(store),
            MemoryBudget::new(20 * (8 + 9 + STATE_OVERHEAD)),
            Arc::new(CountAgg),
        );
        let mut sink = VecSink::default();
        let recs = skewed_records(5000, 400);
        g.push_batch(&SegmentBuf::from_pairs(pairs(&recs)), &mut sink)
            .unwrap();
        assert!(
            g.resident_state(b"key00000").is_some(),
            "hottest key evicted — hotness gate failed"
        );
        g.finish(&mut sink).unwrap();
    }

    #[test]
    fn hot_keys_are_answered_before_any_disk_pass() {
        let store = SharedMemStore::new();
        let mut g = FreqHashGrouper::new(
            Arc::new(store.clone()),
            MemoryBudget::new(10 * (8 + 9 + STATE_OVERHEAD)),
            Arc::new(CountAgg),
        );
        let recs = skewed_records(2000, 300);
        // Every emission with the spill bytes read back so far.
        let mut emitted: Vec<(Vec<u8>, u64, EmitKind, u64)> = Vec::new();
        let mut sink = crate::sink::FnSink(|k: &[u8], v: &[u8], kind| {
            emitted.push((k.to_vec(), dec_u64(v), kind, store.stats().bytes_read));
        });
        g.push_batch(&SegmentBuf::from_pairs(pairs(&recs)), &mut sink)
            .unwrap();
        let stats = g.finish(&mut sink).unwrap();
        assert!(stats.spills >= 1, "the budget must force a cold spill");
        assert!(
            stats.early_emits > 0,
            "partial hot states are answered early"
        );
        let truth = count_truth(pairs(&recs));
        // The hottest key arrived first and never left memory: one exact
        // answer, straight from the table.
        let hot: Vec<_> = emitted.iter().filter(|e| e.0 == b"key00000").collect();
        assert_eq!(hot.len(), 1, "a complete state needs no early duplicate");
        let (_, count, kind, read_before) = hot[0];
        assert_eq!(
            (*count, *kind),
            (truth[b"key00000".as_slice()], EmitKind::Final)
        );
        assert_eq!(*read_before, 0, "answered before any run was read back");
        // Early answers also come from memory, and each is a lower bound
        // its key's final answer later completes.
        for (key, count, kind, read_before) in &emitted {
            if *kind == EmitKind::Early {
                assert_eq!(*read_before, 0);
                assert!(*count <= truth[key.as_slice()]);
            }
        }
        let finals = emitted.iter().filter(|e| e.2 == EmitKind::Final);
        assert_eq!(finals.count(), truth.len(), "one final per key");
    }

    /// Resident `key`'s hit count, if resident.
    fn hits(g: &FreqHashGrouper, key: &[u8]) -> Option<u64> {
        g.states.get(key).map(|r| r.hits)
    }

    /// A key that keeps hitting while resident outranks every resident
    /// with fewer hits, whether the state grows with its hits (list) or
    /// not (count): rounds evict strictly coldest-first.
    fn eviction_is_coldest_first(agg: Arc<dyn Aggregator>) {
        let mut g = FreqHashGrouper::new(
            Arc::new(SharedMemStore::new()),
            MemoryBudget::unlimited(),
            agg,
        );
        let mut sink = VecSink::default();
        // Key i absorbs i + 1 records.
        let recs: Vec<(Vec<u8>, Vec<u8>)> = (0..40u32)
            .flat_map(|i| (0..=i).map(move |j| (format!("k{i:02}").into_bytes(), vec![j as u8; 8])))
            .collect();
        g.push_batch(&SegmentBuf::from_pairs(pairs(&recs)), &mut sink)
            .unwrap();
        // A 200-byte round takes at most four of the smallest entries.
        while g.resident_keys() > 4 {
            let before: Vec<(Vec<u8>, u64)> =
                g.states.iter().map(|(k, r)| (k.clone(), r.hits)).collect();
            assert!(g.shed(200).unwrap() > 0);
            let coldest_left = g.states.values().map(|r| r.hits).min().unwrap_or(u64::MAX);
            for (key, had) in before {
                if hits(&g, &key).is_none() {
                    assert!(
                        had < coldest_left,
                        "{had} hits evicted before {coldest_left}"
                    );
                }
            }
        }
        assert_eq!(
            hits(&g, b"k39"),
            Some(40),
            "the hottest key outlasts the rest"
        );
        g.finish(&mut sink).unwrap();
        assert_eq!(sink.final_count(), 40);
    }

    #[test]
    fn eviction_is_coldest_first_for_constant_size_states() {
        eviction_is_coldest_first(Arc::new(CountAgg));
    }

    #[test]
    fn eviction_is_coldest_first_for_growing_states() {
        eviction_is_coldest_first(Arc::new(crate::aggregate::ListAgg));
    }

    #[test]
    fn spills_far_less_than_sortmerge_on_skew() {
        // The §V claim, at unit-test scale: same skewed input, same
        // budget; frequent-hash spill I/O must be a small fraction of
        // sort-merge spill I/O. (exp_section5 reproduces the full
        // orders-of-magnitude version at scale with real Zipf data.)
        let budget_bytes = 40 * (9 + 8 + STATE_OVERHEAD);
        let recs = skewed_records(20_000, 800);

        let sm_store = SharedMemStore::new();
        let mut sm = SortMergeGrouper::new(
            Arc::new(sm_store),
            MemoryBudget::new(budget_bytes),
            10,
            Arc::new(CountAgg),
        )
        .unwrap();
        let (sm_out, sm_stats, _) = run_op(&mut sm, pairs(&recs));

        let fh_store = SharedMemStore::new();
        let mut fh = FreqHashGrouper::new(
            Arc::new(fh_store),
            MemoryBudget::new(budget_bytes),
            Arc::new(CountAgg),
        );
        let (fh_out, fh_stats, _) = run_op(&mut fh, pairs(&recs));

        assert_eq!(sm_out, fh_out, "both operators must agree exactly");
        assert!(
            fh_stats.spill_traffic() * 3 < sm_stats.spill_traffic(),
            "freq-hash spill {} should be far below sort-merge {}",
            fh_stats.spill_traffic(),
            sm_stats.spill_traffic()
        );
    }

    #[test]
    fn all_in_memory_zero_io() {
        let store = SharedMemStore::new();
        let mut g = FreqHashGrouper::new(
            Arc::new(store),
            MemoryBudget::unlimited(),
            Arc::new(CountAgg),
        );
        let recs = skewed_records(1000, 100);
        let (out, stats, sink) = run_op(&mut g, pairs(&recs));
        assert_eq!(out.len(), count_truth(pairs(&recs)).len());
        assert_eq!(stats.io.bytes_written, 0);
        assert_eq!(sink.early_count(), 0, "no early pass needed when exact");
    }

    #[test]
    fn budget_released() {
        let budget = MemoryBudget::new(3000);
        let store = SharedMemStore::new();
        let mut g = FreqHashGrouper::new(Arc::new(store), budget.clone(), Arc::new(CountAgg));
        let _ = run_op(&mut g, pairs(&skewed_records(3000, 400)));
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn disabling_early_answers_suppresses_them() {
        let store = SharedMemStore::new();
        let mut g = FreqHashGrouper::with_config(
            Arc::new(store),
            MemoryBudget::new(2000),
            Arc::new(CountAgg),
            FreqHashConfig {
                early_hot_answers: false,
                ..Default::default()
            },
        );
        let (_, stats, sink) = run_op(&mut g, pairs(&skewed_records(3000, 400)));
        assert_eq!(stats.early_emits, 0);
        assert_eq!(sink.early_count(), 0);
    }
}
