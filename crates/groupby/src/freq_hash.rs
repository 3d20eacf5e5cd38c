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
//! * every record updates an online frequent-items summary
//!   ([`SpaceSaving`] by default);
//! * resident states absorb their records in place (incremental hash);
//! * when a *new* key arrives under a full budget, a **hotness gate**
//!   decides: if the summary ranks it above the coldest resident keys, a
//!   batch of the coldest residents is evicted (partial states spilled)
//!   to make room; otherwise the record itself spills. Cold spill is
//!   hash-partitioned into buckets up front;
//! * `finish` first emits the resident hot keys' states as **early
//!   (approximate) answers** — available the moment input ends, without
//!   touching disk — then flushes those states into their cold buckets
//!   and resolves each bucket exactly with a
//!   [`HybridHashGrouper`] child,
//!   so every key gets exactly one exact final answer.
//!
//! On skewed data the cold spill carries only the distribution's tail, so
//! spill I/O drops by orders of magnitude versus sort-merge — the §V
//! claim `exp_section5` reproduces.

use std::sync::Arc;

use onepass_core::error::{Error, Result};
use onepass_core::hashlib::{ByteMap, MultiplyShift, SeededFamily};
use onepass_core::io::{IoStats, RunMeta, RunWriter, SpillStore};
use onepass_core::memory::MemoryBudget;
use onepass_core::metrics::{Phase, Profile};
use onepass_core::trace::LocalTracer;
use onepass_core::SegmentBuf;
use onepass_sketch::{FrequentItems, LossyCounting, MisraGries, SpaceSaving};

use crate::aggregate::Aggregator;
use crate::hybrid_hash::{HybridHashGrouper, TAG_RAW, TAG_STATE};
use crate::sink::{EmitKind, OpStats, Sink};
use crate::GroupBy;

/// Per-key bookkeeping overhead charged to the budget.
const STATE_OVERHEAD: usize = 48;

/// Fraction of resident keys evicted per eviction batch.
const EVICT_FRACTION: f64 = 0.10;

/// Which online frequent-items algorithm identifies hot keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Detector {
    /// Misra-Gries: O(1) amortized updates, lower-bound counts — the
    /// default (the hotness gate wants guaranteed counts, and the
    /// update cost sits on the per-record hot path).
    MisraGries,
    /// Space-Saving: upper-bound counts with per-item error; guaranteed
    /// coverage of every key above N/k, at a higher per-update cost.
    SpaceSaving,
    /// Lossy Counting with the given ε.
    Lossy(f64),
}

/// Configuration for [`FreqHashGrouper`].
#[derive(Debug, Clone)]
pub struct FreqHashConfig {
    /// Counters in the frequent-items summary (more ⇒ finer hot/cold
    /// discrimination, more sketch memory). Default 1024.
    pub sketch_capacity: usize,
    /// Hot-key detection algorithm. Default Misra-Gries.
    pub detector: Detector,
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
            detector: Detector::MisraGries,
            early_hot_answers: true,
            cold_fanout: 16,
            resolve_fanout: 8,
        }
    }
}

/// The frequent-key incremental hash group-by operator.
pub struct FreqHashGrouper {
    store: Arc<dyn SpillStore>,
    budget: MemoryBudget,
    agg: Arc<dyn Aggregator>,
    sketch: Box<dyn FrequentItems>,
    config: FreqHashConfig,
    /// Cached cold-bucket hasher (member 1_000_003 of the default
    /// [`SeededFamily`]) — built once so per-record cold routing never
    /// re-derives the member.
    cold_hasher: MultiplyShift,
    states: ByteMap<Vec<u8>>,
    reserved: usize,
    peak_reserved: usize,
    /// Cold-bucket writers, created lazily on first spill.
    cold: Option<Vec<Box<dyn RunWriter>>>,
    /// Sketch-count floor below which new keys spill without attempting
    /// eviction; refreshed at each eviction batch.
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
        let k = config.sketch_capacity.max(1);
        let sketch: Box<dyn FrequentItems> = match config.detector {
            Detector::MisraGries => Box::new(MisraGries::new(k)),
            Detector::SpaceSaving => Box::new(SpaceSaving::new(k)),
            Detector::Lossy(eps) => Box::new(LossyCounting::new(eps)),
        };
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

    /// Eviction batches performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Read access to the resident state of `key` (tests/diagnostics).
    pub fn resident_state(&self, key: &[u8]) -> Option<&[u8]> {
        self.states.get(key).map(|s| s.as_slice())
    }

    fn state_cost(key: &[u8], state: &[u8]) -> usize {
        key.len() + state.len() + STATE_OVERHEAD
    }

    /// Hotness of a key: the sketch's *guaranteed* count lower bound
    /// (`count − error`), 0 when untracked. Using an upper bound here
    /// would make every newly-inserted Space-Saving entry (which inherits
    /// the evicted minimum as its count) look hot and trigger eviction
    /// storms; the lower bound only credits observed occurrences.
    fn heat(&self, key: &[u8]) -> u64 {
        self.sketch
            .estimate(key)
            .map(|h| h.count.saturating_sub(h.error))
            .unwrap_or(0)
    }

    /// Update resident state in place; true if the key was resident.
    fn update_resident(&mut self, key: &[u8], payload: &[u8], is_state: bool) -> bool {
        let Some(state) = self.states.get_mut(key) else {
            return false;
        };
        let before = state.len();
        if is_state {
            self.agg.merge(key, state, payload);
        } else {
            self.agg.update(key, state, payload);
        }
        let after = state.len();
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
    fn try_insert(&mut self, key: &[u8], payload: &[u8], is_state: bool) -> bool {
        let state = if is_state {
            payload.to_vec()
        } else {
            self.agg.init(key, payload)
        };
        let cost = Self::state_cost(key, &state);
        // Escalate to the governor (if leased) before the hotness gate
        // decides between eviction and cold spill.
        if !self.budget.try_grant_or_request(cost) {
            return false;
        }
        self.reserved += cost;
        self.peak_reserved = self.peak_reserved.max(self.reserved);
        self.states.insert(key.to_vec(), state);
        true
    }

    /// Evict the coldest `EVICT_FRACTION` of resident keys, spilling their
    /// partial states, and refresh the cold threshold.
    fn evict_batch(&mut self) -> Result<usize> {
        if self.states.is_empty() {
            return Ok(0);
        }
        let group_start = std::time::Instant::now();
        let mut ranked: Vec<(u64, Vec<u8>)> = self
            .states
            .keys()
            .map(|k| (self.heat(k), k.clone()))
            .collect();
        ranked.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let n_evict =
            ((ranked.len() as f64 * EVICT_FRACTION).ceil() as usize).clamp(1, ranked.len());
        // New keys colder than the hottest key just evicted shouldn't
        // re-trigger an eviction scan.
        self.cold_threshold = ranked[n_evict - 1].0;
        for (_, key) in ranked.into_iter().take(n_evict) {
            let state = self.states.remove(&key).expect("ranked key resident");
            self.write_cold(&key, &state, true)?;
            let cost = Self::state_cost(&key, &state);
            self.budget.release(cost);
            self.reserved -= cost;
        }
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
                ("keys", n_evict as f64),
                ("cold_threshold", self.cold_threshold as f64),
            ],
        );
        Ok(n_evict)
    }

    fn cold_bucket(&self, key: &[u8]) -> usize {
        self.cold_hasher.bucket(key, self.config.cold_fanout)
    }

    fn write_cold(&mut self, key: &[u8], payload: &[u8], is_state: bool) -> Result<()> {
        if self.cold.is_none() {
            let mut writers = Vec::with_capacity(self.config.cold_fanout);
            for _ in 0..self.config.cold_fanout {
                writers.push(self.store.begin_run()?);
            }
            self.cold = Some(writers);
            self.spills += 1;
        }
        let b = self.cold_bucket(key);
        let mut tagged = Vec::with_capacity(1 + payload.len());
        tagged.push(if is_state { TAG_STATE } else { TAG_RAW });
        tagged.extend_from_slice(payload);
        self.cold.as_mut().expect("just created")[b].write_record(key, &tagged)
    }

    /// Emit a snapshot of every resident (hot) state as an early answer.
    fn emit_resident_early(&mut self, sink: &mut dyn Sink) {
        let reduce_start = std::time::Instant::now();
        for (key, state) in &self.states {
            let out = self.agg.finish(key, state.clone());
            sink.emit(key, &out, EmitKind::Early);
            self.early_emits += 1;
        }
        self.profile
            .add_time(Phase::ReduceFn, reduce_start.elapsed());
    }

    /// Emit every resident group as exact final output and free memory.
    fn emit_resident_final(&mut self, sink: &mut dyn Sink) {
        let reduce_start = std::time::Instant::now();
        let states = std::mem::take(&mut self.states);
        for (key, state) in states {
            let out = self.agg.finish(&key, state);
            sink.emit(&key, &out, EmitKind::Final);
            self.groups_out += 1;
        }
        self.budget.release(self.reserved);
        self.reserved = 0;
        self.profile
            .add_time(Phase::ReduceFn, reduce_start.elapsed());
    }

    /// Flush all resident partial states into their cold buckets so each
    /// key's complete data lives in exactly one bucket.
    fn flush_resident_to_cold(&mut self) -> Result<()> {
        let keys: Vec<Vec<u8>> = self.states.keys().cloned().collect();
        for key in keys {
            let state = self.states.remove(&key).expect("listed");
            self.write_cold(&key, &state, true)?;
            let cost = Self::state_cost(&key, &state);
            self.budget.release(cost);
            self.reserved -= cost;
        }
        Ok(())
    }
}

impl FreqHashGrouper {
    fn push_one(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        // The sketch exists to rank evictions. Until the table nears its
        // budget (or has already spilled), per-record sketch maintenance
        // is pure overhead on the no-pressure fast path — so it stays
        // cold while used < limit/2. Estimates are lower bounds either
        // way; activating late only makes early evictions rank on less
        // history, never produces wrong answers.
        if self.cold.is_some() || self.budget.used() >= self.budget.limit() / 2 {
            self.sketch.offer(key);
        }
        if self.update_resident(key, value, false) {
            return Ok(());
        }
        if self.try_insert(key, value, false) {
            return Ok(());
        }
        // Budget full and key not resident: hotness gate.
        let heat = self.heat(key);
        if heat > self.cold_threshold {
            self.evict_batch()?;
            if self.try_insert(key, value, false) {
                self.trace
                    .instant("admit", "freq", &[("heat", heat as f64)]);
                return Ok(());
            }
            // Even after eviction it does not fit (giant state): spill.
        }
        self.write_cold(key, value, false)
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
        // Shed = repeated coldest-first eviction batches: the shed states
        // land in the cold buckets the exact pass already resolves, so
        // re-admitted keys stay correct (finish flushes residents to cold
        // whenever any cold spill exists).
        let start = self.reserved;
        while start - self.reserved < target_bytes {
            if self.evict_batch()? == 0 {
                break;
            }
        }
        Ok(start - self.reserved)
    }

    fn finish(&mut self, sink: &mut dyn Sink) -> Result<OpStats> {
        if self.cold.is_none() {
            // Everything fit in memory: resident states are exact already.
            self.emit_resident_final(sink);
            let io_now = self.store.stats();
            return Ok(self.stats_snapshot(io_now, 0));
        }

        // 1. Hot-key early answers, straight from memory.
        if self.config.early_hot_answers {
            self.emit_resident_early(sink);
        }

        // 2. Move the hot partial states into their buckets, so the exact
        //    pass sees each key's complete data in one place.
        self.flush_resident_to_cold()?;
        let writers = self.cold.take().expect("cold spill exists");
        let metas: Vec<RunMeta> = writers
            .into_iter()
            .map(|w| w.finish())
            .collect::<Result<_>>()?;

        // 3. Resolve each bucket exactly with a hybrid-hash child.
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
                    let (tag, payload) = rec
                        .value
                        .split_first()
                        .ok_or_else(|| Error::Corrupt("untagged cold record".into()))?;
                    let key = rec.key.to_vec();
                    let payload = payload.to_vec();
                    let tag = *tag;
                    child.push_tagged(&key, &payload, tag)?;
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
    fn early_hot_answers_precede_final() {
        let store = SharedMemStore::new();
        let mut g = FreqHashGrouper::new(
            Arc::new(store),
            MemoryBudget::new(10 * (8 + 9 + STATE_OVERHEAD)),
            Arc::new(CountAgg),
        );
        let recs = skewed_records(2000, 300);
        let (out, stats, sink) = run_op(&mut g, pairs(&recs));
        assert!(stats.early_emits > 0, "hot keys should be answered early");
        // The early answer for the hottest key must be close to its truth
        // (only pre-residency records can be missing from it).
        let truth = count_truth(pairs(&recs));
        let early_hot = sink
            .emitted
            .iter()
            .find(|(k, _, kind)| *kind == EmitKind::Early && k == b"key00000")
            .map(|(_, v, _)| dec_u64(v))
            .expect("hottest key answered early");
        let t = truth[b"key00000".as_slice()];
        assert!(
            early_hot * 10 >= t * 9,
            "early answer {early_hot} too far from truth {t}"
        );
        // And the final answer is exact.
        assert_eq!(dec_u64(&out[b"key00000".as_slice()]), t);
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
