//! Incremental hash, with or without frequent-key residency — §V reduce
//! techniques 2 and 3, one operator.
//!
//! Technique 2: "we further implement an incremental hash technique, which
//! maintains a state for each key, and updates it incrementally." The
//! reduce computation is applied "to all groups simultaneously" (§IV-3) as
//! records stream in, an optional early-emit period publishes a count
//! *while input is still arriving*, each time it reaches a multiple of the
//! period ("output a group as soon as the count of its items has reached
//! the threshold"), and states that fit in memory cost zero I/O.
//!
//! Technique 3: "For the case that the memory cannot hold the states of
//! all the keys, we further optimize the incremental hash by borrowing an
//! existing online frequent algorithm to identify hot keys, and keep hot
//! keys in memory. As the size of a state is usually sublinear in the
//! number of values aggregated, maintaining hot keys instead of random
//! keys in memory results in less I/Os. Moreover, hot keys are typically
//! of greater importance to the users. This technique can return
//! (approximate) results for these keys as early as when all the input
//! data has arrived."
//!
//! Technique 2 is technique 3 with the summary off, so there is one
//! operator, [`FreqHashGrouper`], and [`IncHashGrouper`] is the spelling
//! that builds it with the hot-key gate off.
//!
//! Mechanics:
//! * a record whose key is resident updates that state in place
//!   (incremental hash), bumps the entry's own hit counter and, if there
//!   is an early-emit period, checks the updated count against it — the
//!   common case touches one hash table and nothing else;
//! * a record whose key is *not* resident is inserted while the budget
//!   has room; once it is full, the miss is counted in an online
//!   frequent-items summary ([`MisraGries`]) and a **hotness gate**
//!   decides: if the key's guaranteed miss count exceeds the hit count of
//!   the residents last evicted, an eviction round makes room; otherwise
//!   the record itself spills. Cold spill is hash-partitioned into
//!   buckets up front. With the gate off there is no summary and every
//!   such miss spills: first come, first kept;
//! * an eviction round ranks residents by hit count and spills the
//!   coldest partial states until a **byte target** is free (the table
//!   back under 90% of its budget). States of a holistic aggregate grow
//!   with their hits, so a round sized in keys would free almost nothing.
//!   Either way a miss that finds the table more than the eviction
//!   headroom over its limit — in-place growth is charged softly — starts
//!   a round, so `peak_mem` stays within limit + headroom + what the hits
//!   since the last miss added. The cut reads the budget's current limit
//!   and runs the same on a private budget and on a governor lease: a
//!   lease's `shed` requests arrive only at batch boundaries and only when
//!   a *sibling* escalates, which bounds nothing about this operator's own
//!   growth. `serve_200` is the evidence that leased sessions lose nothing
//!   by it: its growing-state sessions (sessionization, inverted-index,
//!   join) have always run gate-on with the cut, and its gate-off sessions
//!   hold fixed-size counts, which cannot outgrow a lease in place;
//! * `finish` first answers the resident keys straight from memory, the
//!   moment input ends: a state that was inserted before the first cold
//!   write and never evicted is its key's complete group and goes out as
//!   its **final** answer; every other resident state is flushed into its
//!   cold bucket, after going out as an **early (approximate) answer**
//!   when the gate is on. Each bucket is then resolved exactly with a
//!   [`HybridHashGrouper`] child, so every key gets exactly one exact
//!   final answer — even on a budget smaller than one state, which the
//!   children's first-key exemption absorbs.
//!
//! On skewed data the cold spill carries only the distribution's tail, so
//! spill I/O drops by orders of magnitude versus sort-merge — the §V
//! claim `exp_section5` reproduces.

use std::num::NonZeroU64;
use std::sync::Arc;

use onepass_core::error::Result;
use onepass_core::fp_table::{FpTable, ENTRY_OVERHEAD};
use onepass_core::hashlib::{MultiplyShift, SeededFamily};
use onepass_core::io::{IoStats, RunMeta, RunWriter, SpillStore};
use onepass_core::memory::MemoryBudget;
use onepass_core::metrics::{Phase, Profile, Stamp};
use onepass_core::trace::LocalTracer;
use onepass_core::SegmentBuf;
use onepass_sketch::MisraGries;

use crate::aggregate::{le_u64, render, Aggregator};
use crate::hybrid_hash::{
    io_since, resize, settle, spill_entries, split_tagged, state_cost, write_tagged,
    HybridHashGrouper, TAG_RAW, TAG_STATE,
};
use crate::sink::{EmitKind, OpStats, Sink};
use crate::state::StateBuf;
use crate::{fingerprint, GroupBy};

/// Share of the budget an eviction round leaves free.
const EVICT_HEADROOM_DIV: usize = 10;

/// Counters in the frequent-items summary.
const SKETCH_CAPACITY: usize = 1024;

/// Hash buckets for the cold spill.
const COLD_FANOUT: usize = 16;

/// Fanout of the hybrid-hash children that resolve cold buckets.
const RESOLVE_FANOUT: usize = 8;

/// Publish `state` as an early answer, rendered in `out`, when it is a
/// little-endian count at a non-zero multiple of `every` (`None` never
/// fires) — a periodic refresh of hot groups while input is still
/// arriving (the serving front-end's per-tenant early answers). Returns
/// the number of answers published.
fn emit_if_due(
    every: Option<NonZeroU64>,
    agg: &dyn Aggregator,
    key: &[u8],
    state: &[u8],
    out: &mut Vec<u8>,
    sink: &mut dyn Sink,
) -> u64 {
    let Some(every) = every else { return 0 };
    if !le_u64(state).is_some_and(|n| n > 0 && n % every.get() == 0) {
        return 0;
    }
    sink.emit(key, render(agg, key, state, out), EmitKind::Early);
    1
}

/// One resident key: its partial state and how many records it absorbed
/// (seeded with the key's guaranteed miss count when the hotness gate
/// admitted it). Eviction ranks on `hits`.
struct Resident {
    state: StateBuf,
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

/// The incremental hash group-by operator, frequent-key residency on
/// ([`FreqHashGrouper::new`]) or off ([`IncHashGrouper`]).
pub struct FreqHashGrouper {
    store: Arc<dyn SpillStore>,
    budget: MemoryBudget,
    agg: Arc<dyn Aggregator>,
    /// The hot-key gate's summary; `None` = gate off. Counts misses only:
    /// records whose key was not resident while the budget was full.
    sketch: Option<MisraGries>,
    /// Early-emit period of a count state; `None` = no early emission.
    early_every: Option<NonZeroU64>,
    /// Cached cold-bucket hasher (member 1_000_003 of the default
    /// [`SeededFamily`]) — built once so per-record cold routing never
    /// re-derives the member.
    cold_hasher: MultiplyShift,
    states: FpTable<Resident>,
    /// The buffer every answer is rendered in, reused from key to key.
    out: Vec<u8>,
    /// Bytes reserved for `states`: granted from the budget, but for
    /// `unsettled`.
    reserved: usize,
    /// In-place growth not yet charged to the budget ([`resize`]).
    unsettled: usize,
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

/// §V technique 2 by name: builds a [`FreqHashGrouper`] with the hot-key
/// gate off — no summary, a miss on a full table goes straight to the
/// cold buckets, and `finish` publishes no hot-key early answers — and an
/// optional early-emit period.
pub enum IncHashGrouper {}

#[allow(clippy::new_ret_no_self)]
impl IncHashGrouper {
    /// An incremental hash grouper without early emission.
    pub fn new(
        store: Arc<dyn SpillStore>,
        budget: MemoryBudget,
        agg: Arc<dyn Aggregator>,
    ) -> FreqHashGrouper {
        Self::with_early(store, budget, agg, None)
    }

    /// An incremental hash grouper that, given `early_every`, publishes a
    /// count state as an early answer each time it reaches a multiple of
    /// it.
    pub fn with_early(
        store: Arc<dyn SpillStore>,
        budget: MemoryBudget,
        agg: Arc<dyn Aggregator>,
        early_every: Option<NonZeroU64>,
    ) -> FreqHashGrouper {
        FreqHashGrouper::build(store, budget, agg, None, early_every)
    }
}

impl FreqHashGrouper {
    /// Create with the hot-key gate on.
    pub fn new(store: Arc<dyn SpillStore>, budget: MemoryBudget, agg: Arc<dyn Aggregator>) -> Self {
        let sketch = MisraGries::new(SKETCH_CAPACITY);
        Self::build(store, budget, agg, Some(sketch), None)
    }

    fn build(
        store: Arc<dyn SpillStore>,
        budget: MemoryBudget,
        agg: Arc<dyn Aggregator>,
        sketch: Option<MisraGries>,
        early_every: Option<NonZeroU64>,
    ) -> Self {
        let io_base = store.stats();
        // Member index chosen not to collide with the hybrid children's
        // level-0 function (they start at member 0).
        let cold_hasher = SeededFamily::default().member(1_000_003);
        FreqHashGrouper {
            store,
            budget,
            agg,
            sketch,
            early_every,
            cold_hasher,
            states: FpTable::new(),
            out: Vec::new(),
            reserved: 0,
            unsettled: 0,
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

    /// The budget this operator charges: a private one, or a lease from
    /// a governor pool whose shed requests it carries.
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Number of keys currently resident.
    pub fn resident_keys(&self) -> usize {
        self.states.len()
    }

    /// Eviction rounds performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Shed at least `target_bytes` of resident state, returning the
    /// bytes actually freed: one coldest-first eviction round sized by
    /// the request. A stream session calls it at a batch boundary when
    /// the serving tier's memory governor
    /// ([`onepass_core::governor`]) picks this operator's lease as a
    /// spill victim. Shedding is a correctness-neutral reordering: the
    /// shed states land in the cold buckets the exact pass already
    /// resolves, and a re-admitted key comes back incomplete, so
    /// `finish` moves it to its bucket too and the finals are the same
    /// bytes.
    pub fn shed(&mut self, target_bytes: usize) -> Result<usize> {
        let t = Stamp::start(Phase::ReduceGroup);
        let freed = self.evict_bytes(target_bytes);
        t.stop(&mut self.profile, &mut self.trace);
        freed
    }

    /// Absorb `value` into `key`'s resident state and check the result
    /// against the early-emit period; false if not resident.
    fn update_resident(&mut self, fp: u64, key: &[u8], value: &[u8], sink: &mut dyn Sink) -> bool {
        let Some(resident) = self.states.get_mut(fp, key) else {
            return false;
        };
        resident.hits += 1;
        let before = resident.state.len();
        self.agg.update(key, &mut resident.state, value);
        let after = resident.state.len();
        resize(
            &self.budget,
            &mut self.reserved,
            &mut self.unsettled,
            before,
            after,
        );
        self.peak_reserved = self.peak_reserved.max(self.reserved);
        self.early_emits += emit_if_due(
            self.early_every,
            self.agg.as_ref(),
            key,
            &resident.state,
            &mut self.out,
            sink,
        );
        true
    }

    /// Insert a new resident state if the budget allows.
    fn try_insert(
        &mut self,
        fp: u64,
        key: &[u8],
        value: &[u8],
        hits: u64,
        sink: &mut dyn Sink,
    ) -> bool {
        // The entry's fixed part is charged first, so on a full budget —
        // every cold record — this fails before `init` allocates a state.
        // Escalates to the governor (if leased) before the hotness gate
        // decides between eviction and cold spill. The state itself is
        // charged like in-place growth: softly, at the next settle.
        let fixed = key.len() + ENTRY_OVERHEAD;
        settle(&self.budget, &mut self.unsettled);
        if !self.budget.try_grant_or_request(fixed) {
            return false;
        }
        let state = self.agg.init(key, value);
        self.unsettled += state.len();
        self.reserved += fixed + state.len();
        self.peak_reserved = self.peak_reserved.max(self.reserved);
        self.early_emits += emit_if_due(
            self.early_every,
            self.agg.as_ref(),
            key,
            &state,
            &mut self.out,
            sink,
        );
        let complete = self.cold.is_none();
        self.states.insert(
            fp,
            key,
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
        settle(&self.budget, &mut self.unsettled);
        let mut ranked: Vec<(u64, &[u8], usize)> = self
            .states
            .iter()
            .map(|(k, r)| (r.hits, k, state_cost(k, &r.state)))
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
        let result = spill_entries(&mut states, |fp, key, r| {
            if (r.hits, key) > (cut.0, cut.1.as_slice()) {
                return Ok(false);
            }
            self.write_cold(fp, key, &r.state, TAG_STATE)?;
            let cost = state_cost(key, &r.state);
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

    fn write_cold(&mut self, fp: u64, key: &[u8], payload: &[u8], tag: u8) -> Result<()> {
        let cold = match &mut self.cold {
            Some(cold) => cold,
            slot => {
                let mut writers = Vec::with_capacity(COLD_FANOUT);
                for _ in 0..COLD_FANOUT {
                    writers.push(self.store.begin_run()?);
                }
                self.spills += 1;
                slot.insert(ColdRuns {
                    writers,
                    scratch: Vec::new(),
                })
            }
        };
        let b = self.cold_hasher.bucket_fp(fp, cold.writers.len());
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
    /// other partial state joins the rest of its key's data in its cold
    /// bucket — published first as an early (approximate) hot-key answer
    /// when the gate is on.
    fn drain_residents(&mut self, sink: &mut dyn Sink) -> Result<()> {
        // Answers first, under one stamp; the partial states' cold writes
        // follow outside it — spill I/O, not reduce-function time.
        let t = Stamp::start(Phase::ReduceFn);
        let mut states = std::mem::take(&mut self.states);
        let agg = self.agg.as_ref();
        states.retain(|_, key, r| {
            if r.complete {
                sink.emit(
                    key,
                    render(agg, key, &r.state, &mut self.out),
                    EmitKind::Final,
                );
                self.groups_out += 1;
                return false;
            }
            if self.sketch.is_some() {
                sink.emit(
                    key,
                    render(agg, key, &r.state, &mut self.out),
                    EmitKind::Early,
                );
                self.early_emits += 1;
            }
            true
        });
        t.stop(&mut self.profile, &mut self.trace);
        spill_entries(&mut states, |fp, key, r| {
            self.write_cold(fp, key, &r.state, TAG_STATE)?;
            Ok(true)
        })?;
        settle(&self.budget, &mut self.unsettled);
        self.budget.release(self.reserved);
        self.reserved = 0;
        Ok(())
    }

    /// One record. Its key is fingerprinted here, once: the probe, the
    /// insert, the summary, and the cold bucket all read that value.
    fn push_one(&mut self, key: &[u8], value: &[u8], sink: &mut dyn Sink) -> Result<()> {
        let fp = fingerprint(key);
        if self.update_resident(fp, key, value, sink) || self.try_insert(fp, key, value, 1, sink) {
            return Ok(());
        }
        // Budget full and key not resident: count the miss, then the
        // hotness gate. The sketch sees misses only — a resident key's
        // heat is its own hit counter — so the common (hit) path never
        // pays for it. Its count is a guaranteed lower bound; an upper
        // bound would make every newly tracked key look hot and start
        // eviction storms. With the gate off no key is ever hot enough.
        let heat = self
            .sketch
            .as_mut()
            .map_or(0, |sketch| sketch.offer_fp(fp, key, 1));
        let limit = self.budget.limit();
        let headroom = limit / EVICT_HEADROOM_DIV;
        let used = self.budget.used();
        // Resident states grow past the limit in place (soft charges); a
        // table that far over is cut back whatever this key's heat.
        if heat > self.cold_threshold || used > limit.saturating_add(headroom) {
            self.evict_bytes(used.saturating_sub(limit - headroom))?;
            // (A full summary may have discarded this very miss.)
            if self.try_insert(fp, key, value, heat.max(1), sink) {
                self.trace
                    .instant("admit", "freq", &[("heat", heat as f64)]);
                return Ok(());
            }
            // Another holder of a shared budget took the room: spill.
        }
        self.write_cold(fp, key, value, TAG_RAW)
    }
}

impl GroupBy for FreqHashGrouper {
    fn push_batch(&mut self, batch: &SegmentBuf, sink: &mut dyn Sink) -> Result<()> {
        // Grouping time is read once per batch, never per record.
        let t = Stamp::start(Phase::ReduceGroup);
        self.records_in += batch.len() as u64;
        let pushed = batch
            .iter()
            .try_for_each(|(key, value)| self.push_one(key, value, sink));
        settle(&self.budget, &mut self.unsettled);
        t.stop(&mut self.profile, &mut self.trace);
        pushed
    }

    fn finish(&mut self, sink: &mut dyn Sink) -> Result<OpStats> {
        // 1. Resident answers, straight from memory: exact for the keys
        //    that never left it; the rest (early hot-key answers, gate on)
        //    move their partial states into their buckets so the exact
        //    pass sees each remaining key's complete data in one place.
        self.drain_residents(sink)?;
        let Some(cold) = self.cold.take() else {
            // Everything fit in memory.
            return Ok(self.stats_snapshot(0));
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
                RESOLVE_FANOUT,
                Arc::clone(&self.agg),
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
            self.groups_out += child_stats.groups_out;
            passes += child_stats.passes;
            self.profile.merge(&child_stats.profile);
        }

        Ok(self.stats_snapshot(passes))
    }

    fn name(&self) -> &'static str {
        match self.sketch {
            Some(_) => "frequent-hash",
            None => "incremental-hash",
        }
    }
}

impl FreqHashGrouper {
    fn stats_snapshot(&self, passes: u64) -> OpStats {
        OpStats {
            records_in: self.records_in,
            groups_out: self.groups_out,
            early_emits: self.early_emits,
            io: io_since(self.store.as_ref(), &self.io_base),
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
    use crate::aggregate::{CountAgg, ListAgg};
    use crate::sink::VecSink;
    use crate::test_support::{count_truth, dec_u64, pairs, run_op};
    use crate::SortMergeGrouper;
    use onepass_core::io::SharedMemStore;
    use std::collections::BTreeMap;

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

    type Make = fn(Arc<dyn SpillStore>, MemoryBudget, Arc<dyn Aggregator>) -> FreqHashGrouper;

    /// The operator's two spellings: hot-key gate on, and off.
    const SPELLINGS: [(&str, Make); 2] = [
        ("freq-hash", FreqHashGrouper::new),
        ("inc-hash", IncHashGrouper::new),
    ];

    #[test]
    fn exact_results_under_memory_pressure() {
        for (name, make) in SPELLINGS {
            let store = SharedMemStore::new();
            let mut g = make(
                Arc::new(store.clone()),
                MemoryBudget::new(30 * (8 + 9 + ENTRY_OVERHEAD)),
                Arc::new(CountAgg),
            );
            let recs = skewed_records(4000, 500);
            let (out, stats, _) = run_op(&mut g, pairs(&recs));
            let truth = count_truth(pairs(&recs));
            assert_eq!(out.len(), truth.len(), "{name}");
            for (k, c) in truth {
                assert_eq!(dec_u64(&out[&k]), c, "{name}: count mismatch for {k:?}");
            }
            assert!(stats.spills >= 1, "{name}");
            assert_eq!(store.live_runs(), 0, "{name}");
        }
    }

    #[test]
    fn a_key_is_fingerprinted_once_per_record_on_every_path() {
        use crate::test_support::{fingerprints_during, records_replayed};
        use onepass_core::trace::{Tracer, Track};
        for (name, make) in SPELLINGS {
            let tracer = Tracer::enabled();
            let mut g = make(
                Arc::new(SharedMemStore::new()),
                MemoryBudget::new(30 * (8 + 9 + ENTRY_OVERHEAD)),
                Arc::new(CountAgg),
            );
            g.set_tracer(tracer.local(Track::new("reduce", 0)));
            // Key 0 hits on every other record; the first thirty keys are
            // inserted; the rest miss a full table and spill cold or, gate
            // on, evict their way in.
            let recs = skewed_records(4000, 500);
            let batch = SegmentBuf::from_pairs(pairs(&recs));
            let mut sink = VecSink::default();
            let pushing = fingerprints_during(|| g.push_batch(&batch, &mut sink).unwrap());
            assert_eq!(pushing, 4000, "{name}: one per pushed record");
            assert!(g.spills >= 1 && g.resident_keys() > 0, "{name}");
            if g.sketch.is_some() {
                assert!(g.evictions() > 0, "{name}: the gate admitted a hot miss");
            }
            // The exact pass: one per record a hybrid child is handed.
            let resolving = fingerprints_during(|| {
                g.finish(&mut sink).unwrap();
            });
            drop(g);
            assert_eq!(resolving, records_replayed(&tracer), "{name}");
            assert!(resolving > 0, "{name}");
        }
    }

    #[test]
    fn budget_smaller_than_one_state_still_answers_exactly() {
        // No state ever fits, so every record goes cold; each bucket's
        // hybrid child keeps its first key resident whatever the budget
        // (the first-key exemption), and that is what terminates.
        for (name, make) in SPELLINGS {
            let store = SharedMemStore::new();
            let budget = MemoryBudget::new(8);
            let mut g = make(Arc::new(store.clone()), budget.clone(), Arc::new(CountAgg));
            let recs: Vec<_> = (0..50u32)
                .map(|i| (i.to_le_bytes().to_vec(), b"v".to_vec()))
                .collect();
            let (out, _, _) = run_op(&mut g, pairs(&recs));
            assert_eq!(out.len(), 50, "{name}");
            assert!(out.values().all(|v| dec_u64(v) == 1), "{name}");
            assert_eq!(store.live_runs(), 0, "{name}");
            assert_eq!(budget.used(), 0, "{name}");
        }
    }

    /// 16 hot keys share every other record; the rest are singletons, so
    /// once the table is over its limit every record between two hot hits
    /// is a miss.
    fn hot_and_singletons(n: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let key = if i % 2 == 0 {
                    format!("hot{:02}", (i / 2) % 16)
                } else {
                    format!("one{i:06}")
                };
                (key.into_bytes(), format!("v{i:06}").into_bytes())
            })
            .collect()
    }

    #[test]
    fn growing_states_stay_within_the_budget_on_both_spellings() {
        // List states grow in place under soft charges. The table must be
        // cut back at the first miss that finds it more than the eviction
        // headroom over its limit, so the peak is the limit, the headroom
        // and what one hit adds — not the hot keys' whole lists.
        let recs = hot_and_singletons(8000);
        let one_record = 4 + "v000000".len();
        for (name, make) in SPELLINGS {
            let fit = |budget| {
                let mut g = make(Arc::new(SharedMemStore::new()), budget, Arc::new(ListAgg));
                run_op(&mut g, pairs(&recs))
            };
            let (fit_out, fit_stats, _) = fit(MemoryBudget::unlimited());
            assert_eq!(fit_stats.io.bytes_written, 0, "{name}");
            let limit = fit_stats.peak_mem / 8;
            let (out, stats, _) = fit(MemoryBudget::new(limit));
            assert!(
                stats.peak_mem <= limit + limit / EVICT_HEADROOM_DIV + one_record,
                "{name}: peak {} on a {limit}-byte budget",
                stats.peak_mem
            );
            let sorted = |out: BTreeMap<Vec<u8>, Vec<u8>>| -> Vec<_> {
                out.into_iter()
                    .map(|(k, v)| {
                        let mut items = ListAgg::decode(&v);
                        items.sort();
                        (k, items)
                    })
                    .collect()
            };
            assert_eq!(sorted(out), sorted(fit_out), "{name}");
        }
    }

    #[test]
    fn the_budget_holds_what_the_operator_reserved_after_every_batch() {
        // In-place growth is charged once per batch, not per record, so
        // between batches the budget must hold every byte the operator
        // reserved: with room to spare, and evicting and spilling.
        let recs = hot_and_singletons(4000);
        for (name, make) in SPELLINGS {
            for limit in [usize::MAX / 2, 4096] {
                let budget = MemoryBudget::new(limit);
                let mut g = make(
                    Arc::new(SharedMemStore::new()),
                    budget.clone(),
                    Arc::new(ListAgg),
                );
                let mut sink = VecSink::default();
                for chunk in recs.chunks(97) {
                    g.push_batch(&SegmentBuf::from_pairs(pairs(chunk)), &mut sink)
                        .unwrap();
                    assert_eq!(budget.used(), g.reserved, "{name}, {limit}-byte budget");
                }
                assert_eq!(g.spills > 0, limit == 4096, "{name}");
                g.finish(&mut sink).unwrap();
                assert_eq!(budget.used(), 0, "{name}, {limit}-byte budget");
            }
        }
    }

    /// One key per record, alternating `a` and `b`, 8 records each.
    fn alternating() -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..16u32)
            .map(|i| (vec![b"ab"[i as usize % 2]], (i / 2).to_le_bytes().to_vec()))
            .collect()
    }

    /// Early answers every `period` records of a key: below `2 × period`
    /// records (as in [`alternating`]) that fires once, at the crossing.
    fn with_threshold(period: u64) -> FreqHashGrouper {
        IncHashGrouper::with_early(
            Arc::new(SharedMemStore::new()),
            MemoryBudget::unlimited(),
            Arc::new(CountAgg),
            NonZeroU64::new(period),
        )
    }

    #[test]
    fn early_emission_fires_once_at_the_crossing_with_the_state_at_the_crossing() {
        // Single-record batches on purpose: early emission must interleave
        // with individual records, not land at bulk-batch boundaries.
        let mut g = with_threshold(5);
        let mut sink = VecSink::default();
        for rec in alternating() {
            g.push_batch(&SegmentBuf::from_pairs(pairs(&[rec])), &mut sink)
                .unwrap();
        }
        // Each key reaches 5 at its 5th record — records 9 and 10 of 16 —
        // and the answer goes out then, carrying the count at the crossing.
        let early = |k: &[u8]| (k.to_vec(), 5u64.to_le_bytes().to_vec(), EmitKind::Early);
        assert_eq!(sink.emitted, [early(b"a"), early(b"b")]);
        let stats = g.finish(&mut sink).unwrap();
        assert_eq!((stats.early_emits, stats.groups_out), (2, 2));
        assert_eq!(sink.final_count(), 2);
        for (_, v, kind) in &sink.emitted[2..] {
            assert_eq!((dec_u64(v), *kind), (8, EmitKind::Final));
        }
    }

    #[test]
    fn single_record_batches_match_one_bulk_batch() {
        let recs = alternating();
        let mut bulk = VecSink::default();
        let mut g = with_threshold(5);
        g.push_batch(&SegmentBuf::from_pairs(pairs(&recs)), &mut bulk)
            .unwrap();
        g.finish(&mut bulk).unwrap();
        let mut single = VecSink::default();
        let mut g = with_threshold(5);
        for rec in recs {
            g.push_batch(&SegmentBuf::from_pairs(pairs(&[rec])), &mut single)
                .unwrap();
        }
        g.finish(&mut single).unwrap();
        assert_eq!(bulk.early_count(), 2);
        assert_eq!(bulk.emitted, single.emitted);
    }

    #[test]
    fn hot_keys_stay_resident() {
        let store = SharedMemStore::new();
        let mut g = FreqHashGrouper::new(
            Arc::new(store),
            MemoryBudget::new(20 * (8 + 9 + ENTRY_OVERHEAD)),
            Arc::new(CountAgg),
        );
        let mut sink = VecSink::default();
        let recs = skewed_records(5000, 400);
        g.push_batch(&SegmentBuf::from_pairs(pairs(&recs)), &mut sink)
            .unwrap();
        assert!(
            hits(&g, b"key00000").is_some(),
            "hottest key evicted — hotness gate failed"
        );
        g.finish(&mut sink).unwrap();
    }

    #[test]
    fn hot_keys_are_answered_before_any_disk_pass() {
        let store = SharedMemStore::new();
        let mut g = FreqHashGrouper::new(
            Arc::new(store.clone()),
            MemoryBudget::new(10 * (8 + 9 + ENTRY_OVERHEAD)),
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
        g.states.get(fingerprint(key), key).map(|r| r.hits)
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
                g.states.iter().map(|(k, r)| (k.to_vec(), r.hits)).collect();
            assert!(g.shed(200).unwrap() > 0);
            let coldest_left = g
                .states
                .iter()
                .map(|(_, r)| r.hits)
                .min()
                .unwrap_or(u64::MAX);
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
        let budget_bytes = 40 * (9 + 8 + ENTRY_OVERHEAD);
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
        for (name, make) in SPELLINGS {
            let mut g = make(
                Arc::new(SharedMemStore::new()),
                MemoryBudget::unlimited(),
                Arc::new(CountAgg),
            );
            let recs = skewed_records(1000, 100);
            let (out, stats, sink) = run_op(&mut g, pairs(&recs));
            assert_eq!(out.len(), count_truth(pairs(&recs)).len(), "{name}");
            assert_eq!(stats.io.bytes_written, 0, "{name}");
            assert_eq!((stats.spills, stats.passes), (0, 0), "{name}");
            assert_eq!(sink.early_count(), 0, "{name}: exact needs no early pass");
        }
    }

    #[test]
    fn budget_released_and_no_sort_phase_ever() {
        for (name, make) in SPELLINGS {
            let budget = MemoryBudget::new(3000);
            let store = SharedMemStore::new();
            let mut g = make(Arc::new(store), budget.clone(), Arc::new(CountAgg));
            let (_, stats, _) = run_op(&mut g, pairs(&skewed_records(3000, 400)));
            assert!(stats.spills >= 1, "{name}");
            assert_eq!(budget.used(), 0, "{name}");
            assert_eq!(
                stats.profile.time(Phase::MapSort),
                std::time::Duration::ZERO,
                "{name}"
            );
        }
    }
}
