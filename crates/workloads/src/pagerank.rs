//! PageRank as a multi-round cached plan — the canonical iterative
//! workload in the M3R direction (arXiv:1208.4168): the graph's
//! adjacency is exactly the kind of reusable, partition-stable dataset
//! the [`DatasetCache`] holds, so the cached loop never re-scans,
//! re-parses, or re-shuffles it. Each cached round shuffles *only* the
//! 8-byte rank contributions; the new ranks come back partitioned and
//! sorted exactly like the resident state, and the driver zip-merges
//! them into the adjacency in place at the round boundary (the
//! "Schimmy" pattern: state that does not move is never re-sent).
//!
//! All arithmetic is fixed-point `u64` at [`SCALE`] with damping
//! 85/100, so results are byte-identical regardless of execution mode or
//! reduction order, and equal to the pure-Rust [`reference()`]'s.
//!
//! Graph encoding (text records): `"<src>\t<dst>,<dst>,..."`, one line
//! per node; every node has at least one out-edge. Cached state per
//! node: key = `u32` LE node id, value =
//! `[u64 rank LE][u32 deg LE][u32 dst LE]*deg`.

use std::collections::HashMap;
use std::sync::Arc;

use onepass_core::error::{Error, Result};
use onepass_core::{SegmentBuf, SegmentBufBuilder};
use onepass_groupby::{Aggregator, FirstAgg, StateBuf};
use onepass_runtime::{
    pair_map_fn, DatasetCache, Engine, IterativePlan, JobSpec, MapEmitter, MapFn, PairMap, Plan,
};

use crate::{le_bytes, make_splits};

/// Fixed-point scale: rank 1.0 ≡ `SCALE`. Total rank mass ≈ `SCALE`.
pub const SCALE: u64 = 1_000_000_000;
/// Damping numerator (d = 85/100).
pub const DAMP_NUM: u64 = 85;
/// Damping denominator.
pub const DAMP_DEN: u64 = 100;

/// Cached dataset holding the full per-node state (rank + adjacency).
pub const RANKS_DATASET: &str = "pagerank-ranks";

/// Per-round scratch dataset: the freshly reduced 8-byte ranks, merged
/// into [`RANKS_DATASET`] (and dropped) at each round boundary.
const NEW_RANKS_DATASET: &str = "pagerank-ranks-new";

/// Deterministic synthetic graph spec.
#[derive(Debug, Clone, Copy)]
pub struct GraphConfig {
    /// Node count.
    pub nodes: usize,
    /// Maximum out-degree (actual degree is 1..=max_out, seeded).
    pub max_out: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            nodes: 256,
            max_out: 8,
            seed: 7,
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Generate the graph's text records, one `"<src>\t<dst>,..."` line per
/// node. Every node has ≥ 1 out-edge so no rank mass dangles.
pub fn graph_records(cfg: GraphConfig) -> Vec<Vec<u8>> {
    assert!(cfg.nodes > 0 && cfg.max_out > 0);
    let mut rng = cfg.seed | 1;
    (0..cfg.nodes)
        .map(|src| {
            let deg = (xorshift(&mut rng) as usize % cfg.max_out) + 1;
            let dsts: Vec<String> = (0..deg)
                .map(|_| (xorshift(&mut rng) as usize % cfg.nodes).to_string())
                .collect();
            format!("{src}\t{}", dsts.join(",")).into_bytes()
        })
        .collect()
}

fn encode_state(rank: u64, dsts: &[u32]) -> Vec<u8> {
    let mut v = Vec::with_capacity(12 + dsts.len() * 4);
    v.extend_from_slice(&rank.to_le_bytes());
    v.extend_from_slice(&(dsts.len() as u32).to_le_bytes());
    for d in dsts {
        v.extend_from_slice(&d.to_le_bytes());
    }
    v
}

/// A cached node state's rank and its destinations: `deg` little-endian
/// `u32` node ids, which are also exactly the bytes of their keys.
fn state_parts(value: &[u8]) -> (u64, &[u8]) {
    (u64::from_le_bytes(le_bytes(value, 0)), &value[12..])
}

/// Parse `"<src>\t<dst>,<dst>,..."`; `None` for anything else.
fn parse_graph_line(record: &[u8]) -> Option<(u32, Vec<u32>)> {
    let (src, rest) = std::str::from_utf8(record).ok()?.split_once('\t')?;
    let dsts = rest.split(',').map(|d| d.parse().ok());
    Some((src.parse().ok()?, dsts.collect::<Option<_>>()?))
}

/// A record a map function here cannot parse fails its task (the
/// scheduler applies the retry budget), the contract of every map
/// function over foreign bytes.
fn malformed(what: &str, record: &[u8]) -> ! {
    panic!(
        "malformed {what} record: {:?}",
        String::from_utf8_lossy(record)
    )
}

/// `(1 - d) / N` at scale — the rank a node with no inbound
/// contributions holds.
fn base_rank(nodes: usize) -> u64 {
    SCALE * (DAMP_DEN - DAMP_NUM) / (DAMP_DEN * nodes as u64)
}

fn contribution(rank: u64, deg: usize) -> u64 {
    rank * DAMP_NUM / (DAMP_DEN * deg as u64)
}

/// Parse a graph text record into the initial per-node state.
struct ParseGraphMap {
    init_rank: u64,
}

impl MapFn for ParseGraphMap {
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        let Some((src, dsts)) = parse_graph_line(record) else {
            malformed("graph", record)
        };
        out.emit(&src.to_le_bytes(), &encode_state(self.init_rank, &dsts));
    }
}

/// The cached round's map: fan the 8-byte contributions out along the
/// edges — and nothing else. The adjacency never leaves its partition;
/// [`merge_new_ranks`] folds the reduced ranks back into it in place.
/// Each destination's key is its four bytes of the state, emitted as
/// they lie: nothing is decoded or collected per node.
struct ContribMap;

impl PairMap for ContribMap {
    fn map_pair(&self, _key: &[u8], value: &[u8], out: &mut dyn MapEmitter) {
        let (rank, dsts) = state_parts(value);
        let cv = contribution(rank, dsts.len() / 4).to_le_bytes();
        for d in dsts.chunks_exact(4) {
            out.emit(d, &cv);
        }
    }
}

/// Sum 8-byte contributions; finish to `base + Σcontrib`. Plain sums
/// merge, so this is a legal map-side combiner. The 8-byte state lives
/// in its table slot.
#[derive(Debug, Clone, Copy)]
struct RankAgg {
    base: u64,
}

impl Aggregator for RankAgg {
    fn init(&self, _key: &[u8], value: &[u8]) -> StateBuf {
        StateBuf::from_slice(value)
    }

    fn update(&self, _key: &[u8], state: &mut StateBuf, value: &[u8]) {
        let n = u64::from_le_bytes(le_bytes(state, 0)) + u64::from_le_bytes(le_bytes(value, 0));
        state[..8].copy_from_slice(&n.to_le_bytes());
    }

    fn merge(&self, key: &[u8], state: &mut StateBuf, other: &[u8]) {
        self.update(key, state, other);
    }

    fn finish(&self, _key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        let sum = u64::from_le_bytes(le_bytes(state, 0));
        out.extend_from_slice(&(self.base + sum).to_le_bytes());
    }

    fn combinable(&self) -> bool {
        true
    }
}

fn parse_job(nodes: usize, reducers: usize) -> Result<JobSpec> {
    JobSpec::builder("pagerank-parse")
        .map_fn(Arc::new(ParseGraphMap {
            init_rank: SCALE / nodes as u64,
        }))
        .aggregate(Arc::new(FirstAgg))
        .reducers(reducers)
        .preset_onepass()
        .build()
}

fn rank_job(nodes: usize, reducers: usize) -> Result<JobSpec> {
    JobSpec::builder("pagerank-round")
        .map_fn(pair_map_fn(Arc::new(ContribMap)))
        .aggregate(Arc::new(RankAgg {
            base: base_rank(nodes),
        }))
        .reducers(reducers)
        .preset_onepass()
        .build()
}

/// Knobs of the cached driver (and of the reference's stopping rule).
#[derive(Debug, Clone)]
pub struct PageRankConfig {
    /// Node count (must match the record set).
    pub nodes: usize,
    /// Maximum rounds.
    pub rounds: usize,
    /// Stop when no rank moves by more than this (in [`SCALE`] units);
    /// `None` always runs `rounds` rounds.
    pub eps: Option<u64>,
    /// Reducers per round (held constant: partition-stable placement).
    pub reducers: usize,
    /// Records per map split.
    pub records_per_split: usize,
}

impl PageRankConfig {
    /// Defaults for `nodes` nodes: 10 rounds, no eps cutoff, 4 reducers.
    pub fn new(nodes: usize) -> Self {
        PageRankConfig {
            nodes,
            rounds: 10,
            eps: None,
            reducers: 4,
            records_per_split: 256,
        }
    }
}

/// Final ranks, sorted by node id.
pub type Ranks = Vec<(u32, u64)>;

fn ranks_of<'a>(pairs: impl IntoIterator<Item = (&'a [u8], &'a [u8])>) -> Ranks {
    let mut out: Ranks = pairs
        .into_iter()
        .map(|(k, v)| {
            (
                u32::from_le_bytes(le_bytes(k, 0)),
                u64::from_le_bytes(le_bytes(v, 0)),
            )
        })
        .collect();
    out.sort_unstable();
    out
}

/// Dataset `name`'s partitions, which a round before this one cached.
fn cached(cache: &DatasetCache, name: &str) -> Result<Vec<SegmentBuf>> {
    cache
        .get(name)?
        .ok_or_else(|| Error::InvalidState(format!("dataset '{name}' is not in the cache")))
}

/// The cached round boundary: zip-merge the freshly reduced ranks into
/// the resident state, partition by partition. Both datasets were
/// captured under the same partitioner and reducer count, sorted by
/// key, so the merge is one aligned linear pass — the adjacency bytes
/// never move. Nodes absent from the new ranks (no inbound
/// contributions) take the base rank. Returns the max rank delta.
fn merge_new_ranks(cache: &DatasetCache, nodes: usize) -> Result<u64> {
    let state = cached(cache, RANKS_DATASET)?;
    let news = cached(cache, NEW_RANKS_DATASET)?;
    if state.len() != news.len() {
        return Err(Error::InvalidState(format!(
            "rank state has {} partitions, the round's ranks {}: placement is not \
             partition-stable",
            state.len(),
            news.len()
        )));
    }
    let base = base_rank(nodes);
    let mut max_delta = 0u64;
    let mut merged = Vec::with_capacity(state.len());
    let mut nv = Vec::new();
    for (sp, np) in state.iter().zip(news.iter()) {
        let mut b = SegmentBufBuilder::with_capacity(sp.payload_bytes(), sp.len());
        let mut ni = np.iter().peekable();
        for (k, v) in sp.iter() {
            while ni.peek().is_some_and(|&(nk, _)| nk < k) {
                ni.next(); // rank for a node outside the state: drop
            }
            let new = match ni.next_if(|&(nk, _)| nk == k) {
                Some((_, rank)) => u64::from_le_bytes(le_bytes(rank, 0)),
                None => base,
            };
            let old = u64::from_le_bytes(le_bytes(v, 0));
            max_delta = max_delta.max(new.abs_diff(old));
            nv.clear();
            nv.extend_from_slice(&new.to_le_bytes());
            nv.extend_from_slice(&v[8..]);
            b.push(k, &nv);
        }
        merged.push(b.finish());
    }
    cache.put(RANKS_DATASET, merged)?;
    cache.remove(NEW_RANKS_DATASET)?;
    Ok(max_delta)
}

/// Run PageRank through the [`DatasetCache`]: round 0 parses and caches
/// the full state; each later round reads the cached partitions as
/// zero-copy splits, shuffles only the contributions, and merges the
/// new ranks back in place. Returns the final ranks and the number of
/// rounds run.
pub fn run_cached(
    engine: &Engine,
    cache: &DatasetCache,
    records: &[Vec<u8>],
    cfg: &PageRankConfig,
) -> Result<(Ranks, usize)> {
    let nodes = cfg.nodes;
    let reducers = cfg.reducers;
    let splits = make_splits(records.to_vec(), cfg.records_per_split);
    let mut iter = IterativePlan::new(move |round, _c| {
        let mut b = Plan::builder();
        if round == 0 {
            let s = b.add_stage(parse_job(nodes, reducers)?);
            b.cache_output(s, RANKS_DATASET);
            Ok((b.build()?, splits.clone()))
        } else {
            let s = b.add_stage(rank_job(nodes, reducers)?);
            b.cached_input(s, RANKS_DATASET);
            b.cache_output(s, NEW_RANKS_DATASET);
            Ok((b.build()?, Vec::new()))
        }
    });
    let eps = cfg.eps;
    let rounds = iter.run_until(engine, cache, cfg.rounds.max(1), |ctx| {
        if ctx.round == 0 {
            return Ok(false); // parse round: state already in place
        }
        let delta = merge_new_ranks(ctx.cache, nodes)?;
        Ok(eps.is_some_and(|eps| delta <= eps))
    })?;
    let parts = cached(cache, RANKS_DATASET)?;
    Ok((ranks_of(parts.iter().flat_map(SegmentBuf::iter)), rounds))
}

/// Pure-Rust reference: the same fixed-point iteration, single-threaded.
/// Returns final ranks and rounds run under the same stopping rule. A
/// contribution to a node that is no record's source is dropped, as the
/// cached loop drops it; an unparsable record panics.
pub fn reference(records: &[Vec<u8>], cfg: &PageRankConfig) -> (Ranks, usize) {
    let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
    for r in records {
        let Some((src, dsts)) = parse_graph_line(r) else {
            malformed("graph", r)
        };
        adj.insert(src, dsts);
    }
    let n = cfg.nodes as u64;
    let base = SCALE * (DAMP_DEN - DAMP_NUM) / (DAMP_DEN * n);
    let mut ranks: HashMap<u32, u64> = adj.keys().map(|&k| (k, SCALE / n)).collect();
    let mut rounds = 1; // the parse round
    for _ in 1..cfg.rounds.max(1) {
        let mut sums: HashMap<u32, u64> = adj.keys().map(|&k| (k, 0)).collect();
        for (src, dsts) in &adj {
            let contrib = ranks[src] * DAMP_NUM / (DAMP_DEN * dsts.len() as u64);
            for d in dsts {
                if let Some(sum) = sums.get_mut(d) {
                    *sum += contrib;
                }
            }
        }
        let next: HashMap<u32, u64> = sums.into_iter().map(|(k, s)| (k, base + s)).collect();
        rounds += 1;
        let done = match cfg.eps {
            None => false,
            Some(eps) => next.iter().all(|(k, &r)| r.abs_diff(ranks[k]) <= eps),
        };
        ranks = next;
        if done {
            break;
        }
    }
    let mut out: Ranks = ranks.into_iter().collect();
    out.sort_unstable();
    (out, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_runtime::CacheConfig;

    #[test]
    fn cached_and_reference_agree_byte_for_byte() {
        let gcfg = GraphConfig {
            nodes: 64,
            max_out: 5,
            seed: 11,
        };
        let records = graph_records(gcfg);
        let mut cfg = PageRankConfig::new(gcfg.nodes);
        cfg.rounds = 5;
        cfg.reducers = 3;
        let (want, want_rounds) = reference(&records, &cfg);
        assert_eq!(want.len(), gcfg.nodes);
        // Total mass stays ≈ SCALE (fixed-point floor loss only).
        let total: u64 = want.iter().map(|&(_, r)| r).sum();
        assert!(total <= SCALE && total > SCALE - SCALE / 100);

        let engine = Engine::new();
        let cache = DatasetCache::new(CacheConfig::default());
        let (cached, rounds) = run_cached(&engine, &cache, &records, &cfg).unwrap();
        assert_eq!(cached, want, "cached vs reference");
        assert_eq!(rounds, want_rounds);
        assert!(cache.stats().hits > 0, "rounds fed from cache");
    }

    #[test]
    fn eps_cutoff_stops_early_and_agrees_with_the_reference_on_rounds() {
        let gcfg = GraphConfig::default();
        let records = graph_records(gcfg);
        let mut cfg = PageRankConfig::new(gcfg.nodes);
        cfg.rounds = 50;
        cfg.eps = Some(SCALE / 10_000); // 1e-4 in rank units
        let (want, want_rounds) = reference(&records, &cfg);
        assert!(want_rounds < 50, "converges well before the cap");

        let engine = Engine::new();
        let cache = DatasetCache::new(CacheConfig::default());
        let (cached, rounds) = run_cached(&engine, &cache, &records, &cfg).unwrap();
        assert_eq!(cached, want);
        assert_eq!(rounds, want_rounds);
    }

    /// At 20k nodes one map slot sees every key of a round, past its
    /// 16 Ki-key sample. The parse round's keys are all distinct and a
    /// rank round's mostly are, so the slot stops combining in every
    /// round, and the ranks are still the reference's.
    #[test]
    fn cached_rounds_past_the_sample_window_match_the_reference() {
        use onepass_core::trace::Tracer;
        let gcfg = GraphConfig {
            nodes: 20_000,
            ..GraphConfig::default()
        };
        let records = graph_records(gcfg);
        let mut cfg = PageRankConfig::new(gcfg.nodes);
        cfg.rounds = 4;
        let (want, want_rounds) = reference(&records, &cfg);

        let tracer = Tracer::enabled();
        let engine = Engine::with_config(
            onepass_runtime::EngineConfig::builder()
                .map_workers(1)
                .tracer(tracer.clone())
                .build(),
        );
        let cache = DatasetCache::new(CacheConfig::default());
        let (cached, rounds) = run_cached(&engine, &cache, &records, &cfg).unwrap();
        assert_eq!((cached, rounds), (want, want_rounds));
        let stops = tracer.drain();
        let stops = stops.iter().filter(|e| e.name == "stop_combining");
        assert_eq!(stops.count(), rounds, "one stop per round's slot");
    }
}
