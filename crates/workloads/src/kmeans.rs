//! Lloyd's k-means as a multi-round cached plan — the second iterative
//! workload. The point set is the M3R-style *cached input*: it never
//! changes across rounds, so round 0 parses it once into the
//! [`DatasetCache`] and every later round re-reads the cached
//! partitions as zero-copy splits; only the (tiny) centroid set moves
//! between rounds, also through the cache.
//!
//! Coordinates are `i64` fixed-point; distances accumulate in `i128`;
//! new centroids are truncating integer means and assignment ties break
//! toward the lowest centroid id — all byte-deterministic, matching
//! [`reference()`] exactly. A centroid that attracts no points is
//! dropped (its id simply stops appearing), exactly as in the
//! reference.
//!
//! Text records: `"<pid>\t<c0>,<c1>,..."`. Cached point value:
//! `[i64 coord LE]*dim`, key = `u32` LE point id. Cached centroid
//! value: same coord layout, key = `u32` LE centroid id.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use onepass_core::error::{Error, Result};
use onepass_groupby::{Aggregator, FirstAgg, StateBuf};
use onepass_runtime::{
    pair_map_fn, DatasetCache, Engine, IterativePlan, JobSpec, MapEmitter, MapFn, PairMap, Plan,
};

use crate::{le_bytes, make_splits};

/// Cached dataset holding the immutable point set.
pub const POINTS_DATASET: &str = "kmeans-points";
/// Cached dataset holding the current centroids.
pub const CENTROIDS_DATASET: &str = "kmeans-centroids";

/// Deterministic clustered point generator.
#[derive(Debug, Clone, Copy)]
pub struct PointsConfig {
    /// Point count.
    pub points: usize,
    /// Dimensions per point.
    pub dim: usize,
    /// True cluster count the generator scatters points around.
    pub clusters: usize,
    /// Distance between generated cluster centers.
    pub spread: i64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for PointsConfig {
    fn default() -> Self {
        PointsConfig {
            points: 300,
            dim: 2,
            clusters: 3,
            spread: 10_000,
            seed: 5,
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

/// Generate text point records clustered around `clusters` centers.
pub fn point_records(cfg: PointsConfig) -> Vec<Vec<u8>> {
    assert!(cfg.points > 0 && cfg.dim > 0 && cfg.clusters > 0);
    let mut rng = cfg.seed | 1;
    (0..cfg.points)
        .map(|pid| {
            let c = pid % cfg.clusters;
            let coords: Vec<String> = (0..cfg.dim)
                .map(|d| {
                    let center = c as i64 * cfg.spread + d as i64;
                    let jitter = (xorshift(&mut rng) % (cfg.spread as u64 / 10).max(1)) as i64
                        - cfg.spread / 20;
                    (center + jitter).to_string()
                })
                .collect();
            format!("{pid}\t{}", coords.join(",")).into_bytes()
        })
        .collect()
}

fn encode_coords(coords: &[i64]) -> Vec<u8> {
    coords.iter().flat_map(|c| c.to_le_bytes()).collect()
}

/// The coordinates of an encoded point, read in place.
fn coords_of(value: &[u8]) -> impl Iterator<Item = i64> + Clone + '_ {
    value
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(le_bytes(c, 0)))
}

fn decode_coords(value: &[u8]) -> Vec<i64> {
    coords_of(value).collect()
}

/// Parse `"<pid>\t<c0>,<c1>,..."`.
fn parse_point(record: &[u8]) -> Result<(u32, Vec<i64>)> {
    let parsed = || -> Option<(u32, Vec<i64>)> {
        let (pid, rest) = std::str::from_utf8(record).ok()?.split_once('\t')?;
        let coords = rest.split(',').map(|c| c.parse().ok());
        Some((pid.parse().ok()?, coords.collect::<Option<_>>()?))
    };
    parsed().ok_or_else(|| {
        let line = String::from_utf8_lossy(record);
        Error::Config(format!("malformed point record: {line:?}"))
    })
}

struct ParsePointMap;

impl MapFn for ParsePointMap {
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        // An unparsable record fails its task (the scheduler applies the
        // retry budget), the contract of every map function over foreign
        // bytes.
        let (pid, coords) = parse_point(record).unwrap_or_else(|e| panic!("{e}"));
        out.emit(&pid.to_le_bytes(), &encode_coords(&coords));
    }
}

fn nearest(coords: impl Iterator<Item = i64> + Clone, centroids: &[(u32, Vec<i64>)]) -> u32 {
    let mut best = (i128::MAX, u32::MAX);
    for (cid, c) in centroids {
        let d: i128 = coords
            .clone()
            .zip(c)
            .map(|(a, &b)| {
                let diff = (a - b) as i128;
                diff * diff
            })
            .sum();
        if (d, *cid) < best {
            best = (d, *cid);
        }
    }
    best.1
}

thread_local! {
    /// The buffer each point's `[u64 1][coords]` partial is framed in,
    /// reused from point to point by the map worker that owns it.
    static PARTIAL: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Assign each cached point to its nearest centroid. The centroid set
/// is baked in at plan-build time — rebuilt each round from the cache.
/// The point is read where it lies and its partial framed in a reused
/// buffer: nothing is allocated per point.
struct AssignMap {
    centroids: Vec<(u32, Vec<i64>)>,
}

impl PairMap for AssignMap {
    fn map_pair(&self, _key: &[u8], value: &[u8], out: &mut dyn MapEmitter) {
        let cid = nearest(coords_of(value), &self.centroids);
        PARTIAL.with_borrow_mut(|partial| {
            partial.clear();
            partial.extend_from_slice(&1u64.to_le_bytes());
            partial.extend_from_slice(value);
            out.emit(&cid.to_le_bytes(), partial);
        });
    }
}

/// Sum `[u64 count][i64 coord]*dim` partials; finish to the truncating
/// integer mean — the next round's centroid.
#[derive(Debug, Clone, Copy)]
struct MeanAgg;

impl Aggregator for MeanAgg {
    fn init(&self, _key: &[u8], value: &[u8]) -> StateBuf {
        StateBuf::from_slice(value)
    }

    fn update(&self, _key: &[u8], state: &mut StateBuf, value: &[u8]) {
        let n = u64::from_le_bytes(le_bytes(state, 0)) + u64::from_le_bytes(le_bytes(value, 0));
        state[..8].copy_from_slice(&n.to_le_bytes());
        for (s, v) in state[8..]
            .chunks_exact_mut(8)
            .zip(value[8..].chunks_exact(8))
        {
            let sum = i64::from_le_bytes(le_bytes(s, 0)) + i64::from_le_bytes(le_bytes(v, 0));
            s.copy_from_slice(&sum.to_le_bytes());
        }
    }

    fn merge(&self, key: &[u8], state: &mut StateBuf, other: &[u8]) {
        self.update(key, state, other);
    }

    fn finish(&self, _key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        let count = u64::from_le_bytes(le_bytes(state, 0)) as i64;
        for sum in coords_of(&state[8..]) {
            out.extend_from_slice(&(sum / count).to_le_bytes());
        }
    }

    fn combinable(&self) -> bool {
        true
    }
}

fn parse_job(reducers: usize) -> Result<JobSpec> {
    JobSpec::builder("kmeans-parse")
        .map_fn(Arc::new(ParsePointMap))
        .aggregate(Arc::new(FirstAgg))
        .reducers(reducers)
        .preset_onepass()
        .build()
}

fn assign_job(centroids: Vec<(u32, Vec<i64>)>, reducers: usize) -> Result<JobSpec> {
    JobSpec::builder("kmeans-assign")
        .map_fn(pair_map_fn(Arc::new(AssignMap { centroids })))
        .aggregate(Arc::new(MeanAgg))
        .reducers(reducers)
        .preset_onepass()
        .build()
}

/// Knobs for the k-means loop.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Centroid count (seeded from the first `k` point records).
    pub k: usize,
    /// Maximum rounds (round 0 parses and caches the points).
    pub rounds: usize,
    /// Stop when no centroid coordinate moves by more than this;
    /// `None` always runs `rounds` rounds.
    pub eps: Option<i64>,
    /// Reducers per round.
    pub reducers: usize,
    /// Records per map split.
    pub records_per_split: usize,
}

impl KMeansConfig {
    /// Defaults for `k` centroids: 10 rounds, exact convergence cutoff.
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            rounds: 10,
            eps: Some(0),
            reducers: 4,
            records_per_split: 256,
        }
    }
}

/// Final centroids, sorted by centroid id.
pub type Centroids = Vec<(u32, Vec<i64>)>;

fn seed_centroids(records: &[Vec<u8>], k: usize) -> Result<Centroids> {
    if records.len() < k {
        return Err(Error::Config(format!(
            "k-means needs at least k={k} records, got {}",
            records.len()
        )));
    }
    records[..k]
        .iter()
        .enumerate()
        .map(|(cid, r)| Ok((cid as u32, parse_point(r)?.1)))
        .collect()
}

fn cached_centroids(cache: &DatasetCache) -> Result<Centroids> {
    let parts = cache.get(CENTROIDS_DATASET)?.ok_or_else(|| {
        Error::InvalidState(format!("dataset '{CENTROIDS_DATASET}' is not in the cache"))
    })?;
    let mut out: Centroids = parts
        .iter()
        .flat_map(|p| p.iter())
        .map(|(k, v)| (u32::from_le_bytes(le_bytes(k, 0)), decode_coords(v)))
        .collect();
    out.sort_unstable();
    Ok(out)
}

fn moved(prev: &Centroids, cur: &Centroids, eps: i64) -> bool {
    if prev.len() != cur.len() {
        return true;
    }
    prev.iter().zip(cur).any(|((pid, pc), (cid, cc))| {
        pid != cid || pc.iter().zip(cc).any(|(&a, &b)| (a - b).abs() > eps)
    })
}

/// Run cached k-means: round 0 parses the points into the cache and the
/// driver seeds the centroids from the first `k` records; each later
/// round assigns the cached points to the current centroids and caches
/// the new centroid set. Returns final centroids and rounds run.
pub fn run_cached(
    engine: &Engine,
    cache: &DatasetCache,
    records: &[Vec<u8>],
    cfg: &KMeansConfig,
) -> Result<(Centroids, usize)> {
    let reducers = cfg.reducers;
    let splits = make_splits(records.to_vec(), cfg.records_per_split);
    let mut current = seed_centroids(records, cfg.k)?;
    let seed = current.clone();
    let mut iter = IterativePlan::new(move |round, c| {
        let mut b = Plan::builder();
        if round == 0 {
            let s = b.add_stage(parse_job(reducers)?);
            b.cache_output(s, POINTS_DATASET);
            Ok((b.build()?, splits.clone()))
        } else {
            let centroids = if round == 1 {
                seed.clone()
            } else {
                cached_centroids(c)?
            };
            let s = b.add_stage(assign_job(centroids, reducers)?);
            b.cached_input(s, POINTS_DATASET);
            b.cache_output(s, CENTROIDS_DATASET);
            Ok((b.build()?, Vec::new()))
        }
    });
    let eps = cfg.eps;
    let rounds = iter.run_until(engine, cache, cfg.rounds.max(1), |ctx| {
        if ctx.round == 0 {
            return Ok(false);
        }
        let next = cached_centroids(ctx.cache)?;
        let done = match eps {
            None => false,
            Some(eps) => !moved(&current, &next, eps),
        };
        current = next;
        Ok(done)
    })?;
    Ok((cached_centroids(cache)?, rounds))
}

/// Pure-Rust reference: same integer math, same seeding, same stopping
/// rule, single-threaded.
pub fn reference(records: &[Vec<u8>], cfg: &KMeansConfig) -> Result<(Centroids, usize)> {
    let points = records
        .iter()
        .map(|r| parse_point(r))
        .collect::<Result<Vec<_>>>()?;
    let mut current = seed_centroids(records, cfg.k)?;
    let mut rounds = 1; // the parse round
    for _ in 1..cfg.rounds.max(1) {
        let mut acc: HashMap<u32, (u64, Vec<i64>)> = HashMap::new();
        for (_, coords) in &points {
            let cid = nearest(coords.iter().copied(), &current);
            let e = acc.entry(cid).or_insert_with(|| (0, vec![0; coords.len()]));
            e.0 += 1;
            for (s, &c) in e.1.iter_mut().zip(coords) {
                *s += c;
            }
        }
        let mut next: Centroids = acc
            .into_iter()
            .map(|(cid, (n, sums))| (cid, sums.into_iter().map(|s| s / n as i64).collect()))
            .collect();
        next.sort_unstable();
        rounds += 1;
        let done = matches!(cfg.eps, Some(eps) if !moved(&current, &next, eps));
        current = next;
        if done {
            break;
        }
    }
    Ok((current, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_runtime::CacheConfig;

    #[test]
    fn cached_loop_matches_reference_and_recovers_clusters() {
        let pcfg = PointsConfig::default();
        let records = point_records(pcfg);
        let mut cfg = KMeansConfig::new(pcfg.clusters);
        cfg.rounds = 15;
        cfg.reducers = 3;
        let (want, want_rounds) = reference(&records, &cfg).unwrap();
        assert!(want_rounds < 15, "converges before the cap");
        assert_eq!(want.len(), pcfg.clusters);
        // Each recovered centroid sits near one true generator center.
        for (i, (_, coords)) in want.iter().enumerate() {
            let center = i as i64 * pcfg.spread;
            assert!(
                (coords[0] - center).abs() < pcfg.spread / 5,
                "centroid {i} at {coords:?}, expected near {center}"
            );
        }

        let engine = Engine::new();
        let cache = DatasetCache::new(CacheConfig::default());
        let (got, rounds) = run_cached(&engine, &cache, &records, &cfg).unwrap();
        assert_eq!(got, want);
        assert_eq!(rounds, want_rounds);
        assert!(
            cache.stats().hits as usize >= rounds - 1,
            "every assign round reads cached points"
        );
    }

    #[test]
    fn fixed_rounds_without_eps() {
        let pcfg = PointsConfig {
            points: 60,
            ..Default::default()
        };
        let records = point_records(pcfg);
        let mut cfg = KMeansConfig::new(3);
        cfg.rounds = 4;
        cfg.eps = None;
        cfg.reducers = 2;
        let (want, want_rounds) = reference(&records, &cfg).unwrap();
        assert_eq!(want_rounds, 4);
        let engine = Engine::new();
        let cache = DatasetCache::new(CacheConfig::default());
        let (got, rounds) = run_cached(&engine, &cache, &records, &cfg).unwrap();
        assert_eq!((got, rounds), (want, 4));
    }

    /// At 20k points one map slot sees every key of a round, past its
    /// 16 Ki-key sample. The parse round's keys are all distinct, so it
    /// stops combining; an assign round emits k keys, so its slot keeps
    /// folding every point into k states. The centroids are the
    /// reference's.
    #[test]
    fn cached_rounds_past_the_sample_window_match_the_reference() {
        use onepass_core::trace::Tracer;
        let pcfg = PointsConfig {
            points: 20_000,
            ..Default::default()
        };
        let records = point_records(pcfg);
        let mut cfg = KMeansConfig::new(pcfg.clusters);
        cfg.rounds = 4;
        cfg.eps = None;
        let (want, want_rounds) = reference(&records, &cfg).unwrap();

        let tracer = Tracer::enabled();
        let engine = Engine::with_config(
            onepass_runtime::EngineConfig::builder()
                .map_workers(1)
                .tracer(tracer.clone())
                .build(),
        );
        let cache = DatasetCache::new(CacheConfig::default());
        let (got, rounds) = run_cached(&engine, &cache, &records, &cfg).unwrap();
        assert_eq!((got, rounds), (want, want_rounds));
        let stops = tracer.drain();
        let stops = stops.iter().filter(|e| e.name == "stop_combining");
        assert_eq!(stops.count(), 1, "only the parse round stops combining");
    }
}
