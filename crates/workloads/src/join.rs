//! Clicks ⋈ users — the repo's first two-dataset workload: a
//! hybrid-hash equi-join of the click stream (probe side) against a
//! small user dimension table (build side).
//!
//! The batch shape is the classic two-input stage the [`DatasetCache`]
//! enables: [`build_plan`] parses the user table once and caches it
//! partitioned by the join key, then [`join_plan`] is a *single* stage
//! that receives both inputs — click records through the plan's record
//! input (`map`) and the cached build partitions as zero-copy aligned
//! splits (`map_pair`). Because both sides route by the same key under
//! the same partitioner and reducer count, the cached build partitions
//! are already in place (`cached_input_aligned`) and only the probe
//! side shuffles. The reduce side is Shapiro's hybrid hash
//! ([`ReduceBackend::HybridHash`]) folding [`JoinAgg`] — see
//! `onepass_groupby::join`.
//!
//! [`streaming_job`] is the serving-catalog variant: the dimension
//! table is broadcast (baked into the map function) and each click is
//! joined map-side — the standard small-table answer when records
//! arrive one at a time.

use std::collections::HashMap;
use std::sync::Arc;

use onepass_core::error::Result;
use onepass_groupby::join::encode_tagged;
use onepass_groupby::{FirstAgg, JoinAgg, ListAgg, TAG_BUILD, TAG_PROBE};
use onepass_runtime::{DatasetCache, Engine, JobSpec, MapEmitter, MapFn, Plan, ReduceBackend};

use crate::clickgen::Click;
use crate::make_splits;

/// Cached dataset holding the partitioned user dimension table.
pub const USERS_DATASET: &str = "join-users";

/// Country codes the generator assigns users to.
pub const COUNTRIES: [&str; 8] = ["AR", "BR", "DE", "FR", "IN", "JP", "KE", "US"];

/// Deterministic user dimension records: `"<uid>\t<country>"`.
pub fn user_records(users: usize) -> Vec<Vec<u8>> {
    (0..users as u32)
        .map(|uid| {
            let cc = COUNTRIES[(uid as usize * 7 + 3) % COUNTRIES.len()];
            format!("{uid}\t{cc}").into_bytes()
        })
        .collect()
}

fn parse_user(record: &[u8]) -> (u32, Vec<u8>) {
    let line = std::str::from_utf8(record).expect("utf8 user record");
    let (uid, cc) = line.split_once('\t').expect("uid\\tcountry");
    (uid.parse().expect("uid"), cc.as_bytes().to_vec())
}

struct ParseUserMap;

impl MapFn for ParseUserMap {
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        let (uid, cc) = parse_user(record);
        out.emit(&uid.to_le_bytes(), &cc);
    }
}

/// The two-input join map: click records arrive as plan input through
/// `map` (probe side), cached user partitions arrive through
/// `map_pair` (build side). Both emit under the join key, tagged.
struct JoinMap;

impl MapFn for JoinMap {
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        if let Some(c) = Click::from_text(record) {
            out.emit(
                &c.user.to_le_bytes(),
                &encode_tagged(TAG_PROBE, &c.url.to_le_bytes()),
            );
        }
    }

    fn map_pair(&self, key: &[u8], value: &[u8], out: &mut dyn MapEmitter) {
        out.emit(key, &encode_tagged(TAG_BUILD, value));
    }
}

/// The build-side plan: parse the user table into the cache, keyed and
/// partitioned exactly as the join stage will consume it.
pub fn build_plan(reducers: usize) -> Result<Plan> {
    let job = JobSpec::builder("users-build")
        .map_fn(Arc::new(ParseUserMap))
        .aggregate(Arc::new(FirstAgg))
        .reducers(reducers)
        .preset_onepass()
        .build()?;
    let mut b = Plan::builder();
    let s = b.add_stage(job);
    b.cache_output(s, USERS_DATASET);
    b.build()
}

/// The probe-side plan: one hybrid-hash stage joining click records
/// against the cached (aligned) build partitions. `reducers` must match
/// [`build_plan`]'s for the alignment to hold.
pub fn join_plan(reducers: usize) -> Result<Plan> {
    let job = JobSpec::builder("join")
        .map_fn(Arc::new(JoinMap))
        .aggregate(Arc::new(JoinAgg))
        .reducers(reducers)
        .preset_onepass()
        .backend(ReduceBackend::HybridHash)
        .build()?;
    let mut b = Plan::builder();
    let s = b.add_stage(job);
    b.cached_input_aligned(s, USERS_DATASET);
    b.build()
}

/// Joined rows `(uid, country, url)`, sorted.
pub type Joined = Vec<(u32, Vec<u8>, u32)>;

/// Run the full cached join: build the user table into `cache`, then
/// probe it with the click records. Returns the joined rows.
pub fn run_join(
    engine: &Engine,
    cache: &DatasetCache,
    users: &[Vec<u8>],
    clicks: &[Vec<u8>],
    reducers: usize,
) -> Result<Joined> {
    engine.run_plan_with_cache(
        &build_plan(reducers)?,
        make_splits(users.to_vec(), 256),
        Some(cache),
    )?;
    let report = engine.run_plan_with_cache(
        &join_plan(reducers)?,
        make_splits(clicks.to_vec(), 256),
        Some(cache),
    )?;
    let mut out = Vec::new();
    for (key, value) in report.sorted_final_outputs() {
        let uid = u32::from_le_bytes(key[..4].try_into().expect("uid key"));
        for (cc, url) in JoinAgg::decode_joined(&value) {
            out.push((
                uid,
                cc,
                u32::from_le_bytes(url[..4].try_into().expect("url")),
            ));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Pure-Rust reference join (hash map build, per-click probe).
pub fn reference_join(users: &[Vec<u8>], clicks: &[Vec<u8>]) -> Joined {
    let table: HashMap<u32, Vec<u8>> = users.iter().map(|r| parse_user(r)).collect();
    let mut out: Joined = clicks
        .iter()
        .filter_map(|r| Click::from_text(r))
        .filter_map(|c| table.get(&c.user).map(|cc| (c.user, cc.clone(), c.url)))
        .collect();
    out.sort_unstable();
    out
}

/// Map-side broadcast variant for the serving catalog: the user table
/// is baked into the map function and each click joins as it arrives,
/// emitting `(uid, [country][u32 url])` rows collected per user.
struct BroadcastJoinMap {
    table: HashMap<u32, Vec<u8>>,
}

impl MapFn for BroadcastJoinMap {
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        if let Some(c) = Click::from_text(record) {
            if let Some(cc) = self.table.get(&c.user) {
                let mut row = cc.clone();
                row.extend_from_slice(&c.url.to_le_bytes());
                out.emit(&c.user.to_le_bytes(), &row);
            }
        }
    }
}

/// The streaming join job over `users` dimension rows for the serving
/// catalog (one stage; joined rows list-collected per user).
pub fn streaming_job(users: usize) -> onepass_runtime::JobSpecBuilder {
    let table = user_records(users).iter().map(|r| parse_user(r)).collect();
    JobSpec::builder("join")
        .map_fn(Arc::new(BroadcastJoinMap { table }))
        .aggregate(Arc::new(ListAgg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clickgen::{ClickGen, ClickGenConfig};
    use onepass_runtime::CacheConfig;
    use proptest::prelude::*;

    #[test]
    fn cached_hybrid_hash_join_matches_reference() {
        let users = user_records(40);
        let mut gen = ClickGen::new(ClickGenConfig {
            users: 60, // a third of clicks miss the dimension table
            urls: 30,
            ..Default::default()
        });
        let clicks = gen.text_records(2000);
        let want = reference_join(&users, &clicks);
        assert!(!want.is_empty());

        let engine = Engine::new();
        let cache = DatasetCache::new(CacheConfig::default());
        let got = run_join(&engine, &cache, &users, &clicks, 3).unwrap();
        assert_eq!(got, want);
        assert!(cache.stats().hits > 0, "probe read cached build");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn join_matches_reference_on_random_inputs(
            users in 1usize..30,
            clicks in proptest::collection::vec((0u32..40, 0u32..20), 0..200),
            reducers in 1usize..5,
        ) {
            let users = user_records(users);
            let clicks: Vec<Vec<u8>> = clicks
                .iter()
                .enumerate()
                .map(|(i, &(u, url))| Click { ts: i as u32, user: u, url }.to_text())
                .collect();
            let want = reference_join(&users, &clicks);
            let engine = Engine::new();
            let cache = DatasetCache::new(CacheConfig::default());
            let got = run_join(&engine, &cache, &users, &clicks, reducers).unwrap();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn streaming_broadcast_join_agrees_with_reference() {
        let users = 25;
        let job = streaming_job(users)
            .reducers(2)
            .preset_onepass()
            .build()
            .unwrap();
        let mut gen = ClickGen::new(ClickGenConfig {
            users: 40,
            urls: 10,
            ..Default::default()
        });
        let clicks = gen.text_records(500);
        let engine = Engine::new();
        let report = engine.run(&job, make_splits(clicks.clone(), 128)).unwrap();
        let mut got: Joined = Vec::new();
        let finals = report
            .outputs
            .iter()
            .filter(|o| o.kind == onepass_groupby::EmitKind::Final);
        for out in finals {
            let (key, value) = (&out.key, &out.value);
            let uid = u32::from_le_bytes(key[..4].try_into().unwrap());
            // ListAgg frames: [u32 len][country..][u32 url]
            let mut i = 0;
            while i + 4 <= value.len() {
                let len = u32::from_le_bytes(value[i..i + 4].try_into().unwrap()) as usize;
                let row = &value[i + 4..i + 4 + len];
                let (cc, url) = row.split_at(len - 4);
                got.push((
                    uid,
                    cc.to_vec(),
                    u32::from_le_bytes(url.try_into().unwrap()),
                ));
                i += 4 + len;
            }
        }
        got.sort_unstable();
        assert_eq!(got, reference_join(&user_records(users), &clicks));
    }
}
