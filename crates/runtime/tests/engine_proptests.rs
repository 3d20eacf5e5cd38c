//! Property tests at the engine level: for random inputs and random
//! engine configurations, final output always equals the reference
//! computation — the MapReduce contract survives every combination of
//! map-side mode, shuffle mode, backend, split size and memory budget.

use std::collections::BTreeMap;
use std::sync::Arc;

use onepass_groupby::{Aggregator, EmitKind, ListAgg, SumAgg};
use onepass_runtime::map_task::Split;
use onepass_runtime::{Engine, JobSpec, MapEmitter, MapSideMode, ReduceBackend, ShuffleMode};
use proptest::prelude::*;

fn word_map(record: &[u8], out: &mut dyn MapEmitter) {
    for w in record.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
        out.emit(w, &1u64.to_le_bytes());
    }
}

/// Random "documents" over a tiny alphabet so keys collide heavily.
fn docs() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(
        prop::collection::vec(0u8..12, 0..12).prop_map(|words| {
            words
                .iter()
                .map(|w| format!("w{w}"))
                .collect::<Vec<_>>()
                .join(" ")
                .into_bytes()
        }),
        0..60,
    )
}

fn backend_strategy() -> impl Strategy<Value = u8> {
    0u8..4
}

fn mk_backend(tag: u8) -> ReduceBackend {
    match tag {
        0 => ReduceBackend::SortMerge { snapshots: false },
        1 => ReduceBackend::HybridHash,
        2 => ReduceBackend::IncHash { early: None },
        _ => ReduceBackend::FreqHash,
    }
}

fn reference(records: &[Vec<u8>]) -> BTreeMap<Vec<u8>, u64> {
    let mut t: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for r in records {
        for w in r.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            *t.entry(w.to_vec()).or_default() += 1;
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_reference_under_any_configuration(
        records in docs(),
        backend_tag in backend_strategy(),
        hash_map_side in any::<bool>(),
        push in any::<bool>(),
        reducers in 1usize..5,
        per_split in 1usize..20,
        budget_kb in 1usize..64,
        // A sum combines on either map side; a list cannot, so the hash
        // map side only partitions it. A list's length is the count.
        combinable in any::<bool>(),
    ) {
        let map_side = if hash_map_side {
            MapSideMode::Hash
        } else {
            MapSideMode::SortSpill
        };
        let agg: Arc<dyn Aggregator> = if combinable { Arc::new(SumAgg) } else { Arc::new(ListAgg) };
        let shuffle = if push {
            ShuffleMode::Push
        } else {
            ShuffleMode::Pull
        };
        let job = JobSpec::builder("prop-wc")
            .map_fn(Arc::new(word_map))
            .aggregate(agg)
            .reducers(reducers)
            .map_side(map_side)
            .shuffle(shuffle)
            .backend(mk_backend(backend_tag))
            .reduce_budget_bytes(budget_kb * 1024)
            .build()
            .unwrap();

        let splits: Vec<Split> = records
            .chunks(per_split)
            .map(|c| Split::new(c.to_vec()))
            .collect();
        let report = Engine::new().run(&job, splits).unwrap();

        let got: BTreeMap<Vec<u8>, u64> = report
            .outputs
            .iter()
            .filter(|o| o.kind == EmitKind::Final)
            .map(|o| {
                let count = if combinable {
                    u64::from_le_bytes(o.value.as_slice().try_into().unwrap())
                } else {
                    ListAgg::decode(&o.value).len() as u64
                };
                (o.key.clone(), count)
            })
            .collect();
        let expect = reference(&records);
        prop_assert_eq!(got, expect);
        // No duplicate finals (one per key).
        prop_assert_eq!(
            report.groups_out as usize,
            report
                .outputs
                .iter()
                .filter(|o| o.kind == EmitKind::Final)
                .count()
        );
    }
}
