//! Equivalence property: jobs shuffled over the arena-backed
//! [`SegmentBuf`] path produce output whose unordered fingerprint is
//! byte-identical to the reference computation — across all four reduce
//! backends, both spill backends, both scopes of the map-side combiner
//! (worker in-proc; task on every TCP map slot), and with a seeded fault
//! plan forcing a map and a reduce retry
//! mid-run. A single flipped, dropped, or duplicated byte anywhere on
//! the record path (arena framing, shuffle, spill, merge, combine-table
//! replay) changes the fingerprint.

use std::collections::BTreeMap;
use std::sync::Arc;

use onepass_core::KvBuf;
use onepass_groupby::{Aggregator, EmitKind, ListAgg, SumAgg};
use onepass_runtime::prelude::*;
use onepass_runtime::transport::worker::spawn_local;
use proptest::prelude::*;

mod common;
use common::Rotating;

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
        1..40,
    )
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

/// Order-insensitive fingerprint over `(key, value)` pairs, via the same
/// [`KvBuf`] mixing the engine's buffers use.
fn fingerprint<'a>(pairs: impl IntoIterator<Item = (&'a [u8], &'a [u8])>) -> u64 {
    let mut buf = KvBuf::new();
    for (k, v) in pairs {
        buf.push(0, k, v);
    }
    buf.unordered_fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn segment_shuffle_fingerprint_matches_reference(
        records in docs(),
        backend_tag in 0u8..4,
        temp_files in any::<bool>(),
        fault_seed in any::<u64>(),
        reducers in 1usize..4,
        per_split in 1usize..10,
        // 0 = static; 1 the shipped victim rule; 2 a rotating rule —
        // governor rebalancing + shedding under the same fingerprint check.
        policy_tag in 0u8..3,
        // Map-side hash combine vs the sort-spill default: answers must
        // not move.
        hash_combine_map in any::<bool>(),
    ) {
        let mut builder = JobSpec::builder("seg-eq")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(reducers)
            .backend(mk_backend(backend_tag))
            .reduce_budget_bytes(2048); // small: force spills through the arena path
        if hash_combine_map {
            builder = builder
                .map_side(MapSideMode::Hash)
                .shuffle(ShuffleMode::Push);
        }
        let job = builder.build().unwrap();

        let splits: Vec<Split> = records
            .chunks(per_split)
            .map(|c| Split::new(c.to_vec()))
            .collect();
        let spill = if temp_files {
            SpillBackend::TempFiles
        } else {
            SpillBackend::Memory
        };
        // One seeded map kill + one seeded reduce kill mid-run: the replay
        // path (retained SegmentBuf clones) must reproduce the same bytes.
        let memory_policy = match policy_tag {
            0 => MemoryPolicy::Static,
            1 => MemoryPolicy::adaptive(),
            _ => MemoryPolicy::Adaptive {
                policy: Arc::new(Rotating::default()),
            },
        };
        let faults = FaultPlan::seeded(fault_seed, splits.len(), reducers);
        let cfg = EngineConfig::builder()
            .spill(spill)
            .max_attempts(3)
            .faults(faults)
            .memory_policy(memory_policy)
            .build();
        let report = Engine::with_config(cfg).run(&job, splits).unwrap();

        let got = fingerprint(
            report
                .outputs
                .iter()
                .filter(|o| o.kind == EmitKind::Final)
                .map(|o| (o.key.as_slice(), o.value.as_slice())),
        );
        let expect_map = reference(&records);
        let expect_enc: Vec<(Vec<u8>, [u8; 8])> = expect_map
            .into_iter()
            .map(|(k, c)| (k, c.to_le_bytes()))
            .collect();
        let expect = fingerprint(expect_enc.iter().map(|(k, v)| (k.as_slice(), &v[..])));
        prop_assert_eq!(got, expect, "fingerprint mismatch: backend {}", backend_tag);
    }
}

/// Final `(key -> value)` outputs of a report, for byte-level comparison.
fn final_outputs(report: &JobReport) -> BTreeMap<Vec<u8>, Vec<u8>> {
    report
        .outputs
        .iter()
        .filter(|o| o.kind == EmitKind::Final)
        .map(|o| (o.key.clone(), o.value.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Transport equivalence: the same job run over the TCP loopback
    /// fabric — including with a worker seeded to sever its connection
    /// mid-job (the moral equivalent of `kill -9`) — produces output
    /// byte-identical to the in-proc run, across all four reduce
    /// backends, sort-spill and both kinds of hash map side (combining a
    /// sum, and partitioning a list that cannot combine) and both spill
    /// backends.
    #[test]
    fn tcp_loopback_matches_inproc(
        records in docs(),
        backend_tag in 0u8..4,
        temp_files in any::<bool>(),
        reducers in 1usize..4,
        per_split in 1usize..10,
        // 0 = both workers healthy; n > 0 = the first worker dies after
        // n completed maps, forcing its map attempts to rerun on the
        // survivor.
        die_after_tag in 0u64..3,
        mapside_tag in 0u8..3,
    ) {
        // A list of identical values reads the same in any arrival order;
        // its length is the count.
        let combinable = mapside_tag != 1;
        let agg: Arc<dyn Aggregator> = if combinable { Arc::new(SumAgg) } else { Arc::new(ListAgg) };
        let mut builder = JobSpec::builder("seg-eq-tcp")
            .map_fn(Arc::new(word_map))
            .aggregate(agg)
            .reducers(reducers)
            .backend(mk_backend(backend_tag))
            .reduce_budget_bytes(2048);
        builder = match mapside_tag {
            0 => builder, // SortSpill + Pull defaults
            _ => builder
                .map_side(MapSideMode::Hash)
                .shuffle(ShuffleMode::Push),
        };
        let job = builder.build().unwrap();
        let spill = if temp_files {
            SpillBackend::TempFiles
        } else {
            SpillBackend::Memory
        };
        let mk_splits = || -> Vec<Split> {
            records
                .chunks(per_split)
                .map(|c| Split::new(c.to_vec()))
                .collect()
        };

        let base_cfg = EngineConfig::builder().spill(spill).build();
        let base = Engine::with_config(base_cfg).run(&job, mk_splits()).unwrap();

        let die_after = (die_after_tag > 0).then_some(die_after_tag);
        let registry = JobRegistry::new();
        registry.register_spec(job.clone());
        let w1 = spawn_local(
            registry.clone(),
            WorkerOptions {
                map_slots: 1,
                die_after_maps: die_after,
            },
        )
        .unwrap();
        let w2 = spawn_local(registry, WorkerOptions::default()).unwrap();
        let tcp_cfg = EngineConfig::builder()
            .spill(spill)
            .transport(Transport::Tcp {
                workers: vec![w1.addr().to_string(), w2.addr().to_string()],
            })
            .build();
        let dist = Engine::with_config(tcp_cfg).run(&job, mk_splits()).unwrap();
        w1.shutdown();
        w2.shutdown();

        prop_assert_eq!(
            final_outputs(&base),
            final_outputs(&dist),
            "tcp output diverged from in-proc (backend {}, mapside {}, die_after {:?})",
            backend_tag,
            mapside_tag,
            die_after
        );

        // Both must also equal the pure-Rust reference, not just each other.
        let one = 1u64.to_le_bytes();
        let value = |c: u64| -> Vec<u8> {
            if combinable {
                c.to_le_bytes().to_vec()
            } else {
                let mut list = onepass_groupby::StateBuf::new();
                for _ in 0..c {
                    ListAgg.update(b"", &mut list, &one);
                }
                list.to_vec()
            }
        };
        let expect: BTreeMap<Vec<u8>, Vec<u8>> = reference(&records)
            .into_iter()
            .map(|(k, c)| (k, value(c)))
            .collect();
        prop_assert_eq!(final_outputs(&dist), expect, "tcp output diverged from reference");
    }
}
