//! A cache-output stage's dataset is what its reducers wrote: each
//! reducer keeps its finals as its partition and key-sorts it on its own
//! thread, and the plan publishes the partitions once it has succeeded.
//! Whatever the stage's collect mode, the transport, a downstream edge or
//! a reduce retry, the published partitions must equal what a capture
//! computed from the stage's collected finals before: route each by the
//! job's partitioner over its reducer count, then sort every partition by
//! key — and the stage must build no collected output for those finals.

use std::sync::Arc;

use onepass_core::fault::FaultPlan;
use onepass_groupby::{EmitKind, SumAgg};
use onepass_runtime::job::HashPartitioner;
use onepass_runtime::prelude::*;
use onepass_runtime::transport::worker::spawn_local;

mod common;
use common::word_map;

const DATASET: &str = "counts";

fn splits() -> Vec<Split> {
    common::splits(6, 150)
}

fn count_job(collect: CollectOutput) -> JobSpec {
    JobSpec::builder("cache-capture-counts")
        .map_fn(Arc::new(word_map))
        .aggregate(Arc::new(SumAgg))
        .reducers(3)
        .preset_onepass()
        .collect_mode(collect)
        .build()
        .unwrap()
}

/// A downstream pair stage: how many words occurred N times.
fn histogram_job() -> JobSpec {
    JobSpec::builder("cache-capture-histogram")
        .aggregate(Arc::new(SumAgg))
        .reducers(1)
        .preset_onepass()
        .build()
        .unwrap()
}

fn histogram_pair(_word: &[u8], count: &[u8], out: &mut dyn MapEmitter) {
    out.emit(count, &1u64.to_le_bytes());
}

/// The counting stage with its output cached, and, with `downstream`, a
/// histogram stage fed by an edge from it.
fn plan(downstream: bool, collect: CollectOutput) -> Plan {
    let mut b = Plan::builder();
    let counts = b.add_stage(count_job(collect));
    b.cache_output(counts, DATASET);
    if downstream {
        let hist = b.add_pair_stage(histogram_job(), Arc::new(histogram_pair));
        b.connect(counts, hist);
    }
    b.build().unwrap()
}

type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

/// The recipe the capture applied to a stage's collected finals: route by
/// the engine's hash partitioner, sort each partition by key.
fn routed_and_sorted(job: &JobSpec, finals: &Pairs) -> Vec<Pairs> {
    let mut parts = vec![Vec::new(); job.reducers];
    for (k, v) in finals {
        parts[HashPartitioner::default().partition(k, job.reducers)].push((k.clone(), v.clone()));
    }
    for p in &mut parts {
        p.sort();
    }
    parts
}

fn published(cache: &DatasetCache) -> Vec<Pairs> {
    let parts = cache.get(DATASET).unwrap().expect("the stage published");
    parts
        .iter()
        .map(|seg| seg.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect())
        .collect()
}

/// The counting job run on its own, finals collected: the reference.
fn reference_finals() -> Pairs {
    let report = Engine::new()
        .run(&count_job(CollectOutput::Collect), splits())
        .unwrap();
    let mut finals: Pairs = report
        .outputs
        .iter()
        .filter(|o| o.kind == EmitKind::Final)
        .map(|o| (o.key.clone(), o.value.clone()))
        .collect();
    finals.sort();
    finals
}

/// What the histogram stage must answer over `finals`.
fn reference_histogram(finals: &Pairs) -> Pairs {
    let mut hist = std::collections::BTreeMap::<Vec<u8>, u64>::new();
    for (_, count) in finals {
        *hist.entry(count.clone()).or_default() += 1;
    }
    hist.into_iter()
        .map(|(c, n)| (c, n.to_le_bytes().to_vec()))
        .collect()
}

/// Run the plan under `cfg` with the counting stage collecting and
/// discarding its output, with and without the downstream edge, and hold
/// every published dataset to the recipe. Returns the failed attempts the
/// runs recovered from.
fn check(cfg: impl Fn() -> EngineConfig, what: &str) -> usize {
    let mut failed = 0;
    let finals = reference_finals();
    let want = routed_and_sorted(&count_job(CollectOutput::Collect), &finals);
    for downstream in [false, true] {
        for collect in [CollectOutput::Collect, CollectOutput::Discard] {
            let cache = DatasetCache::new(CacheConfig::default());
            let report = Engine::with_config(cfg())
                .run_plan_with_cache(&plan(downstream, collect), splits(), Some(&cache))
                .unwrap();
            let at = format!("{what}, {collect:?}, downstream {downstream}");
            failed += report
                .stages
                .iter()
                .map(|s| s.report.failed_attempts)
                .sum::<usize>();
            assert_eq!(published(&cache), want, "{at}");

            // The stage's report holds the partitions and nothing else of
            // its finals; its `final_pairs` are the dataset's pairs.
            let counts = &report.stages[0].report;
            assert!(counts.outputs.is_empty(), "{at}: no collected output");
            assert_eq!(counts.partitions.len(), 3, "{at}");
            let mut pairs: Pairs = counts
                .final_pairs()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            pairs.sort();
            assert_eq!(pairs, finals, "{at}");

            let answer = report.sorted_final_outputs();
            if downstream {
                assert_eq!(answer, reference_histogram(&finals), "{at}");
            } else {
                assert_eq!(answer, finals, "{at}: a cached sink's answer");
            }
        }
    }
    failed
}

#[test]
fn in_proc_partitions_equal_the_routed_and_sorted_finals() {
    assert_eq!(check(EngineConfig::default, "in-proc"), 0);
}

#[test]
fn partitions_survive_a_seeded_reduce_kill() {
    for seed in [3, 17] {
        let faults = FaultPlan::seeded(seed, 6, 3);
        let failed = check(
            || {
                EngineConfig::builder()
                    .max_attempts(3)
                    .faults(faults.clone())
                    .build()
            },
            &format!("in-proc, seeded kill {seed}"),
        );
        assert!(
            failed >= 4,
            "seed {seed}: every run retried its killed tasks"
        );
    }
}

/// Over TCP the maps run on the workers and every reducer runs on the
/// coordinator; the dataset must be the same as in-proc.
#[test]
fn tcp_partitions_equal_the_routed_and_sorted_finals() {
    let registry = JobRegistry::new();
    for job in plan(true, CollectOutput::Collect).jobs() {
        registry.register_spec(job.clone());
    }
    let w1 = spawn_local(registry.clone(), WorkerOptions::default()).unwrap();
    let w2 = spawn_local(registry, WorkerOptions::default()).unwrap();
    let workers = vec![w1.addr().to_string(), w2.addr().to_string()];
    check(
        || {
            EngineConfig::builder()
                .transport(Transport::Tcp {
                    workers: workers.clone(),
                })
                .build()
        },
        "tcp",
    );
    w1.shutdown();
    w2.shutdown();
}
