//! Equivalence property for staged query plans: a two-stage plan
//! (word count, then a histogram of the counts) produces byte-identical
//! sink output whether the stages run as one plan with a streamed edge,
//! split across two plans with the edge carried by the [`DatasetCache`]
//! (`cache_output` → `cached_input`), or as two hand-chained
//! [`Engine::run`] calls with the edge encoded manually through the edge
//! codec — and all three match a pure-Rust reference.
//! (The plans themselves carry pairs on every edge; the codec appears
//! here only where a test crosses an edge by hand.)
//! The property sweeps all four reduce backends, both spill backends,
//! static and pooled memory (the shipped victim rule and a rotating
//! one), and a seeded fault plan that kills a map and a reduce task mid-run, so
//! edge streaming (and a cached round's replay) must survive retries,
//! spills, combine-table flushes, and rebalancing without changing
//! answers. A last test holds the plan's one structural promise: a sink
//! starts inside its upstream stage's lifetime.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use onepass_groupby::{Aggregator, SumAgg};
use onepass_runtime::codec::{decode_pair, encode_pair};
use onepass_runtime::job::HashPartitioner;
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

/// Stage-2 logic: one `(count, 1)` pair per distinct word, so the sink
/// aggregates "how many words occurred N times".
fn histogram_pair(value: &[u8], out: &mut dyn MapEmitter) {
    let mut c = [0u8; 8];
    c.copy_from_slice(&value[..8]);
    out.emit(&c, &1u64.to_le_bytes());
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

fn mk_policy(tag: u8) -> MemoryPolicy {
    match tag {
        0 => MemoryPolicy::Static,
        1 => MemoryPolicy::adaptive(),
        _ => MemoryPolicy::Adaptive {
            policy: Arc::new(Rotating::default()),
        },
    }
}

fn count_job(backend: ReduceBackend, reducers: usize) -> JobSpec {
    JobSpec::builder("plan-eq-counts")
        .map_fn(Arc::new(word_map))
        .aggregate(Arc::new(SumAgg))
        .reducers(reducers)
        .backend(backend)
        .reduce_budget_bytes(2048) // small: force spills mid-stream
        .build()
        .unwrap()
}

fn histogram_job() -> JobSpec {
    JobSpec::builder("plan-eq-histogram")
        .aggregate(Arc::new(SumAgg))
        .reducers(1)
        .preset_onepass()
        .build()
        .unwrap()
}

/// `histogram of (word -> occurrences)` computed without the engine.
fn reference(records: &[Vec<u8>]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut counts: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for r in records {
        for w in r.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            *counts.entry(w.to_vec()).or_default() += 1;
        }
    }
    let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
    for &c in counts.values() {
        *hist.entry(c).or_default() += 1;
    }
    hist.into_iter()
        .map(|(c, n)| (c.to_le_bytes().to_vec(), n.to_le_bytes().to_vec()))
        .collect()
}

fn mk_config(spill: SpillBackend, policy: MemoryPolicy, faults: Option<FaultPlan>) -> EngineConfig {
    let mut b = EngineConfig::builder().spill(spill).memory_policy(policy);
    if let Some(f) = faults {
        b = b.max_attempts(3).faults(f);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn plan_modes_and_manual_stages_agree(
        records in docs(),
        backend_tag in 0u8..4,
        temp_files in any::<bool>(),
        fault_seed in any::<u64>(),
        reducers in 1usize..4,
        per_split in 1usize..10,
        policy_tag in 0u8..3,
    ) {
        let splits: Vec<Split> = records
            .chunks(per_split)
            .map(|c| Split::new(c.to_vec()))
            .collect();
        let spill = if temp_files {
            SpillBackend::TempFiles
        } else {
            SpillBackend::Memory
        };
        let backend = mk_backend(backend_tag);

        let mut b = Plan::builder();
        let counts = b.add_stage(count_job(backend.clone(), reducers));
        let hist = b.add_pair_stage(
            histogram_job(),
            Arc::new(|_key: &[u8], value: &[u8], out: &mut dyn MapEmitter| {
                histogram_pair(value, out);
            }),
        );
        b.connect(counts, hist);
        let plan = b.build().unwrap();

        // The fault plan is sized for stage 1 (the stage with real map
        // splits and multiple reducers); stage 2's task ids mostly miss
        // it, which is fine — the seeded kills land somewhere upstream.
        let faults = FaultPlan::seeded(fault_seed, splits.len(), reducers);

        let mut outputs = Vec::new();
        {
            let cfg = mk_config(spill, mk_policy(policy_tag), Some(faults.clone()));
            let report = Engine::with_config(cfg)
                .run_plan(&plan, splits.clone())
                .unwrap();
            outputs.push(("streamed", report.sorted_final_outputs()));
        }

        // Cached leg: the same two stages split across two plans with
        // the edge carried by the DatasetCache — stage 1 caches its
        // finals, a second (record-input-free) plan histograms the
        // cached partitions. The same seeded fault plan applies to both
        // plans, so killed tasks must replay against (and into) the
        // cache without changing bytes.
        {
            let cache = DatasetCache::new(CacheConfig::default());
            let cfg = mk_config(spill, mk_policy(policy_tag), Some(faults.clone()));
            let engine = Engine::with_config(cfg);

            let mut b = Plan::builder();
            let s = b.add_stage(count_job(backend.clone(), reducers));
            b.cache_output(s, "counts");
            let p1 = b.build().unwrap();
            engine
                .run_plan_with_cache(&p1, splits.clone(), Some(&cache))
                .unwrap();

            struct HistFromEdge;
            impl MapFn for HistFromEdge {
                fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
                    let (_, value) = decode_pair(record).expect("valid edge");
                    histogram_pair(value, out);
                }
            }
            let mut hist = histogram_job();
            hist.map_fn = Arc::new(HistFromEdge);
            let mut b = Plan::builder();
            let s = b.add_stage(hist);
            b.cached_input(s, "counts");
            let p2 = b.build().unwrap();
            let report = engine
                .run_plan_with_cache(&p2, Vec::new(), Some(&cache))
                .unwrap();
            prop_assert!(cache.stats().hits > 0, "histogram plan must hit the cache");
            let mut cached_out = report.sorted_final_outputs();
            cached_out.sort();
            outputs.push(("cached", cached_out));
        }

        // Manual chaining: run each stage as a standalone job and carry
        // the edge by hand through the public edge codec. No faults —
        // this leg is the engine-level reference, kept deterministic.
        let r1 = Engine::with_config(mk_config(spill, mk_policy(policy_tag), None))
            .run(&count_job(backend, reducers), splits)
            .unwrap();
        let edge: Vec<Vec<u8>> = r1
            .outputs
            .iter()
            .filter(|o| o.kind == onepass_groupby::EmitKind::Final)
            .map(|o| encode_pair(&o.key, &o.value))
            .collect();
        let edge_splits: Vec<Split> = edge
            .chunks(per_split)
            .map(|c| Split::new(c.to_vec()))
            .collect();
        let mut job2 = histogram_job();
        job2.map_fn = Arc::new(|record: &[u8], out: &mut dyn MapEmitter| {
            let (_, value) = decode_pair(record).expect("valid edge");
            histogram_pair(value, out);
        });
        let r2 = if edge_splits.is_empty() {
            None
        } else {
            Some(
                Engine::with_config(mk_config(spill, mk_policy(policy_tag), None))
                    .run(&job2, edge_splits)
                    .unwrap(),
            )
        };
        let manual: Vec<(Vec<u8>, Vec<u8>)> = {
            let mut v: Vec<_> = r2
                .iter()
                .flat_map(|r| r.outputs.iter())
                .filter(|o| o.kind == onepass_groupby::EmitKind::Final)
                .map(|o| (o.key.clone(), o.value.clone()))
                .collect();
            v.sort();
            v
        };

        let expect = reference(&records);
        for (label, got) in &outputs {
            prop_assert_eq!(
                got,
                &expect,
                "{} sink output diverged from reference (backend {})",
                label,
                backend_tag
            );
        }
        prop_assert_eq!(
            &manual,
            &expect,
            "manually chained stages diverged from reference (backend {})",
            backend_tag
        );
    }
}

/// Build the two-stage plan the TCP property runs.
fn mk_plan(backend: ReduceBackend, reducers: usize) -> Plan {
    let mut b = Plan::builder();
    let counts = b.add_stage(count_job(backend, reducers));
    let hist = b.add_pair_stage(
        histogram_job(),
        Arc::new(|_key: &[u8], value: &[u8], out: &mut dyn MapEmitter| {
            histogram_pair(value, out);
        }),
    );
    b.connect(counts, hist);
    b.build().unwrap()
}

/// The registry a worker needs to serve a plan: the plan's own jobs. A
/// pair stage's job already carries its pair function as `map_fn`, so what
/// the coordinator runs and what a worker rebuilds by name are one spec.
fn plan_registry(plan: &Plan) -> JobRegistry {
    let r = JobRegistry::new();
    for job in plan.jobs() {
        r.register_spec(job.clone());
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Transport equivalence for staged plans: the two-stage plan run
    /// over the TCP loopback fabric — including with a worker seeded to
    /// sever its connections mid-job — matches the pure-Rust reference
    /// byte for byte. Both stages map on the workers and reduce on the
    /// coordinator, so stage 2's maps read an edge streamed from stage 1's
    /// local reducers.
    #[test]
    fn plan_over_tcp_loopback_matches_reference(
        records in docs(),
        backend_tag in 0u8..4,
        reducers in 1usize..4,
        per_split in 1usize..10,
        // Per-connection kill (0 = healthy): the dying worker severs both
        // stage connections independently.
        die_after_tag in 0u64..3,
    ) {
        let backend = mk_backend(backend_tag);
        let splits: Vec<Split> = records
            .chunks(per_split)
            .map(|c| Split::new(c.to_vec()))
            .collect();
        let plan = mk_plan(backend, reducers);

        let die_after = (die_after_tag > 0).then_some(die_after_tag);
        let registry = plan_registry(&plan);
        let w1 = spawn_local(
            registry.clone(),
            WorkerOptions {
                map_slots: 1,
                die_after_maps: die_after,
            },
        )
        .unwrap();
        let w2 = spawn_local(registry, WorkerOptions::default()).unwrap();

        let cfg = EngineConfig::builder()
            .transport(Transport::Tcp {
                workers: vec![w1.addr().to_string(), w2.addr().to_string()],
            })
            .build();
        let report = Engine::with_config(cfg)
            .run_plan(&plan, splits)
            .unwrap_or_else(|e| {
                panic!(
                    "tcp plan failed (backend {}, die_after {:?}): {}",
                    backend_tag, die_after, e
                )
            });
        w1.shutdown();
        w2.shutdown();

        prop_assert_eq!(
            report.sorted_final_outputs(),
            reference(&records),
            "tcp plan output diverged from reference (backend {}, die_after {:?})",
            backend_tag,
            die_after
        );
    }
}

/// Collects what a map function emits.
#[derive(Default)]
struct Emitted(Vec<(Vec<u8>, Vec<u8>)>);

impl MapEmitter for Emitted {
    fn emit(&mut self, key: &[u8], value: &[u8]) {
        self.0.push((key.to_vec(), value.to_vec()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The adapter's two doors are one: an edge record through `map` is
    /// the pair through `map_pair`, for any bytes — and a record stage's
    /// default `map_pair` hands `map` exactly that edge record.
    #[test]
    fn pair_adapter_map_of_an_edge_record_is_map_pair(
        key in prop::collection::vec(any::<u8>(), 0..40),
        value in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        let echo = pair_map_fn(Arc::new(|k: &[u8], v: &[u8], out: &mut dyn MapEmitter| {
            out.emit(k, v);
            out.emit(v, k);
        }));
        let (mut by_record, mut by_pair) = (Emitted::default(), Emitted::default());
        echo.map(&encode_pair(&key, &value), &mut by_record);
        echo.map_pair(&key, &value, &mut by_pair);
        prop_assert_eq!(&by_record.0, &by_pair.0);
        prop_assert_eq!(&by_pair.0[0], &(key.clone(), value.clone()));

        let record_stage = |record: &[u8], out: &mut dyn MapEmitter| out.emit(record, b"");
        let mut seen = Emitted::default();
        MapFn::map_pair(&record_stage, &key, &value, &mut seen);
        prop_assert_eq!(&seen.0[0].0, &encode_pair(&key, &value));
    }
}

/// Bytes reach a pair stage only from outside (plan input, a `NewSplit`
/// body): input that is not an edge record fails the job with the
/// malformed-record message — in-process and on a TCP worker — and is
/// never skipped.
#[test]
fn undecodable_input_to_a_source_pair_stage_fails_the_job_everywhere() {
    let mut b = Plan::builder();
    b.add_pair_stage(
        histogram_job(),
        Arc::new(|_key: &[u8], value: &[u8], out: &mut dyn MapEmitter| {
            histogram_pair(value, out);
        }),
    );
    let plan = b.build().unwrap();
    let input = || {
        vec![Split::new(vec![
            encode_pair(b"w", &3u64.to_le_bytes()),
            vec![200, 0, 0, 0, 1], // a key length that overruns the record
        ])]
    };

    let worker = spawn_local(plan_registry(&plan), WorkerOptions::default()).unwrap();
    let tcp = Transport::Tcp {
        workers: vec![worker.addr().to_string()],
    };
    for transport in [Transport::InProc, tcp] {
        let cfg = EngineConfig::builder().transport(transport.clone()).build();
        let err = Engine::with_config(cfg)
            .run_plan(&plan, input())
            .unwrap_err();
        assert!(
            err.to_string().contains("malformed inter-stage record"),
            "{transport:?}: {err}"
        );
    }
    worker.shutdown();
}

/// Set once the sink stage has mapped its first pair.
type SinkRan = Arc<(Mutex<bool>, Condvar)>;

/// The partition (of two) whose groups [`GatedSum`] holds.
fn held(key: &[u8]) -> bool {
    HashPartitioner::default().partition(key, 2) == 0
}

/// [`SumAgg`] whose `finish` holds every group of partition 0 (of two)
/// until the sink stage has mapped a pair, so the overlap under test is
/// forced rather than raced: partition 1's reducer finishes, and its edge
/// writer sends its short split as the reduce task ends. The deadline
/// only turns a plan that cannot overlap into a failed assertion instead
/// of a hang.
struct GatedSum {
    sink_ran: SinkRan,
}

impl Aggregator for GatedSum {
    fn init(&self, key: &[u8], value: &[u8]) -> onepass_groupby::StateBuf {
        SumAgg.init(key, value)
    }
    fn update(&self, key: &[u8], state: &mut onepass_groupby::StateBuf, value: &[u8]) {
        SumAgg.update(key, state, value)
    }
    fn merge(&self, key: &[u8], state: &mut onepass_groupby::StateBuf, other: &[u8]) {
        SumAgg.merge(key, state, other)
    }
    fn finish(&self, key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        if held(key) {
            let (ran, cv) = &*self.sink_ran;
            let _held = cv
                .wait_timeout_while(ran.lock().unwrap(), Duration::from_secs(20), |ran| !*ran)
                .unwrap();
        }
        SumAgg.finish(key, state, out)
    }
}

/// On the plan clock both stage reports share, the sink's first map task
/// starts before its upstream stage completes: the first edge split
/// arrives while an upstream reducer is still emitting finals.
#[test]
fn pipelined_sink_overlaps_its_upstream() {
    let records: Vec<Vec<u8>> = (0..32)
        .map(|i| format!("w{i} w{}", i / 2).into_bytes())
        .collect();
    let splits: Vec<Split> = records.chunks(4).map(|c| Split::new(c.to_vec())).collect();
    let words: Vec<String> = (0..32).map(|i| format!("w{i}")).collect();
    assert!(
        words.iter().any(|w| held(w.as_bytes())) && !words.iter().all(|w| held(w.as_bytes())),
        "both partitions hold words"
    );

    let sink_ran: SinkRan = Arc::default();
    let mut counts = count_job(mk_backend(2), 2);
    counts.agg = Arc::new(GatedSum {
        sink_ran: Arc::clone(&sink_ran),
    });
    let mut b = Plan::builder();
    let counts = b.add_stage(counts);
    let hist = b.add_pair_stage(
        histogram_job(),
        Arc::new(move |_key: &[u8], value: &[u8], out: &mut dyn MapEmitter| {
            let (ran, cv) = &*sink_ran;
            *ran.lock().unwrap() = true;
            cv.notify_all();
            histogram_pair(value, out);
        }),
    );
    b.connect(counts, hist);
    let plan = b.build().unwrap();

    let report = Engine::new().run_plan(&plan, splits).unwrap();
    assert_eq!(report.sorted_final_outputs(), reference(&records));

    let upstream_done = report.stages[0].report.wall;
    let sink_start = report
        .stages
        .iter()
        .filter(|s| s.is_sink)
        .flat_map(|s| s.report.task_spans.iter())
        .filter(|t| t.kind == TaskKind::Map)
        .map(|t| t.start)
        .min()
        .expect("sink stage ran map tasks");
    assert!(
        sink_start < upstream_done,
        "the sink started at {sink_start:?}, after its upstream finished at {upstream_done:?}"
    );
}
