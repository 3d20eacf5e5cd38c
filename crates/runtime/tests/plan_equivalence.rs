//! A plan's promises beyond its answers (`tests/walk.rs` holds every
//! plan row to its reference across the knob table, on both transports
//! and under seeded kills): a pair stage's two doors are one, input that
//! is not an edge record fails the job everywhere, and a sink starts
//! inside its upstream stage's lifetime.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use onepass_groupby::{Aggregator, SumAgg};
use onepass_runtime::codec::encode_pair;
use onepass_runtime::job::HashPartitioner;
use onepass_runtime::prelude::*;
use onepass_runtime::transport::worker::spawn_local;
use proptest::prelude::*;

mod common;
use common::word_map;

/// Stage-2 logic: one `(count, 1)` pair per distinct word, so the sink
/// aggregates "how many words occurred N times".
fn histogram_pair(value: &[u8], out: &mut dyn MapEmitter) {
    let mut c = [0u8; 8];
    c.copy_from_slice(&value[..8]);
    out.emit(&c, &1u64.to_le_bytes());
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
    let mut hist: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for count in common::reference(records, |c| c.to_le_bytes().to_vec()).into_values() {
        *hist.entry(count).or_default() += 1;
    }
    hist.into_iter()
        .map(|(c, n)| (c, n.to_le_bytes().to_vec()))
        .collect()
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
    let counts = JobSpec::builder("plan-eq-counts")
        .map_fn(Arc::new(word_map))
        .aggregate(Arc::new(GatedSum {
            sink_ran: Arc::clone(&sink_ran),
        }))
        .reducers(2)
        .backend(ReduceBackend::IncHash { early_every: None })
        .reduce_budget_bytes(2048) // small: force spills mid-stream
        .build()
        .unwrap();
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
