//! Distributed-mode integration tests: what a TCP run must do besides
//! answering like an in-proc one (`tests/walk.rs` holds every catalog
//! row to its reference on both transports, with and without a worker
//! killed mid-job): span and shuffle accounting, knobs that travel,
//! errors that name their cause, and failed reduces that neither hang
//! nor escape the job's `retries`.

use std::collections::BTreeMap;
use std::sync::Arc;

use onepass_core::error::Error;
use onepass_core::trace::Tracer;
use onepass_groupby::{Aggregator, EmitKind, ListAgg, StateBuf, SumAgg};
use onepass_runtime::prelude::*;
use onepass_runtime::transport::worker::spawn_local;

mod common;
use common::word_map;

fn splits() -> Vec<Split> {
    common::splits(6, 150)
}

/// A hash map side over a holistic aggregate: nothing combines, every
/// emitted record shuffles, so the volume accounting is exactly comparable
/// between transports. Every value is the same eight bytes, so a key's
/// list does not depend on the order its values arrived in.
fn wc_job() -> JobSpec {
    JobSpec::builder("wc-transport")
        .map_fn(Arc::new(word_map))
        .aggregate(Arc::new(ListAgg))
        .reducers(3)
        .backend(ReduceBackend::HybridHash)
        .build()
        .unwrap()
}

fn registry() -> JobRegistry {
    let r = JobRegistry::new();
    r.register_spec(wc_job());
    r
}

fn finals(report: &JobReport) -> BTreeMap<Vec<u8>, Vec<u8>> {
    report
        .outputs
        .iter()
        .filter(|o| o.kind == EmitKind::Final)
        .map(|o| (o.key.clone(), o.value.clone()))
        .collect()
}

fn run_inproc() -> JobReport {
    Engine::new().run(&wc_job(), splits()).unwrap()
}

fn run_tcp(workers: &[&str]) -> JobReport {
    run_tcp_on(workers, splits(), Tracer::disabled())
}

fn run_tcp_on(workers: &[&str], splits: Vec<Split>, tracer: Tracer) -> JobReport {
    let cfg = EngineConfig::builder()
        .transport(Transport::Tcp {
            workers: workers.iter().map(|s| s.to_string()).collect(),
        })
        .tracer(tracer)
        .build();
    Engine::with_config(cfg).run(&wc_job(), splits).unwrap()
}

/// The coordinator stamps the lifetime of every remote map it waits on,
/// and runs every reduce itself, so a traced `--workers` run has a `task`
/// lane per map and reduce over the very instants the report's `TaskSpan`
/// holds (what happens inside a map stays on the worker: its buffers do
/// not travel yet).
#[test]
fn traced_tcp_run_has_a_task_span_per_remote_task() {
    let w1 = spawn_local(registry(), WorkerOptions::default()).unwrap();
    let w2 = spawn_local(registry(), WorkerOptions::default()).unwrap();
    let tracer = Tracer::enabled();
    let report = run_tcp_on(&[w1.addr(), w2.addr()], splits(), tracer.clone());
    let spans = onepass_core::trace::complete_spans(&tracer.drain()).unwrap();
    let tasks: Vec<_> = spans.iter().filter(|s| s.cat == "task").collect();
    assert_eq!(tasks.len(), report.map_tasks + report.reduce_tasks);
    assert_eq!(tasks.len(), report.task_spans.len());
    for t in &report.task_spans {
        let track = (t.kind.label(), t.id as u64);
        assert!(
            tasks.iter().any(|s| (s.track.group, s.track.id) == track
                && s.name == t.kind.span_name()
                && s.duration() == t.end - t.start),
            "no task span for {t:?}"
        );
    }
    w1.shutdown();
    w2.shutdown();
}

/// Satellite: `shuffled_records`/`shuffled_bytes` are counted at the
/// fabric, above the transport — the same job shuffles the same counted
/// volume on both transports.
#[test]
fn shuffle_accounting_is_transport_agnostic() {
    let base = run_inproc();
    let w1 = spawn_local(registry(), WorkerOptions::default()).unwrap();
    let w2 = spawn_local(registry(), WorkerOptions::default()).unwrap();
    let dist = run_tcp(&[w1.addr(), w2.addr()]);
    assert_eq!(
        dist.shuffled_records, base.shuffled_records,
        "shuffled record accounting differs between transports"
    );
    assert_eq!(
        dist.shuffled_bytes, base.shuffled_bytes,
        "shuffled byte accounting differs between transports"
    );
    w1.shutdown();
    w2.shutdown();
}

/// Both workers die after their first map: the attempts still to run fail
/// at once, the retry budget runs out, and the job returns an error naming
/// the lost workers instead of waiting for a worker that will never come.
#[test]
fn losing_every_worker_fails_the_job_naming_them() {
    let dying = || WorkerOptions {
        die_after_maps: Some(1),
        ..WorkerOptions::default()
    };
    let w1 = spawn_local(registry(), dying()).unwrap();
    let w2 = spawn_local(registry(), dying()).unwrap();
    let cfg = EngineConfig::builder()
        .transport(Transport::Tcp {
            workers: vec![w1.addr().to_string(), w2.addr().to_string()],
        })
        .build();
    let err = Engine::with_config(cfg)
        .run(&wc_job(), common::splits(8, 150))
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("lost") && msg.contains(w1.addr()) && msg.contains(w2.addr()),
        "expected an error naming both lost workers, got: {msg}"
    );
    w1.shutdown();
    w2.shutdown();
}

#[test]
fn unregistered_job_is_rejected_with_config_error() {
    let w = spawn_local(JobRegistry::new(), WorkerOptions::default()).unwrap();
    let cfg = EngineConfig::builder()
        .transport(Transport::Tcp {
            workers: vec![w.addr().to_string()],
        })
        .build();
    let err = Engine::with_config(cfg)
        .run(&wc_job(), splits())
        .unwrap_err();
    assert!(
        err.to_string().contains("not registered"),
        "expected a job-rejection error, got: {err}"
    );
    w.shutdown();
}

#[test]
fn empty_worker_list_is_a_config_error() {
    let cfg = EngineConfig::builder()
        .transport(Transport::Tcp { workers: vec![] })
        .build();
    let err = Engine::with_config(cfg)
        .run(&wc_job(), splits())
        .unwrap_err();
    assert!(err.to_string().contains("worker address"), "got: {err}");
}

/// The coordinator's driver thread pings the workers every 250 ms, and
/// it exits as soon as the scheduler drops its task queue, not at its
/// next ping: a job that waited out a ping period would round every
/// job's wall up to it, and `JOBS` jobs would take at least `JOBS`
/// periods however small they are. As it is, the whole run reads about
/// 0.4 s on a 2-vCPU host against the 2 s bound — a margin of four to
/// five times, which leaves a loaded host its slack.
#[test]
fn tiny_tcp_jobs_are_not_rounded_up_to_the_heartbeat_period() {
    const JOBS: u32 = 8;
    let heartbeat = std::time::Duration::from_millis(250);
    let w1 = spawn_local(registry(), WorkerOptions::default()).unwrap();
    let w2 = spawn_local(registry(), WorkerOptions::default()).unwrap();
    let started = std::time::Instant::now();
    for _ in 0..JOBS {
        run_tcp(&[w1.addr(), w2.addr()]);
    }
    let total = started.elapsed();
    assert!(
        total < heartbeat * JOBS,
        "{JOBS} tiny jobs took {total:?}: each waits out a heartbeat tick"
    );
    w1.shutdown();
    w2.shutdown();
}

/// [`SumAgg`] that also notes, whenever it renders a group, whether a
/// spill run of this process exists on disk: the only way to tell a
/// temp-file spill store from an in-memory one through a job.
struct SpillSpy(Arc<std::sync::atomic::AtomicBool>);

impl onepass_groupby::Aggregator for SpillSpy {
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
        use std::sync::atomic::Ordering::Relaxed;
        let mine = format!("onepass-spill-{}-", std::process::id());
        let run_on_disk = || {
            std::fs::read_dir(std::env::temp_dir())
                .into_iter()
                .flatten()
                .flatten()
                .filter(|d| d.file_name().to_string_lossy().starts_with(&mine))
                .any(|d| std::fs::read_dir(d.path()).is_ok_and(|mut runs| runs.next().is_some()))
        };
        if !self.0.load(Relaxed) && run_on_disk() {
            self.0.store(true, Relaxed);
        }
        SumAgg.finish(key, state, out)
    }
}

/// Every travelling knob — `reducers` and `backend`, what a map attempt
/// reads (the backend decides whether it sorts and whether it pushes) —
/// set away from what the workers' registry holds: the
/// output (which is knob-invariant by design) must match the in-proc run,
/// and the counters must show that the knobs arrived. The reduce-side
/// rows stay behind and act on the coordinator's reducers.
#[test]
fn non_default_knobs_reach_the_workers() {
    use onepass_core::obs::{names, MetricsRegistry};
    use std::sync::atomic::{AtomicBool, Ordering};
    let on_disk = Arc::new(AtomicBool::new(false));
    let builder = |name: &str, agg: Arc<dyn Aggregator>| {
        JobSpec::builder(name)
            .map_fn(Arc::new(word_map))
            .aggregate(agg)
    };
    let spy = || Arc::new(SpillSpy(Arc::clone(&on_disk))) as Arc<dyn Aggregator>;
    // The workers know the jobs by name, with the builder's defaults
    // (four reducers, sort-merge: a sort-spill map side that pulls).
    let registry = JobRegistry::new();
    registry.register_spec(builder("wc-knobs", spy()).build().unwrap());
    registry.register_spec(builder("wc-knobs-list", Arc::new(ListAgg)).build().unwrap());
    let job = builder("wc-knobs", spy())
        .reducers(3)
        .backend(ReduceBackend::HybridHash)
        .reduce_budget_bytes(1024)
        .build()
        .unwrap();

    // Enough distinct words that no reducer's groups fit in 1 KiB, and one
    // in every record, which only a combine over the whole split counts
    // once.
    let splits = || -> Vec<Split> {
        (0..6)
            .map(|s| {
                Split::new(
                    (0..150)
                        .map(|i| format!("w{} w{i} common", s * 150 + i).into_bytes())
                        .collect(),
                )
            })
            .collect()
    };

    let base = Engine::new().run(&job, splits()).unwrap();
    assert!(
        base.reduce_spill_io.bytes_written > 0,
        "budget is not tight"
    );
    assert!(
        !on_disk.load(Ordering::Relaxed),
        "in-memory runs touch no disk"
    );

    let w1 = spawn_local(registry.clone(), WorkerOptions::default()).unwrap();
    let w2 = spawn_local(registry, WorkerOptions::default()).unwrap();
    let tcp = |metrics: &MetricsRegistry| {
        EngineConfig::builder()
            .spill(SpillBackend::TempFiles)
            .max_attempts(3)
            .metrics(metrics.clone())
            .transport(Transport::Tcp {
                workers: vec![w1.addr().to_string(), w2.addr().to_string()],
            })
            .build()
    };
    let dist = Engine::with_config(tcp(&MetricsRegistry::new()))
        .run(&job, splits())
        .unwrap();

    assert_eq!(finals(&base), finals(&dist), "distributed output differs");
    assert_eq!(dist.reduce_tasks, 3);
    // A hash map side combines the whole of a remote attempt's split (a
    // sort-spill one, pushing every 4096 records, combines each push): one
    // record per distinct word of each split.
    let distinct: usize = splits()
        .iter()
        .map(|s| {
            let words: std::collections::BTreeSet<&[u8]> = s
                .records
                .iter()
                .flat_map(|r| r.split(|&b| b == b' '))
                .collect();
            words.len()
        })
        .sum();
    assert_eq!(
        dist.shuffled_records, distinct as u64,
        "the backend did not travel"
    );
    // The reduce-side rows act on the coordinator's reducers. (How much
    // spills depends on arrival order; that it spills does not.)
    assert!(
        dist.reduce_spill_io.bytes_written > 0,
        "budget is not tight"
    );
    assert!(
        on_disk.load(Ordering::Relaxed),
        "no run file was ever on disk"
    );

    // A list does not combine, so every emitted record ships, and a push
    // every 4096 records a task emits cuts as many segments on the workers
    // as in-proc: the backend row travelled (the registry's sort-merge
    // would pull, one segment per task and partition). 1,500 three-word
    // records per task push twice.
    let list = builder("wc-knobs-list", Arc::new(ListAgg))
        .reducers(3)
        .backend(ReduceBackend::HybridHash)
        .build()
        .unwrap();
    let segments = |cfg: EngineConfig, metrics: &MetricsRegistry| {
        let report = Engine::with_config(cfg)
            .run(&list, common::splits(6, 1500))
            .unwrap();
        let cell = metrics.counter(
            names::ENGINE_SHUFFLE_SEGMENTS,
            &[("stage", "wc-knobs-list")],
        );
        (finals(&report), cell.value())
    };
    let local = MetricsRegistry::new();
    let (want, local_segments) = segments(
        EngineConfig::builder().metrics(local.clone()).build(),
        &local,
    );
    let remote = MetricsRegistry::new();
    let (got, remote_segments) = segments(tcp(&remote), &remote);
    w1.shutdown();
    w2.shutdown();
    assert_eq!(got, want, "distributed output differs");
    assert!(
        local_segments > 6 * 3,
        "{local_segments} segments: no pushes"
    );
    assert_eq!(
        remote_segments, local_segments,
        "the backend did not travel"
    );
}

/// [`SumAgg`] whose `finish` refuses one key: a failure only a reducer
/// meets, after every map has committed.
struct RefusesKey(&'static [u8]);

impl Aggregator for RefusesKey {
    fn init(&self, key: &[u8], value: &[u8]) -> StateBuf {
        SumAgg.init(key, value)
    }
    fn update(&self, key: &[u8], state: &mut StateBuf, value: &[u8]) {
        SumAgg.update(key, state, value)
    }
    fn merge(&self, key: &[u8], state: &mut StateBuf, other: &[u8]) {
        SumAgg.merge(key, state, other)
    }
    fn finish(&self, key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        assert!(key != self.0, "finish refuses key {:?}", self.0);
        SumAgg.finish(key, state, out)
    }
}

/// Under the default `retries`, a reduce that fails fails a TCP job just
/// as it fails an in-process one: with the reduce's error (not a refused
/// job), and without leaving the coordinator waiting.
#[test]
fn a_failed_reduce_fails_a_tcp_job_as_in_proc() {
    let job = || {
        JobSpec::builder("wc-refuses")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(RefusesKey(b"common")))
            .reducers(3)
            .preset_onepass()
            .build()
            .unwrap()
    };
    let err = Engine::new().run(&job(), splits()).unwrap_err();
    assert!(err.to_string().contains("finish refuses key"), "{err}");
    assert!(matches!(err, Error::InvalidState(_)), "{err:?}");

    let registry = JobRegistry::new();
    registry.register_spec(job());
    let w1 = spawn_local(registry.clone(), WorkerOptions::default()).unwrap();
    let w2 = spawn_local(registry, WorkerOptions::default()).unwrap();
    let tracer = Tracer::enabled();
    let cfg = EngineConfig::builder()
        .transport(Transport::Tcp {
            workers: vec![w1.addr().to_string(), w2.addr().to_string()],
        })
        .tracer(tracer.clone())
        .build();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(Engine::with_config(cfg).run(&job(), splits()).map(|_| ()));
    });
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the job hung on a failed reduce");
    let err = result.unwrap_err();
    assert!(err.to_string().contains("finish refuses key"), "{err}");
    assert!(matches!(err, Error::InvalidState(_)), "{err:?}");
    // One attempt, as in-proc: the map floor of workers + 2 is not the
    // reducers'.
    let failed = tracer.drain();
    let failed = failed.iter().filter(|e| e.name == "task_failed").count();
    assert_eq!(failed, 1, "one reduce attempt");
    w1.shutdown();
    w2.shutdown();
}

/// [`SumAgg`] whose `finish` refuses one key the first time any copy of
/// it meets that key, and accepts it from then on.
struct RefusesKeyOnce(&'static [u8], Arc<std::sync::atomic::AtomicBool>);

impl Aggregator for RefusesKeyOnce {
    fn init(&self, key: &[u8], value: &[u8]) -> StateBuf {
        SumAgg.init(key, value)
    }
    fn update(&self, key: &[u8], state: &mut StateBuf, value: &[u8]) {
        SumAgg.update(key, state, value)
    }
    fn merge(&self, key: &[u8], state: &mut StateBuf, other: &[u8]) {
        SumAgg.merge(key, state, other)
    }
    fn finish(&self, key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        let armed = key == self.0 && self.1.swap(false, std::sync::atomic::Ordering::SeqCst);
        assert!(!armed, "finish refuses key {:?} once", self.0);
        SumAgg.finish(key, state, out)
    }
}

/// A TCP job's reducers run on the coordinator under the job's own
/// `retries`: with two attempts, a reduce that fails once (the
/// coordinator's job is the armed one; the workers', which only map, is
/// not) is retried there, and the output equals the in-process reference.
#[test]
fn a_reduce_failing_once_over_tcp_recovers_within_retries() {
    let job = |armed: bool| {
        let once = Arc::new(std::sync::atomic::AtomicBool::new(armed));
        JobSpec::builder("wc-refuses-once")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(RefusesKeyOnce(b"common", once)))
            .reducers(3)
            .preset_onepass()
            .build()
            .unwrap()
    };
    let base = Engine::new().run(&job(false), splits()).unwrap();

    let registry = JobRegistry::new();
    registry.register_spec(job(false));
    let w1 = spawn_local(registry.clone(), WorkerOptions::default()).unwrap();
    let w2 = spawn_local(registry, WorkerOptions::default()).unwrap();
    let cfg = EngineConfig::builder()
        .max_attempts(2)
        .transport(Transport::Tcp {
            workers: vec![w1.addr().to_string(), w2.addr().to_string()],
        })
        .build();
    let dist = Engine::with_config(cfg).run(&job(true), splits()).unwrap();
    assert_eq!(
        finals(&base),
        finals(&dist),
        "output diverged after the retry"
    );
    assert_eq!(dist.failed_attempts, 1, "one failed reduce attempt");
    w1.shutdown();
    w2.shutdown();
}

/// The job's `retries` bounds a TCP job's reducers, not the floor its map
/// scheduling takes: a reduce whose every attempt fails runs five
/// attempts under `retries 5`, and then fails the job with the reduce's
/// error, without hanging.
#[test]
fn reduce_attempts_over_tcp_are_bounded_by_retries() {
    let job = || {
        JobSpec::builder("wc-refuses")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(RefusesKey(b"common")))
            .reducers(3)
            .preset_onepass()
            .build()
            .unwrap()
    };
    let registry = JobRegistry::new();
    registry.register_spec(job());
    let worker = spawn_local(registry, WorkerOptions::default()).unwrap();
    let tracer = Tracer::enabled();
    let cfg = EngineConfig::builder()
        .max_attempts(5)
        .transport(Transport::Tcp {
            workers: vec![worker.addr().to_string()],
        })
        .tracer(tracer.clone())
        .build();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(Engine::with_config(cfg).run(&job(), splits()).map(|_| ()));
    });
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the job hung on a failed reduce");
    let err = result.unwrap_err();
    assert!(err.to_string().contains("finish refuses key"), "{err}");
    assert!(matches!(err, Error::InvalidState(_)), "{err:?}");
    let events = tracer.drain();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!(count("worker_dead"), 0, "the worker stayed up");
    assert_eq!(count("task_failed"), 5, "five failed reduce attempts");
    assert_eq!(count("retry"), 4, "four retries");
    worker.shutdown();
}
