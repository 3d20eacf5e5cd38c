//! Overhead guard for the live-metrics layer: an engine run with a
//! [`MetricsRegistry`] installed must stay within 2% of the same run
//! with metrics disabled (`EngineConfig::metrics = None`, the default).
//! The instrumentation strategy under test is the batched one the
//! runtime uses — per-record counts accumulate in task-local integers
//! and flush to shared atomics every ~1k records — so the hot path
//! costs no atomics, and with metrics off every handle is a detached
//! cell updated the same way (no probe site branches on an `Option`).
//! Mirrors `bench_trace_overhead`'s noise-robust dual estimator.

use std::hint::black_box;
use std::time::{Duration, Instant};

use onepass_core::obs::MetricsRegistry;
use onepass_runtime::map_task::Split;
use onepass_runtime::{CollectOutput, Engine, EngineConfig, JobSpec};
use onepass_workloads::{make_splits, page_frequency, ClickGen, ClickGenConfig};

const RECORDS: usize = 120_000;

fn make_job() -> JobSpec {
    page_frequency::job()
        .reducers(2)
        .collect_mode(CollectOutput::Discard)
        .preset_onepass()
        .build()
        .expect("valid job")
}

fn make_input() -> Vec<Split> {
    let mut gen = ClickGen::new(ClickGenConfig::default());
    make_splits(gen.text_records(RECORDS), RECORDS / 16)
}

fn run_once(engine: &Engine, job: &JobSpec, splits: &[Split]) -> Duration {
    let input = splits.to_vec();
    let t = Instant::now();
    let report = engine.run(job, input).expect("job runs");
    black_box(report.groups_out);
    t.elapsed()
}

fn main() {
    let job = make_job();
    let splits = make_input();
    let plain_engine = Engine::new();
    let registry = MetricsRegistry::new();
    let metered_engine =
        Engine::with_config(EngineConfig::builder().metrics(registry.clone()).build());

    // Hard guard, as in bench_trace_overhead: interleaved back-to-back
    // pairs share thermal/scheduler conditions, and scheduler noise only
    // ever *adds* time — so a real regression inflates every pair while
    // noise inflates scattered ones. Both the ratio of minima and the
    // best paired ratio must exceed the budget before we call it a
    // regression.
    let mut best_plain = Duration::MAX;
    let mut best_metered = Duration::MAX;
    let mut best_pair_ratio = f64::INFINITY;
    for _ in 0..30 {
        let plain = run_once(&plain_engine, &job, &splits);
        let metered = run_once(&metered_engine, &job, &splits);
        best_plain = best_plain.min(plain);
        best_metered = best_metered.min(metered);
        best_pair_ratio = best_pair_ratio.min(metered.as_secs_f64() / plain.as_secs_f64());
    }
    let min_ratio = best_metered.as_secs_f64() / best_plain.as_secs_f64();
    let ratio = min_ratio.min(best_pair_ratio);
    println!(
        "metrics-registry overhead: {:+.2}% ({best_metered:?} vs {best_plain:?})",
        (min_ratio - 1.0) * 100.0
    );
    assert!(
        ratio < 1.02,
        "live metrics added {:.2}% to an instrumented engine run (budget 2%)",
        (ratio - 1.0) * 100.0
    );
    // Sanity: the metered runs actually published (guard isn't passing
    // because instrumentation silently vanished).
    assert!(
        !registry.snapshot().metrics.is_empty(),
        "metered engine published no metrics — the guard measured nothing"
    );
}
