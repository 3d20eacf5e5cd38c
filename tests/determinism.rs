//! Determinism and robustness: the simulator must be bit-identical
//! across runs; the engine's final output must be independent of worker
//! counts, shuffle mode, split sizes, and spill backends.

use std::collections::BTreeMap;

use onepass::prelude::*;
use onepass_runtime::driver::{EngineConfig, SpillBackend};
use onepass_workloads::{make_splits, page_frequency, ClickGen, ClickGenConfig};

fn final_map(report: &onepass_runtime::JobReport) -> BTreeMap<Vec<u8>, Vec<u8>> {
    report
        .outputs
        .iter()
        .filter(|o| o.kind == EmitKind::Final)
        .map(|o| (o.key.clone(), o.value.clone()))
        .collect()
}

fn records() -> Vec<Vec<u8>> {
    let mut gen = ClickGen::new(ClickGenConfig {
        users: 200,
        urls: 150,
        ..Default::default()
    });
    gen.text_records(8_000)
}

#[test]
fn sim_is_bit_deterministic() {
    let run = || {
        run_sim_job(SimJobSpec::new(
            SystemType::Hop,
            ClusterSpec::paper_cluster(StorageConfig::HddPlusSsd),
            WorkloadProfile::inverted_index().scaled(0.05),
        ))
    };
    let a = run();
    let b = run();
    assert_eq!(a.completion_secs, b.completion_secs);
    assert_eq!(a.events, b.events);
    assert_eq!(a.spill_written_mb, b.spill_written_mb);
    assert_eq!(a.series.cpu_util_pct.points, b.series.cpu_util_pct.points);
    assert_eq!(a.series.iowait_pct.points, b.series.iowait_pct.points);
}

#[test]
fn output_independent_of_worker_count() {
    let recs = records();
    let mut reference = None;
    for workers in [1, 2, 8] {
        let job = page_frequency::job()
            .reducers(3)
            .preset_hadoop()
            .build()
            .unwrap();
        let engine = Engine::with_config(EngineConfig::builder().map_workers(workers).build());
        let report = engine.run(&job, make_splits(recs.clone(), 500)).unwrap();
        let got = final_map(&report);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "{workers} workers diverged"),
        }
    }
}

#[test]
fn output_independent_of_split_size() {
    let recs = records();
    let mut reference = None;
    for per_split in [100, 1000, 8000] {
        let job = page_frequency::job()
            .reducers(2)
            .preset_onepass()
            .build()
            .unwrap();
        let report = Engine::new()
            .run(&job, make_splits(recs.clone(), per_split))
            .unwrap();
        let got = final_map(&report);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "split size {per_split} diverged"),
        }
    }
}

#[test]
fn output_independent_of_shuffle_mode_and_granularity() {
    let recs = records();
    let mut reference = None;
    for shuffle in [ShuffleMode::Pull, ShuffleMode::Push] {
        let job = page_frequency::job()
            .reducers(2)
            .shuffle(shuffle)
            .build()
            .unwrap();
        let report = Engine::new()
            .run(&job, make_splits(recs.clone(), 800))
            .unwrap();
        let got = final_map(&report);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "{shuffle:?} diverged"),
        }
    }
}

#[test]
fn output_independent_of_spill_backend_and_budget() {
    let recs = records();
    let mut reference = None;
    for (spill, budget) in [
        (SpillBackend::Memory, usize::MAX / 4),
        (SpillBackend::Memory, 16 * 1024),
        (SpillBackend::TempFiles, 16 * 1024),
    ] {
        let job = page_frequency::job()
            .reducers(2)
            .preset_hadoop()
            .reduce_budget_bytes(budget)
            .build()
            .unwrap();
        let engine = Engine::with_config(EngineConfig::builder().spill(spill).build());
        let report = engine.run(&job, make_splits(recs.clone(), 500)).unwrap();
        let got = final_map(&report);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "{spill:?}/{budget} diverged"),
        }
    }
}
