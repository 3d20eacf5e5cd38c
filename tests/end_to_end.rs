//! Cross-crate integration tests: full MapReduce jobs through the public
//! facade, checked against brute-force reference computations.

use std::collections::BTreeMap;
use std::sync::Arc;

use onepass::prelude::*;
use onepass_workloads::clickgen::Click;
use onepass_workloads::sessionization::SessionizeAgg;
use onepass_workloads::{
    make_splits, page_frequency, per_user_count, sessionization, ClickGen, ClickGenConfig,
};

fn clicks(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut gen = ClickGen::new(ClickGenConfig {
        users: 500,
        urls: 300,
        seed,
        ..Default::default()
    });
    gen.text_records(n)
}

fn final_map(report: &onepass_runtime::JobReport) -> BTreeMap<Vec<u8>, Vec<u8>> {
    report
        .outputs
        .iter()
        .filter(|o| o.kind == EmitKind::Final)
        .map(|o| (o.key.clone(), o.value.clone()))
        .collect()
}

fn dec(v: &[u8]) -> u64 {
    u64::from_le_bytes(v.try_into().unwrap())
}

#[test]
fn page_frequency_all_presets_match_brute_force() {
    let records = clicks(20_000, 1);
    let mut truth: BTreeMap<u32, u64> = BTreeMap::new();
    for r in &records {
        *truth.entry(Click::from_text(r).unwrap().url).or_default() += 1;
    }

    for (label, job) in [
        (
            "hadoop",
            page_frequency::job()
                .reducers(3)
                .preset_hadoop()
                .build()
                .unwrap(),
        ),
        (
            "hop",
            page_frequency::job()
                .reducers(3)
                .preset_hop()
                .build()
                .unwrap(),
        ),
        (
            "onepass",
            page_frequency::job()
                .reducers(3)
                .preset_onepass()
                .build()
                .unwrap(),
        ),
    ] {
        let report = Engine::new()
            .run(&job, make_splits(records.clone(), 1500))
            .unwrap();
        let got = final_map(&report);
        assert_eq!(got.len(), truth.len(), "{label}: group count");
        for (url, count) in &truth {
            let v = got
                .get(url.to_le_bytes().as_slice())
                .unwrap_or_else(|| panic!("{label}: url {url} missing"));
            assert_eq!(dec(v), *count, "{label}: count for url {url}");
        }
    }
}

#[test]
fn sessionization_agrees_across_backends_and_memory_pressure() {
    let records = clicks(15_000, 2);
    let reference = {
        let job = sessionization::job()
            .reducers(2)
            .preset_hadoop()
            .build()
            .unwrap();
        let report = Engine::new()
            .run(&job, make_splits(records.clone(), 2000))
            .unwrap();
        final_map(&report)
    };
    assert!(!reference.is_empty());

    // Constrained memory + hash backends must produce identical sessions.
    for backend in [
        ReduceBackend::HybridHash,
        ReduceBackend::IncHash { early: None },
        ReduceBackend::FreqHash,
    ] {
        let label = backend.label();
        let job = sessionization::job()
            .reducers(2)
            .map_side(MapSideMode::Hash)
            .backend(backend)
            .reduce_budget_bytes(64 * 1024)
            .build()
            .unwrap();
        let report = Engine::new()
            .run(&job, make_splits(records.clone(), 2000))
            .unwrap();
        assert_eq!(final_map(&report), reference, "{label} diverged");
    }
}

#[test]
fn sessions_never_contain_cross_gap_clicks() {
    let records = clicks(8_000, 3);
    let job = sessionization::job()
        .reducers(2)
        .preset_onepass()
        .build()
        .unwrap();
    let report = Engine::new().run(&job, make_splits(records, 1000)).unwrap();
    let gap = onepass_workloads::sessionization::DEFAULT_GAP_S;
    let mut sessions_checked = 0;
    for (_, v) in final_map(&report) {
        for session in SessionizeAgg::decode_sessions(&v) {
            sessions_checked += 1;
            for w in session.windows(2) {
                assert!(w[1].0 >= w[0].0, "session must be time-ordered");
                assert!(
                    w[1].0 - w[0].0 <= gap,
                    "session contains a gap larger than the threshold"
                );
            }
        }
    }
    assert!(sessions_checked > 0);
}

#[test]
fn per_user_count_streaming_equals_batch() {
    let records = clicks(10_000, 4);
    // Batch run.
    let job = per_user_count::job()
        .reducers(2)
        .preset_onepass()
        .build()
        .unwrap();
    let batch = Engine::new()
        .run(&job, make_splits(records.clone(), 1000))
        .unwrap();
    let batch_counts = final_map(&batch);

    // Streaming run over the same data.
    let job = per_user_count::job()
        .reducers(2)
        .backend(ReduceBackend::IncHash { early: None })
        .build()
        .unwrap();
    let mut session = StreamSession::new(job).unwrap();
    for chunk in records.chunks(500) {
        session.feed(chunk.iter().map(|r| r.as_slice())).unwrap();
    }
    let (answers, _) = session.close().unwrap();
    let stream_counts: BTreeMap<Vec<u8>, Vec<u8>> = answers
        .into_iter()
        .filter(|a| a.kind == EmitKind::Final)
        .map(|a| (a.key, a.value))
        .collect();

    assert_eq!(batch_counts, stream_counts);
}

#[test]
fn early_output_happens_before_final_under_hop() {
    let records = clicks(20_000, 5);
    let job = page_frequency::job()
        .reducers(2)
        .preset_hop()
        .build()
        .unwrap();
    let report = Engine::new().run(&job, make_splits(records, 500)).unwrap();
    assert!(report.snapshots > 0, "HOP must snapshot");
    let first_early = report.first_early_at.expect("early output exists");
    let first_final = report.first_final_at.expect("final output exists");
    // Causal, not a margin: each reducer snapshots before its own final
    // merge, so the earliest early precedes the earliest final.
    assert!(first_early <= first_final);
}

#[test]
fn collect_output_off_still_reports_stats() {
    let records = clicks(5_000, 6);
    let job = page_frequency::job()
        .reducers(2)
        .collect_mode(CollectOutput::Discard)
        .preset_hadoop()
        .build()
        .unwrap();
    let report = Engine::new().run(&job, make_splits(records, 1000)).unwrap();
    assert!(report.outputs.is_empty());
    assert!(report.groups_out > 0);
    assert!(report.input_records == 5_000);
}

#[test]
fn avg_session_gap_via_algebraic_aggregate() {
    // AVG inter-click gap per user: algebraic aggregate end-to-end, with
    // map-side combining, checked against brute force.
    use onepass_groupby::AvgAgg;
    let records = clicks(6_000, 9);
    // value = url id as a stand-in numeric metric.
    fn metric_map(record: &[u8], out: &mut dyn onepass_runtime::MapEmitter) {
        if let Some(c) = Click::from_text(record) {
            out.emit(&c.user.to_le_bytes(), &(c.url as u64).to_le_bytes());
        }
    }
    let mut sums: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for r in &records {
        let c = Click::from_text(r).unwrap();
        let e = sums.entry(c.user).or_default();
        e.0 += c.url as u64;
        e.1 += 1;
    }

    let job = onepass_runtime::JobSpec::builder("avg-metric")
        .map_fn(Arc::new(metric_map))
        .aggregate(Arc::new(AvgAgg))
        .reducers(3)
        .preset_onepass()
        .build()
        .unwrap();
    assert!(job.hash_combines(), "AVG is combinable");
    let report = Engine::new().run(&job, make_splits(records, 500)).unwrap();
    let got = final_map(&report);
    assert_eq!(got.len(), sums.len());
    for (user, (sum, count)) in sums {
        let mean = AvgAgg::decode_mean(&got[user.to_le_bytes().as_slice()]);
        let expect = sum as f64 / count as f64;
        assert!(
            (mean - expect).abs() < 1e-9,
            "user {user}: mean {mean} vs {expect}"
        );
    }
}

#[test]
fn engine_handles_single_record_and_single_reducer() {
    let job = page_frequency::job()
        .reducers(1)
        .preset_onepass()
        .build()
        .unwrap();
    let one = Click {
        ts: 1,
        user: 2,
        url: 3,
    };
    let report = Engine::new()
        .run(&job, vec![Split::new(vec![one.to_text()])])
        .unwrap();
    let got = final_map(&report);
    assert_eq!(got.len(), 1);
    assert_eq!(dec(&got[3u32.to_le_bytes().as_slice()]), 1);
}
