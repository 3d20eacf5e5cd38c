//! Stress tests: moderately large end-to-end runs with real file I/O and
//! constrained memory, verifying exactness, resource cleanup and that no
//! temp files leak. The `#[ignore]`d variants run the same checks at 10×
//! the size (`cargo test --release -- --ignored`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use onepass::prelude::*;
use onepass_runtime::driver::{EngineConfig, SpillBackend};
use onepass_workloads::{make_splits, per_user_count, sessionization, ClickGen, ClickGenConfig};

/// This process's own spill root, under the test build's scratch
/// directory: `SpillBackend::TempFiles` creates its run directories in
/// `TMPDIR`, so pointing that here keeps the leak count below off the
/// machine-wide temp directory, where any other `cargo test` on the host
/// creates and deletes `onepass-spill-*` directories of its own. Every
/// test of this binary calls it first, so the variable is set once,
/// before anything reads it.
fn spill_root() -> &'static Path {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("stress-spill-{}", std::process::id()));
        std::fs::create_dir_all(&root).expect("create the stress spill root");
        std::env::set_var("TMPDIR", &root);
        root
    })
}

/// Spill directories under this process's root. Runs that spill to files
/// hold `FILE_RUNS` while they count, so two of them never see each
/// other's live directories.
fn spill_dirs() -> usize {
    std::fs::read_dir(spill_root())
        .expect("read the stress spill root")
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with("onepass-spill-")
        })
        .count()
}

static FILE_RUNS: Mutex<()> = Mutex::new(());

fn run_pair(records: usize) {
    // A poisoned lock only means the other run failed its own assertions.
    let _alone = FILE_RUNS.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(spill_dirs(), 0, "a run before this one leaked");
    let mut gen = ClickGen::new(ClickGenConfig {
        users: 20_000,
        user_skew: 1.1,
        ..Default::default()
    });
    let data = gen.text_records(records);

    let engine = Engine::with_config(
        EngineConfig::builder()
            .spill(SpillBackend::TempFiles)
            .build(),
    );
    let mut finals: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = Vec::new();
    for preset_onepass in [false, true] {
        let builder = sessionization::job()
            .reducers(4)
            .reduce_budget_bytes(256 * 1024); // tight: forces real spills
        let job = if preset_onepass {
            builder.preset_onepass()
        } else {
            builder.preset_hadoop()
        }
        .build()
        .unwrap();
        let report = engine
            .run(&job, make_splits(data.clone(), records / 64))
            .unwrap();
        assert!(
            report.reduce_spill_io.bytes_written > 0,
            "tight budget must force spilling"
        );
        finals.push(
            report
                .outputs
                .iter()
                .filter(|o| o.kind == EmitKind::Final)
                .map(|o| (o.key.clone(), o.value.clone()))
                .collect(),
        );
    }
    assert_eq!(finals[0], finals[1], "paths disagree under file I/O");
    assert!(!finals[0].is_empty());
    assert_eq!(spill_dirs(), 0, "temp spill directories leaked");
}

#[test]
fn file_backed_spilling_agrees_and_cleans_up() {
    run_pair(120_000);
}

#[test]
#[ignore = "10x-size variant; run with --ignored"]
fn file_backed_spilling_agrees_and_cleans_up_large() {
    run_pair(1_200_000);
}

#[test]
fn counting_workload_under_pressure_is_exact() {
    spill_root();
    let records = 150_000;
    let mut gen = ClickGen::new(ClickGenConfig {
        users: 50_000,
        ..Default::default()
    });
    let data = gen.text_records(records);
    let mut truth: BTreeMap<u32, u64> = BTreeMap::new();
    for r in &data {
        let c = onepass_workloads::clickgen::Click::from_text(r).unwrap();
        *truth.entry(c.user).or_default() += 1;
    }

    let job = per_user_count::job()
        .reducers(4)
        .preset_onepass()
        .reduce_budget_bytes(128 * 1024)
        .build()
        .unwrap();
    let report = Engine::new().run(&job, make_splits(data, 2000)).unwrap();
    let mut total = 0u64;
    let mut groups = 0usize;
    for o in report.outputs.iter().filter(|o| o.kind == EmitKind::Final) {
        let user = u32::from_le_bytes(o.key.as_slice().try_into().unwrap());
        let n = u64::from_le_bytes(o.value.as_slice().try_into().unwrap());
        assert_eq!(truth[&user], n, "user {user}");
        total += n;
        groups += 1;
    }
    assert_eq!(total, records as u64);
    assert_eq!(groups, truth.len());
}
