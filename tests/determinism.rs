//! Determinism: the simulator must be bit-identical across runs. (That
//! the engine's final output is independent of worker counts, shuffle
//! mode, split sizes and spill backends is `tests/walk.rs`'s to check,
//! for every catalog row.)

use onepass::prelude::*;

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
