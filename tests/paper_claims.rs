//! The paper's headline claims, asserted as tests. Each test names the
//! section it covers; together they are the executable form of
//! EXPERIMENTS.md's shape checks.

use onepass::prelude::*;
use onepass_simcluster::SimReport;
use onepass_workloads::{make_splits, per_user_count, sessionization, ClickGen, ClickGenConfig};

fn sim(system: SystemType, storage: StorageConfig, scale: f64) -> SimReport {
    let mut spec = SimJobSpec::new(
        system,
        ClusterSpec::paper_cluster(storage),
        WorkloadProfile::sessionization().scaled(scale),
    );
    // Scale the reducer buffer with the data so the runs-per-reducer
    // regime (and hence the multi-pass merge behaviour) matches the
    // full-scale run.
    spec.reduce_mem_mb *= scale;
    run_sim_job(spec)
}

const SCALE: f64 = 0.25; // quarter-scale keeps the suite fast; shapes hold

#[test]
fn s3b3_sorting_consumes_substantial_map_cpu() {
    // Table II: sorting is 39-48% of map-phase CPU on the real engine.
    let mut gen = ClickGen::new(ClickGenConfig::default());
    let splits = make_splits(gen.text_records(60_000), 4_000);
    let job = per_user_count::job()
        .reducers(2)
        .collect_mode(CollectOutput::Discard)
        .preset_hadoop()
        .build()
        .unwrap();
    let r = Engine::new().run(&job, splits).unwrap();
    let map_fn = r.map_profile.time(Phase::MapFn).as_secs_f64();
    let sort = r.map_profile.time(Phase::MapSort).as_secs_f64();
    let share = sort / (map_fn + sort);
    // Two stamps of one task on one thread, so contention stretches both;
    // the share reads 0.54–0.59 here (0.39–0.48 in the paper, whose map
    // function does more), and the assertion leaves a factor of three.
    assert!(
        share > 0.15,
        "sort share of map CPU should be substantial, got {share:.2}"
    );
}

#[test]
fn s3b4_multipass_merge_blocks_and_costs_io() {
    let r = sim(SystemType::StockHadoop, StorageConfig::SingleHdd, SCALE);
    // Reduce-side spill exceeds map output? No — it exceeds zero and the
    // merge re-reads data (I/O amplification).
    assert!(r.spill_written_mb > 0.0);
    assert!(
        r.merge_read_mb > r.spill_written_mb * 0.5,
        "merge re-reads spilled data"
    );
    // Blocking: a merge phase exists between map and reduce phases.
    assert!(r.series.merge_tasks.max_y().unwrap_or(0.0) >= 1.0);
    // The CPU valley: mid-job utilization drops below the map phase's.
    let early = r.mean_cpu_util(0.1, 0.4);
    let valley = r.mean_cpu_util(0.48, 0.6);
    assert!(
        valley < early,
        "expected utilization valley: early {early:.0}% vs mid {valley:.0}%"
    );
    // And iowait spikes there (Fig. 2c).
    assert!(r.mean_iowait(0.48, 0.6) > r.mean_iowait(0.1, 0.4));
}

#[test]
fn s3c_storage_variants_help_but_do_not_unblock() {
    let base = sim(SystemType::StockHadoop, StorageConfig::SingleHdd, SCALE);
    let ssd = sim(SystemType::StockHadoop, StorageConfig::HddPlusSsd, SCALE);
    assert!(
        ssd.completion_secs < base.completion_secs,
        "SSD must reduce running time"
    );
    // But the blocking merge phase is still present.
    assert!(ssd.series.merge_tasks.max_y().unwrap_or(0.0) >= 1.0);

    let sep = sim(
        SystemType::StockHadoop,
        StorageConfig::Separated,
        SCALE * 0.5,
    );
    assert!(sep.series.merge_tasks.max_y().unwrap_or(0.0) >= 1.0);
}

#[test]
fn s3d_hop_is_slower_and_still_blocked() {
    let base = sim(SystemType::StockHadoop, StorageConfig::SingleHdd, SCALE);
    let hop = sim(SystemType::Hop, StorageConfig::SingleHdd, SCALE);
    assert!(
        hop.completion_secs > base.completion_secs,
        "paper: HOP total running time is longer than stock Hadoop"
    );
    assert!(hop.snapshots > 0);
    assert!(hop.series.merge_tasks.max_y().unwrap_or(0.0) >= 1.0);
}

#[test]
fn s5_hash_system_wins_on_time_and_spill_in_simulation() {
    let base = sim(SystemType::StockHadoop, StorageConfig::SingleHdd, SCALE);
    let hash = sim(SystemType::HashOnePass, StorageConfig::SingleHdd, SCALE);
    assert!(hash.completion_secs < base.completion_secs * 0.8);
    assert!(hash.merge_written_mb == 0.0, "no multi-pass merge at all");
    assert!(hash.spill_written_mb < base.spill_written_mb * 0.5);
}

#[test]
fn s5_engine_cpu_and_spill_savings() {
    // The §V prototype comparison on the real engine, small scale — as
    // properties of the two runs, not as a stopwatch. This binary's tests
    // share two cores, and at this size the two paths' CPU sums (~0.5 s
    // each under the harness) differ by less than the scheduler moves
    // them; the CPU margin itself is the ledger's to carry, by the
    // ten-pair rule at benchmark size (EXPERIMENTS.md, `sessionize_hadoop`
    // against `sessionize_constrained`). What a run *did* does not depend
    // on who else was running.
    //
    // The point: 150,000 clicks over two reducers at 1 MiB each. A
    // reducer's share of the session states (~0.6 MB of `(ts, url)` lists
    // and ~2,500 table entries) fits that budget; its share of the raw
    // records as sort-merge buffers them (24 B a record, ~1.8 MB) does
    // not. Which side of its budget each path lands on is arithmetic over
    // the input, not timing.
    let records = 150_000;
    let run = |preset_onepass: bool| {
        let mut gen = ClickGen::new(ClickGenConfig {
            users: 5_000,
            user_skew: 1.15,
            ..Default::default()
        });
        let splits = make_splits(gen.text_records(records), 150);
        let builder = sessionization::job()
            .reducers(2)
            .collect_mode(CollectOutput::Discard);
        let job = if preset_onepass {
            builder.preset_onepass()
        } else {
            builder.preset_hadoop()
        }
        .reduce_budget_bytes(1024 * 1024)
        .build()
        .unwrap();
        Engine::new().run(&job, splits).unwrap()
    };
    let hadoop = run(false);
    let onepass = run(true);
    assert_eq!(hadoop.groups_out, onepass.groups_out);
    // CPU the hash path never spends: no sort map-side, no merge
    // reduce-side — phases that never ran stamp exactly zero — while the
    // baseline ran both over every record.
    let spent = |r: &onepass_runtime::JobReport, phase| {
        r.map_profile.time(phase) + r.reduce_profile.time(phase)
    };
    for phase in [Phase::MapSort, Phase::Merge] {
        assert_eq!(spent(&onepass, phase), std::time::Duration::ZERO);
        assert!(spent(&hadoop, phase) > std::time::Duration::ZERO);
    }
    // Spill: the baseline writes every session state once and reads it
    // back once (2.6 MB of traffic, the same on every run); the hash
    // path, nothing. Ten times less is the weakest form of that which
    // still fails if the hash path starts spilling at a budget its states
    // fit.
    assert!(
        hadoop.reduce_spill_traffic() > 1024 * 1024,
        "sort-merge must spill more than one budget's worth: {}",
        hadoop.reduce_spill_traffic()
    );
    assert!(
        onepass.reduce_spill_traffic() * 10 < hadoop.reduce_spill_traffic(),
        "hash path must spill at least 10x less: {} vs {}",
        onepass.reduce_spill_traffic(),
        hadoop.reduce_spill_traffic()
    );
}

#[test]
fn table1_volume_ratios() {
    // The four intermediate/input ratios of Table I, from the simulator.
    let expect = [
        (WorkloadProfile::sessionization(), 2.5, 0.35),
        (WorkloadProfile::page_frequency(), 0.004, 0.6),
        (WorkloadProfile::per_user_count(), 0.016, 0.6),
        (WorkloadProfile::inverted_index(), 0.70, 0.25),
    ];
    for (w, paper_ratio, tolerance) in expect {
        let name = w.name;
        let r = run_sim_job(SimJobSpec::new(
            SystemType::StockHadoop,
            ClusterSpec::paper_cluster(StorageConfig::SingleHdd),
            w.scaled(SCALE),
        ));
        let got = r.intermediate_ratio();
        let dev = (got - paper_ratio).abs() / paper_ratio;
        assert!(
            dev <= tolerance,
            "{name}: intermediate ratio {got:.3} vs paper {paper_ratio:.3}"
        );
    }
}

#[test]
fn table1_completion_time_ordering() {
    let times: Vec<f64> = [
        WorkloadProfile::per_user_count(),
        WorkloadProfile::page_frequency(),
        WorkloadProfile::sessionization(),
        WorkloadProfile::inverted_index(),
    ]
    .into_iter()
    .map(|w| {
        run_sim_job(SimJobSpec::new(
            SystemType::StockHadoop,
            ClusterSpec::paper_cluster(StorageConfig::SingleHdd),
            w.scaled(SCALE),
        ))
        .completion_secs
    })
    .collect();
    // Paper: 24 < 40 < 76 < 118 minutes.
    assert!(
        times[0] < times[1] && times[1] < times[2] && times[2] < times[3],
        "completion ordering violated: {times:?}"
    );
}
