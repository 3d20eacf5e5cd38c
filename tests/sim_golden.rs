//! The simulator's outputs, pinned. Every system × storage architecture ×
//! catalog row with a simulator profile runs at 2% of paper scale, plus
//! one Hadoop run with every fault and the adaptive governor on. Each
//! case pins its report line and one FNV-1a digest over every point of
//! every figure series and the Chrome-trace JSON of its timeline, so a
//! change to the simulator that moves one event, one byte of a volume or
//! one span fails here.
//!
//! On a mismatch the test prints the whole table it computed, one
//! `<digest> <report line>` per case, in `GOLDEN`'s order.

use onepass::prelude::*;
use onepass::simcluster::SimReport;
use onepass_workloads::catalog::CATALOG;

/// Fraction of the paper's input volume each case simulates.
const SCALE: f64 = 0.02;

/// Every system, in the order the cases run.
const SYSTEMS: [SystemType; 3] = [
    SystemType::StockHadoop,
    SystemType::Hop,
    SystemType::HashOnePass,
];

/// Every storage architecture, in the order the cases run.
const STORAGES: [StorageConfig; 3] = [
    StorageConfig::SingleHdd,
    StorageConfig::HddPlusSsd,
    StorageConfig::Separated,
];

/// The paper-default spec of `system` × `profile` × `storage` at
/// [`SCALE`], with the reducer buffer scaled by the same factor.
fn spec(system: SystemType, storage: StorageConfig, profile: WorkloadProfile) -> SimJobSpec {
    let cluster = ClusterSpec::paper_cluster(storage);
    let mut spec = SimJobSpec::new(system, cluster, profile.scaled(SCALE));
    spec.reduce_mem_mb *= SCALE;
    spec
}

/// Every case, in `GOLDEN`'s order.
fn cases() -> Vec<SimJobSpec> {
    let mut cases = Vec::new();
    for w in CATALOG {
        let Some(profile) = w.sim else { continue };
        for system in SYSTEMS {
            for storage in STORAGES {
                cases.push(spec(system, storage, profile()));
            }
        }
    }
    let mut faulty = spec(
        SystemType::StockHadoop,
        StorageConfig::SingleHdd,
        WorkloadProfile::sessionization(),
    );
    faulty.faults = SimFaults {
        map_failures: vec![(1, 1)],
        map_stragglers: vec![(0, 20.0)],
        reduce_failures: vec![(0, 1)],
        speculation: true,
        ..SimFaults::default()
    };
    faulty.adaptive_memory = true;
    cases.push(faulty);
    cases
}

/// 64-bit FNV-1a, folded over byte slices in turn.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One case's pinned line: the digest of its series and trace, then its
/// report line.
fn pin(spec: SimJobSpec) -> String {
    let tracer = Tracer::enabled();
    let r: SimReport = run_sim_job_traced(spec, tracer.clone());
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let s = &r.series;
    for series in [
        &s.map_tasks,
        &s.shuffle_tasks,
        &s.merge_tasks,
        &s.reduce_tasks,
        &s.cpu_util_pct,
        &s.iowait_pct,
        &s.disk_read_mb,
        &s.disk_write_mb,
        &s.net_mb,
    ] {
        h.eat(&series.points.len().to_le_bytes());
        for &(x, y) in &series.points {
            h.eat(&x.to_bits().to_le_bytes());
            h.eat(&y.to_bits().to_le_bytes());
        }
    }
    h.eat(chrome_trace_json(&tracer.drain()).as_bytes());
    format!("{:016x} {}", h.0, r.to_jsonl().trim_end())
}

#[test]
fn simulator_outputs_are_byte_identical_to_the_pinned_table() {
    let actual: Vec<String> = cases().into_iter().map(pin).collect();
    let expected: Vec<&str> = GOLDEN.trim().lines().collect();
    if actual != expected {
        eprintln!("computed table:\n{}", actual.join("\n"));
    }
    assert_eq!(actual.len(), expected.len(), "case count");
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "case {i}");
    }
}

/// `<digest> <report line>` per case, read off the simulator as it stood
/// before its execution models became rows of one table.
const GOLDEN: &str = r#"
c70b1c3dc97a9c0a {"type":"job","system":"stock-hadoop","storage":"single-hdd","workload":"sessionization","completion_s":90.73506,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":5509.12,"spill_written_mb":5514.499999999949,"merge_read_mb":7800.999999999997,"merge_written_mb":2286.499999999999,"output_mb":5242.88,"snapshots":0,"events":3396,"local_map_fraction":1,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
ebc8cb64c0f8d0b8 {"type":"job","system":"stock-hadoop","storage":"hdd+ssd","workload":"sessionization","completion_s":76.696261,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":5509.12,"spill_written_mb":5514.499999999949,"merge_read_mb":7800.999999999997,"merge_written_mb":2286.499999999999,"output_mb":5242.88,"snapshots":0,"events":3396,"local_map_fraction":1,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
6f3c43dbfe4d23a3 {"type":"job","system":"stock-hadoop","storage":"separated-storage","workload":"sessionization","completion_s":162.29798,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":5509.12,"spill_written_mb":5514.499999999949,"merge_read_mb":7800.999999999997,"merge_written_mb":2286.499999999999,"output_mb":5242.88,"snapshots":0,"events":3508,"local_map_fraction":0,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
a0e50c12b53017fe {"type":"job","system":"mapreduce-online","storage":"single-hdd","workload":"sessionization","completion_s":107.111966,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":5509.12,"spill_written_mb":5514.499999999949,"merge_read_mb":7801,"merge_written_mb":2286.5000000000005,"output_mb":5242.88,"snapshots":80,"events":30616,"local_map_fraction":1,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
000faf3b54d8c023 {"type":"job","system":"mapreduce-online","storage":"hdd+ssd","workload":"sessionization","completion_s":77.735423,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":5509.12,"spill_written_mb":5514.499999999949,"merge_read_mb":7800.999999999999,"merge_written_mb":2286.5000000000005,"output_mb":5242.88,"snapshots":60,"events":30576,"local_map_fraction":1,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
3c82f9b011e15d49 {"type":"job","system":"mapreduce-online","storage":"separated-storage","workload":"sessionization","completion_s":198.377366,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":5509.12,"spill_written_mb":5514.499999999949,"merge_read_mb":7800.999999999999,"merge_written_mb":2286.5000000000005,"output_mb":5242.88,"snapshots":90,"events":30748,"local_map_fraction":0,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
05076f5155bb2f42 {"type":"job","system":"hash-one-pass","storage":"single-hdd","workload":"sessionization","completion_s":58.100122,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":5509.12,"spill_written_mb":0,"merge_read_mb":827.1749999999996,"merge_written_mb":0,"output_mb":5242.88,"snapshots":0,"events":5338,"local_map_fraction":1,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
06a7f31f3b7606d4 {"type":"job","system":"hash-one-pass","storage":"hdd+ssd","workload":"sessionization","completion_s":55.013621,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":5509.12,"spill_written_mb":0,"merge_read_mb":827.1749999999996,"merge_written_mb":0,"output_mb":5242.88,"snapshots":0,"events":5338,"local_map_fraction":1,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
659f17d766d4d03a {"type":"job","system":"hash-one-pass","storage":"separated-storage","workload":"sessionization","completion_s":101.155003,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":5509.12,"spill_written_mb":0,"merge_read_mb":827.1749999999996,"merge_written_mb":0,"output_mb":5242.88,"snapshots":0,"events":5450,"local_map_fraction":0,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
61e53a60db122900 {"type":"job","system":"stock-hadoop","storage":"single-hdd","workload":"page-frequency","completion_s":63.222259,"map_tasks":163,"reduce_tasks":30,"input_mb":10403.84,"map_output_mb":36.864,"spill_written_mb":4.066015748031497,"merge_read_mb":4.066015748031497,"merge_written_mb":0,"output_mb":0.40959999999999996,"snapshots":0,"events":5499,"local_map_fraction":1,"map_attempts":163,"retries":0,"speculative_launched":0,"speculative_wins":0}
ecdd889561d7ccb9 {"type":"job","system":"stock-hadoop","storage":"hdd+ssd","workload":"page-frequency","completion_s":63.115349,"map_tasks":163,"reduce_tasks":30,"input_mb":10403.84,"map_output_mb":36.864,"spill_written_mb":4.066015748031497,"merge_read_mb":4.066015748031497,"merge_written_mb":0,"output_mb":0.40959999999999996,"snapshots":0,"events":5499,"local_map_fraction":1,"map_attempts":163,"retries":0,"speculative_launched":0,"speculative_wins":0}
c59ba11bc21c9ac8 {"type":"job","system":"stock-hadoop","storage":"separated-storage","workload":"page-frequency","completion_s":119.626531,"map_tasks":163,"reduce_tasks":30,"input_mb":10403.84,"map_output_mb":36.864,"spill_written_mb":4.066015748031497,"merge_read_mb":4.066015748031497,"merge_written_mb":0,"output_mb":0.40959999999999996,"snapshots":0,"events":5692,"local_map_fraction":0,"map_attempts":163,"retries":0,"speculative_launched":0,"speculative_wins":0}
7318989bea7e2e10 {"type":"job","system":"mapreduce-online","storage":"single-hdd","workload":"page-frequency","completion_s":50.621321,"map_tasks":163,"reduce_tasks":30,"input_mb":10403.84,"map_output_mb":36.864,"spill_written_mb":4.066015748031467,"merge_read_mb":4.066015748031467,"merge_written_mb":0,"output_mb":0.40959999999999996,"snapshots":90,"events":59469,"local_map_fraction":1,"map_attempts":163,"retries":0,"speculative_launched":0,"speculative_wins":0}
f07d6697550e4f5a {"type":"job","system":"mapreduce-online","storage":"hdd+ssd","workload":"page-frequency","completion_s":50.460189,"map_tasks":163,"reduce_tasks":30,"input_mb":10403.84,"map_output_mb":36.864,"spill_written_mb":4.066015748031467,"merge_read_mb":4.066015748031467,"merge_written_mb":0,"output_mb":0.40959999999999996,"snapshots":90,"events":59469,"local_map_fraction":1,"map_attempts":163,"retries":0,"speculative_launched":0,"speculative_wins":0}
41e7427c24369a15 {"type":"job","system":"mapreduce-online","storage":"separated-storage","workload":"page-frequency","completion_s":96.855415,"map_tasks":163,"reduce_tasks":30,"input_mb":10403.84,"map_output_mb":36.864,"spill_written_mb":4.066015748031467,"merge_read_mb":4.066015748031467,"merge_written_mb":0,"output_mb":0.40959999999999996,"snapshots":90,"events":59662,"local_map_fraction":0,"map_attempts":163,"retries":0,"speculative_launched":0,"speculative_wins":0}
c2031e7e1d1daba6 {"type":"job","system":"hash-one-pass","storage":"single-hdd","workload":"page-frequency","completion_s":44.660116,"map_tasks":163,"reduce_tasks":30,"input_mb":10403.84,"map_output_mb":36.864,"spill_written_mb":0,"merge_read_mb":1.848188976377956,"merge_written_mb":0,"output_mb":0.40959999999999996,"snapshots":0,"events":10522,"local_map_fraction":1,"map_attempts":163,"retries":0,"speculative_launched":0,"speculative_wins":0}
baec4dee714d33c7 {"type":"job","system":"hash-one-pass","storage":"hdd+ssd","workload":"page-frequency","completion_s":44.597618,"map_tasks":163,"reduce_tasks":30,"input_mb":10403.84,"map_output_mb":36.864,"spill_written_mb":0,"merge_read_mb":1.848188976377956,"merge_written_mb":0,"output_mb":0.40959999999999996,"snapshots":0,"events":10522,"local_map_fraction":1,"map_attempts":163,"retries":0,"speculative_launched":0,"speculative_wins":0}
97d0a194108b1a1f {"type":"job","system":"hash-one-pass","storage":"separated-storage","workload":"page-frequency","completion_s":86.203763,"map_tasks":163,"reduce_tasks":30,"input_mb":10403.84,"map_output_mb":36.864,"spill_written_mb":0,"merge_read_mb":1.848188976377956,"merge_written_mb":0,"output_mb":0.40959999999999996,"snapshots":0,"events":10715,"local_map_fraction":0,"map_attempts":163,"retries":0,"speculative_launched":0,"speculative_wins":0}
3f87a7552e2611d2 {"type":"job","system":"stock-hadoop","storage":"single-hdd","workload":"per-user-count","completion_s":35.881314,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":53.248000000000005,"spill_written_mb":28.782000000000064,"merge_read_mb":28.782000000000064,"merge_written_mb":0,"output_mb":12.288,"snapshots":0,"events":2826,"local_map_fraction":1,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
7dbd224a74ff9e1b {"type":"job","system":"stock-hadoop","storage":"hdd+ssd","workload":"per-user-count","completion_s":35.735921,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":53.248000000000005,"spill_written_mb":28.782000000000064,"merge_read_mb":28.782000000000064,"merge_written_mb":0,"output_mb":12.288,"snapshots":0,"events":2826,"local_map_fraction":1,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
0fdcf1138669a151 {"type":"job","system":"stock-hadoop","storage":"separated-storage","workload":"per-user-count","completion_s":62.820955,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":53.248000000000005,"spill_written_mb":28.782000000000064,"merge_read_mb":28.782000000000064,"merge_written_mb":0,"output_mb":12.288,"snapshots":0,"events":2938,"local_map_fraction":0,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
e428ab77c4a55c3b {"type":"job","system":"mapreduce-online","storage":"single-hdd","workload":"per-user-count","completion_s":28.31216,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":53.248000000000005,"spill_written_mb":28.78199999999967,"merge_read_mb":28.78199999999967,"merge_written_mb":0,"output_mb":12.288,"snapshots":90,"events":30066,"local_map_fraction":1,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
0853eff30be4edce {"type":"job","system":"mapreduce-online","storage":"hdd+ssd","workload":"per-user-count","completion_s":28.139331,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":53.248000000000005,"spill_written_mb":28.78199999999967,"merge_read_mb":28.78199999999967,"merge_written_mb":0,"output_mb":12.288,"snapshots":90,"events":30066,"local_map_fraction":1,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
09729ced7dd6fe71 {"type":"job","system":"mapreduce-online","storage":"separated-storage","workload":"per-user-count","completion_s":50.16648,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":53.248000000000005,"spill_written_mb":28.78199999999967,"merge_read_mb":28.78199999999967,"merge_written_mb":0,"output_mb":12.288,"snapshots":90,"events":30178,"local_map_fraction":0,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
6bab06c3c3a86055 {"type":"job","system":"hash-one-pass","storage":"single-hdd","workload":"per-user-count","completion_s":24.840557,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":53.248000000000005,"spill_written_mb":0,"merge_read_mb":5.3300000000000045,"merge_written_mb":0,"output_mb":12.288,"snapshots":0,"events":5338,"local_map_fraction":1,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
057ca6066251e18e {"type":"job","system":"hash-one-pass","storage":"hdd+ssd","workload":"per-user-count","completion_s":24.782312,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":53.248000000000005,"spill_written_mb":0,"merge_read_mb":5.3300000000000045,"merge_written_mb":0,"output_mb":12.288,"snapshots":0,"events":5338,"local_map_fraction":1,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
e22f0ac1bcee3994 {"type":"job","system":"hash-one-pass","storage":"separated-storage","workload":"per-user-count","completion_s":44.36768,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":53.248000000000005,"spill_written_mb":0,"merge_read_mb":5.3300000000000045,"merge_written_mb":0,"output_mb":12.288,"snapshots":0,"events":5450,"local_map_fraction":0,"map_attempts":82,"retries":0,"speculative_launched":0,"speculative_wins":0}
dfa400fd75e0531e {"type":"job","system":"stock-hadoop","storage":"single-hdd","workload":"inverted-index","completion_s":142.398632,"map_tasks":137,"reduce_tasks":60,"input_mb":8744.960000000001,"map_output_mb":3072.0000000000005,"spill_written_mb":3080.093676814984,"merge_read_mb":3080.093676814986,"merge_written_mb":0,"output_mb":2109.44,"snapshots":0,"events":9051,"local_map_fraction":1,"map_attempts":137,"retries":0,"speculative_launched":0,"speculative_wins":0}
fcfcbd6a46a03c22 {"type":"job","system":"stock-hadoop","storage":"hdd+ssd","workload":"inverted-index","completion_s":137.675732,"map_tasks":137,"reduce_tasks":60,"input_mb":8744.960000000001,"map_output_mb":3072.0000000000005,"spill_written_mb":3080.093676814984,"merge_read_mb":3080.093676814986,"merge_written_mb":0,"output_mb":2109.44,"snapshots":0,"events":9051,"local_map_fraction":1,"map_attempts":137,"retries":0,"speculative_launched":0,"speculative_wins":0}
8cfe24df0c2b7d51 {"type":"job","system":"stock-hadoop","storage":"separated-storage","workload":"inverted-index","completion_s":259.653703,"map_tasks":137,"reduce_tasks":60,"input_mb":8744.960000000001,"map_output_mb":3072.0000000000005,"spill_written_mb":3080.093676814984,"merge_read_mb":3080.093676814986,"merge_written_mb":0,"output_mb":2109.44,"snapshots":0,"events":9248,"local_map_fraction":0,"map_attempts":137,"retries":0,"speculative_launched":0,"speculative_wins":0}
ffcd438762ffa774 {"type":"job","system":"mapreduce-online","storage":"single-hdd","workload":"inverted-index","completion_s":140.165565,"map_tasks":137,"reduce_tasks":60,"input_mb":8744.960000000001,"map_output_mb":3072.0000000000005,"spill_written_mb":3080.0936768149827,"merge_read_mb":3080.0936768149954,"merge_written_mb":0,"output_mb":2109.44,"snapshots":176,"events":99826,"local_map_fraction":0.9781021897810219,"map_attempts":137,"retries":0,"speculative_launched":0,"speculative_wins":0}
970f3a0983bc72c3 {"type":"job","system":"mapreduce-online","storage":"hdd+ssd","workload":"inverted-index","completion_s":129.489464,"map_tasks":137,"reduce_tasks":60,"input_mb":8744.960000000001,"map_output_mb":3072.0000000000005,"spill_written_mb":3080.0936768149827,"merge_read_mb":3080.0936768149954,"merge_written_mb":0,"output_mb":2109.44,"snapshots":180,"events":99831,"local_map_fraction":1,"map_attempts":137,"retries":0,"speculative_launched":0,"speculative_wins":0}
65c26a4cc281900e {"type":"job","system":"mapreduce-online","storage":"separated-storage","workload":"inverted-index","completion_s":275.706177,"map_tasks":137,"reduce_tasks":60,"input_mb":8744.960000000001,"map_output_mb":3072.0000000000005,"spill_written_mb":3080.0936768149827,"merge_read_mb":3080.0936768149954,"merge_written_mb":0,"output_mb":2109.44,"snapshots":180,"events":100028,"local_map_fraction":0,"map_attempts":137,"retries":0,"speculative_launched":0,"speculative_wins":0}
feece8f5db0a3851 {"type":"job","system":"hash-one-pass","storage":"single-hdd","workload":"inverted-index","completion_s":122.939584,"map_tasks":137,"reduce_tasks":60,"input_mb":8744.960000000001,"map_output_mb":3072.0000000000005,"spill_written_mb":0,"merge_read_mb":924.0281030444983,"merge_written_mb":0,"output_mb":2109.44,"snapshots":0,"events":17168,"local_map_fraction":1,"map_attempts":137,"retries":0,"speculative_launched":0,"speculative_wins":0}
02ecaeacaa6ad709 {"type":"job","system":"hash-one-pass","storage":"hdd+ssd","workload":"inverted-index","completion_s":122.025515,"map_tasks":137,"reduce_tasks":60,"input_mb":8744.960000000001,"map_output_mb":3072.0000000000005,"spill_written_mb":0,"merge_read_mb":924.0281030444983,"merge_written_mb":0,"output_mb":2109.44,"snapshots":0,"events":17168,"local_map_fraction":1,"map_attempts":137,"retries":0,"speculative_launched":0,"speculative_wins":0}
9213c5194f4c3107 {"type":"job","system":"hash-one-pass","storage":"separated-storage","workload":"inverted-index","completion_s":221.025051,"map_tasks":137,"reduce_tasks":60,"input_mb":8744.960000000001,"map_output_mb":3072.0000000000005,"spill_written_mb":0,"merge_read_mb":924.0281030444983,"merge_written_mb":0,"output_mb":2109.44,"snapshots":0,"events":17365,"local_map_fraction":0,"map_attempts":137,"retries":0,"speculative_launched":0,"speculative_wins":0}
309a0f8334ebeb34 {"type":"job","system":"stock-hadoop","storage":"single-hdd","workload":"sessionization","completion_s":97.821783,"map_tasks":82,"reduce_tasks":30,"input_mb":5242.88,"map_output_mb":5509.12,"spill_written_mb":5514.499999999997,"merge_read_mb":5698.316666666666,"merge_written_mb":0,"output_mb":5242.88,"snapshots":0,"events":3034,"local_map_fraction":0.9411764705882353,"map_attempts":85,"retries":2,"speculative_launched":2,"speculative_wins":1}
"#;
