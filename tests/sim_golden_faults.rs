//! The simulator's fault paths for HOP and hash one-pass, pinned the way
//! `sim_golden.rs` pins the clean runs. Each system runs sessionization
//! at 5% of paper scale (enough cold data for hash's reducers to spill a
//! full chunk) on a local and on a separated cluster with map
//! kills (one task killed twice), reduce kills in the final phase, a
//! straggler with speculation, and the adaptive governor on the local
//! cluster (private reducer buffers on the separated one). The map
//! kills interleave with HOP's snapshots and chunked pushes; the reduce
//! kills replay HOP's final merge and hash's cold-spill resolve.
//!
//! On a mismatch the test prints the whole table it computed, one
//! `<digest> <report line>` per case, in `GOLDEN`'s order.

use onepass::prelude::*;
use onepass::simcluster::SimReport;

/// Fraction of the paper's input volume each case simulates.
const SCALE: f64 = 0.05;

/// Every case, in `GOLDEN`'s order.
fn cases() -> Vec<SimJobSpec> {
    let mut cases = Vec::new();
    for system in [SystemType::Hop, SystemType::HashOnePass] {
        for storage in [StorageConfig::SingleHdd, StorageConfig::Separated] {
            let cluster = ClusterSpec::paper_cluster(storage);
            let workload = WorkloadProfile::sessionization().scaled(SCALE);
            let mut spec = SimJobSpec::new(system, cluster, workload);
            spec.reduce_mem_mb *= SCALE;
            spec.faults = SimFaults {
                map_failures: vec![(1, 1), (7, 2)],
                map_stragglers: vec![(0, 20.0)],
                reduce_failures: vec![(0, 1), (5, 2)],
                speculation: true,
                ..SimFaults::default()
            };
            spec.adaptive_memory = storage == StorageConfig::SingleHdd;
            cases.push(spec);
        }
    }
    cases
}

/// One case's pinned line: a 64-bit FNV-1a digest of every series point
/// and the Chrome-trace JSON, then the report line.
fn pin(spec: SimJobSpec) -> String {
    let tracer = Tracer::enabled();
    let r: SimReport = run_sim_job_traced(spec, tracer.clone());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
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
        eat(&series.points.len().to_le_bytes());
        for &(x, y) in &series.points {
            eat(&x.to_bits().to_le_bytes());
            eat(&y.to_bits().to_le_bytes());
        }
    }
    eat(chrome_trace_json(&tracer.drain()).as_bytes());
    format!("{h:016x} {}", r.to_jsonl().trim_end())
}

#[test]
fn fault_runs_are_byte_identical_to_the_pinned_table() {
    let actual: Vec<String> = cases().into_iter().map(pin).collect();
    // Every fault path ran: each case retried and launched a clone.
    for line in &actual {
        assert!(!line.contains("\"retries\":0,"), "{line}");
        assert!(!line.contains("\"speculative_launched\":0,"), "{line}");
    }
    let expected: Vec<&str> = GOLDEN.trim().lines().collect();
    if actual != expected {
        eprintln!("computed table:\n{}", actual.join("\n"));
    }
    assert_eq!(actual.len(), expected.len(), "case count");
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "case {i}");
    }
}

const GOLDEN: &str = r#"
157adb09ffeb393a {"type":"job","system":"mapreduce-online","storage":"single-hdd","workload":"sessionization","completion_s":311.074233,"map_tasks":205,"reduce_tasks":30,"input_mb":13107.2,"map_output_mb":13772.800000000001,"spill_written_mb":13786.249999999993,"merge_read_mb":15164.874999999976,"merge_written_mb":0,"output_mb":13107.2,"snapshots":90,"events":74993,"local_map_fraction":0.8959276018099548,"map_attempts":221,"retries":6,"speculative_launched":14,"speculative_wins":2}
e07a2c515beabd67 {"type":"job","system":"mapreduce-online","storage":"separated-storage","workload":"sessionization","completion_s":560.372814,"map_tasks":205,"reduce_tasks":30,"input_mb":13107.2,"map_output_mb":13772.800000000001,"spill_written_mb":13786.249999999878,"merge_read_mb":20970.79166666665,"merge_written_mb":5805.916666666653,"output_mb":13107.2,"snapshots":90,"events":75539,"local_map_fraction":0,"map_attempts":209,"retries":6,"speculative_launched":2,"speculative_wins":1}
f65ab8ea6e2fe40a {"type":"job","system":"hash-one-pass","storage":"single-hdd","workload":"sessionization","completion_s":134.756002,"map_tasks":205,"reduce_tasks":30,"input_mb":13107.2,"map_output_mb":13772.800000000001,"spill_written_mb":1926.7124999999978,"merge_read_mb":2274.731249999998,"merge_written_mb":0,"output_mb":13107.2,"snapshots":0,"events":13270,"local_map_fraction":0.9523809523809523,"map_attempts":210,"retries":6,"speculative_launched":3,"speculative_wins":2}
dfaa4f08f9216e78 {"type":"job","system":"hash-one-pass","storage":"separated-storage","workload":"sessionization","completion_s":260.651192,"map_tasks":205,"reduce_tasks":30,"input_mb":13107.2,"map_output_mb":13772.800000000001,"spill_written_mb":1926.7124999999978,"merge_read_mb":2274.731249999998,"merge_written_mb":0,"output_mb":13107.2,"snapshots":0,"events":13500,"local_map_fraction":0,"map_attempts":210,"retries":6,"speculative_launched":3,"speculative_wins":2}
"#;
