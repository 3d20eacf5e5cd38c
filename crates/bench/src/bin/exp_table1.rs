//! Table I — workloads and their running time in the benchmark.
//!
//! Simulates all four workloads on the 10-node StockHadoop cluster at
//! full paper scale and prints each Table I row next to the paper's
//! reported value. Run with `--scale 0.1` for a quick pass (volumes and
//! task counts scale linearly; times roughly so).

use onepass_bench::{arg_f64, save};
use onepass_core::table::Table;
use onepass_simcluster::{run_sim_job, ClusterSpec, SimJobSpec, StorageConfig, SystemType};
use onepass_workloads::catalog;

struct PaperRow {
    workload: &'static str,
    input_gb: f64,
    map_out_gb: f64,
    spill_gb: f64,
    inter_pct: f64,
    output_gb: f64,
    map_tasks: usize,
    completion_min: f64,
}

const PAPER: &[PaperRow] = &[
    PaperRow {
        workload: "sessionization",
        input_gb: 256.0,
        map_out_gb: 269.0,
        spill_gb: 370.0,
        inter_pct: 250.0,
        output_gb: 256.0,
        map_tasks: 3773,
        completion_min: 76.0,
    },
    PaperRow {
        workload: "page-frequency",
        input_gb: 508.0,
        map_out_gb: 1.8,
        spill_gb: 0.2,
        inter_pct: 0.4,
        output_gb: 0.02,
        map_tasks: 7580,
        completion_min: 40.0,
    },
    PaperRow {
        workload: "per-user-count",
        input_gb: 256.0,
        map_out_gb: 2.6,
        spill_gb: 1.4,
        inter_pct: 1.0,
        output_gb: 0.6,
        map_tasks: 3773,
        completion_min: 24.0,
    },
    PaperRow {
        workload: "inverted-index",
        input_gb: 427.0,
        map_out_gb: 150.0,
        spill_gb: 150.0,
        inter_pct: 70.0,
        output_gb: 103.0,
        map_tasks: 6803,
        completion_min: 118.0,
    },
];

fn main() {
    let scale = arg_f64("scale", 1.0);
    println!("== Table I: workloads and their running time (scale {scale}) ==\n");

    let mut table = Table::new(
        "Table I (simulated StockHadoop, 10 nodes | paper values in parentheses)",
        &[
            "workload",
            "input GB",
            "map-out GB",
            "spill GB",
            "inter/input",
            "output GB",
            "map tasks",
            "reducers",
            "completion",
        ],
    );
    let mut csv = String::from(
        "workload,input_gb,map_out_gb,spill_gb,inter_pct,output_gb,map_tasks,reducers,completion_min,paper_completion_min\n",
    );

    for paper in PAPER {
        let profile = catalog::find(paper.workload)
            .and_then(|w| w.sim)
            .expect("a Table I workload has a simulator profile");
        let workload = profile().scaled(scale);
        let spec = SimJobSpec::new(
            SystemType::StockHadoop,
            ClusterSpec::paper_cluster(StorageConfig::SingleHdd),
            workload,
        );
        let r = run_sim_job(spec);
        onepass_bench::append_report_jsonl(&r.to_jsonl());
        let gb = 1024.0;
        let min = r.completion_secs / 60.0;
        table.row(&[
            paper.workload.to_string(),
            format!("{:.0} ({:.0})", r.input_mb / gb, paper.input_gb * scale),
            format!(
                "{:.1} ({:.1})",
                r.map_output_mb / gb,
                paper.map_out_gb * scale
            ),
            format!(
                "{:.1} ({:.1})",
                r.reduce_spill_total_mb() / gb,
                paper.spill_gb * scale
            ),
            format!(
                "{:.0}% ({:.1}%)",
                r.intermediate_ratio() * 100.0,
                paper.inter_pct
            ),
            format!("{:.1} ({:.2})", r.output_mb / gb, paper.output_gb * scale),
            format!("{} ({:.0})", r.map_tasks, paper.map_tasks as f64 * scale),
            format!("{}", r.reduce_tasks),
            format!("{:.0} min ({:.0} min)", min, paper.completion_min * scale),
        ]);
        csv.push_str(&format!(
            "{},{:.1},{:.1},{:.1},{:.1},{:.2},{},{},{:.1},{:.1}\n",
            paper.workload,
            r.input_mb / gb,
            r.map_output_mb / gb,
            r.reduce_spill_total_mb() / gb,
            r.intermediate_ratio() * 100.0,
            r.output_mb / gb,
            r.map_tasks,
            r.reduce_tasks,
            min,
            paper.completion_min * scale,
        ));
    }

    println!("{}", table.to_text());
    println!(
        "Shape checks: per-user < page-freq < sessionization < inverted-index \
         ordering and the 250%/0.4%/1.0%/70% intermediate ratios."
    );
    save("table1.csv", &csv);
}
