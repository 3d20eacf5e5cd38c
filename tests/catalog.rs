//! The workload catalog walked through every surface each row declares,
//! in one table-driven loop. A served row's tenant must match a solo
//! session. A job or plan row's `run`/`plan --dump-out` must match the
//! served dump. An iterative row's `plan` must dump its answer. A row
//! with a simulator profile must simulate under every `--system`, its
//! `--report-jsonl` line equal to the library's report of the same spec,
//! and a job row's job and every stage job of a plan row must be
//! registered on `onepass worker`. A new row is covered with no edit here.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use onepass::prelude::*;
use onepass_workloads::catalog::{Shape, Workload, CATALOG};
use onepass_workloads::serving::{standard_catalog, CatalogConfig};

/// Records per run: enough for several splits and early answers.
const RECORDS: usize = 4_000;

/// Each `--system` name with the system it must simulate.
const SYSTEMS: [(&str, SystemType); 3] = [
    ("hadoop", SystemType::StockHadoop),
    ("hop", SystemType::Hop),
    ("onepass", SystemType::HashOnePass),
];

/// Run `onepass` and require success.
fn onepass(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_onepass"))
        .args(args)
        .output()
        .expect("spawn onepass");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "onepass {args:?}: {stderr}");
}

/// A served tenant's final dump of `w` over a `RECORDS` run's input,
/// after checking it equals a solo session's over the same records.
fn served_dump(catalog: &QueryCatalog, w: &Workload) -> String {
    let input = w.input().expect("a served row reads a record family");
    let records = input.records(input.count(RECORDS));
    let server = Server::start(ServeConfig::default(), catalog.clone(), None).expect("start");
    let tenant = server.subscribe("tenant", w.name).expect("admit");
    for chunk in records.chunks(512) {
        server.feed(input.ingest(), chunk.to_vec()).expect("feed");
    }
    server.close().expect("close");
    let (_earlies, close) = tenant.wait_final().expect("final");
    let served = dump_final_answers(&close.answers);

    let query = catalog.resolve(w.name).expect("a served query");
    let opts = SessionOptions::default();
    let mut solo = TenantSession::open("solo", w.name, &query, &opts, DlqConfig::default())
        .expect("open solo session");
    for chunk in records.chunks(512) {
        solo.feed(chunk).expect("solo feed");
    }
    let solo = dump_final_answers(&solo.close().expect("solo close").answers);
    assert_eq!(served, solo, "{}: served tenant vs solo session", w.name);
    served
}

/// The job names `onepass worker` registers, read from the line it
/// announces itself with.
fn worker_jobs() -> Vec<String> {
    let mut worker = Command::new(env!("CARGO_BIN_EXE_onepass"))
        .args(["worker", "--listen", "127.0.0.1:0"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker");
    let mut line = String::new();
    let stderr = worker.stderr.take().expect("piped stderr");
    let read = BufReader::new(stderr).read_line(&mut line);
    worker.kill().ok();
    worker.wait().ok();
    read.expect("read the worker's announcement");
    let (_, jobs) = line.split_once("jobs: ").expect("a job list");
    let jobs = jobs.trim_end().trim_end_matches(')');
    jobs.split(", ").map(String::from).collect()
}

#[test]
fn every_catalog_row_runs_on_every_surface_it_declares() {
    let config = CatalogConfig::default();
    let catalog = standard_catalog(config);
    let jobs = worker_jobs();
    let dir = std::env::temp_dir().join(format!("onepass-catalog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (n, reducers, k) = (
        RECORDS.to_string(),
        config.reducers.to_string(),
        config.k.to_string(),
    );
    let served_names = catalog.names();
    for w in CATALOG {
        let listed = served_names.iter().any(|n| n == w.name);
        assert_eq!(listed, w.is_served(), "{}", w.name);
        let served = w.is_served().then(|| served_dump(&catalog, w));

        let path = dir.join(w.name);
        let dump = path.to_str().expect("a UTF-8 path");
        let sized = ["--records", &n, "--reducers", &reducers, "--dump-out", dump];
        match w.shape {
            Shape::Job(_, job) => {
                let name = job().build().expect("a valid job").name;
                assert!(jobs.contains(&name), "{}: worker has {jobs:?}", w.name);
                onepass(&[&["run", w.name][..], &sized].concat());
            }
            Shape::Plan(_, plan) => {
                let plan = plan(config.k, config.reducers).expect("a valid plan");
                for job in plan.jobs() {
                    assert!(jobs.contains(&job.name), "{}: worker has {jobs:?}", w.name);
                }
                onepass(&[&["plan", w.name, "--k", &k][..], &sized].concat())
            }
            Shape::Iterative(_) => {
                onepass(&[&["plan", w.name, "--rounds", "2"][..], &sized].concat())
            }
        }
        let dumped = std::fs::read_to_string(&path).expect("a dump");
        assert!(!dumped.is_empty(), "{}: empty dump", w.name);
        if let (Some(served), Shape::Job(..) | Shape::Plan(..)) = (&served, w.shape) {
            assert_eq!(&dumped, served, "{}: batch dump vs served dump", w.name);
        }

        if let Some(profile) = w.sim {
            for (name, system) in SYSTEMS {
                let report = dir.join(format!("{}.{name}.jsonl", w.name));
                let path = report.to_str().expect("a UTF-8 path");
                let scale = ["--scale", "0.01", "--report-jsonl", path];
                onepass(&[&["sim", w.name, "--system", name][..], &scale].concat());
                let cluster = ClusterSpec::paper_cluster(StorageConfig::SingleHdd);
                let spec = SimJobSpec::new(system, cluster, profile().scaled(0.01));
                let line = std::fs::read_to_string(&report).expect("a report line");
                assert_eq!(line, run_sim_job(spec).to_jsonl(), "{} as {name}", w.name);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
