//! `onepass` — command-line front end: run the paper's workloads on the
//! real engine or simulate them at cluster scale.
//!
//! Run `onepass` with no arguments for the usage text. Its knob section is
//! printed from the one table of knobs (`onepass::runtime::knobs::KNOBS`),
//! which is also what `run`/`plan`/`serve` parse their knob flags with, so
//! this file spells no knob. A malformed value or an unknown flag exits 2.
//! Likewise the workloads: every command takes them from the one table
//! of workloads (`onepass_workloads::catalog::CATALOG`), which `onepass
//! workloads` lists with the commands that take each, so this file spells
//! no workload name either.
//!
//! `onepass plan` runs a multi-stage query plan. Stage outputs stream
//! downstream as they finish, so the plan reports a time-to-first-answer
//! well before the total wall clock. The iterative and two-input
//! plans ride the in-memory dataset cache between rounds (`--rounds`
//! caps the loop, `--converge-eps` stops early once no value moves by
//! more than the threshold, `--users` sizes a dimension table).
//!
//! `--trace-out` writes a Chrome trace-event JSON file (open it in
//! Perfetto or `chrome://tracing`); real and simulated runs share one
//! schema, so their timelines render identically. `--report-jsonl`
//! writes a machine-readable job report, one JSON object per line; on
//! `run` and `plan` the first line (`"type":"knobs"`) names the
//! configuration that produced the rest.
//!
//! Fault injection: `--kill-map T` / `--kill-reduce P` make the first
//! attempt of that task fail mid-run (the driver retries it); on `run`
//! the retry depth defaults to 3 whenever a fault flag is present. The
//! simulator also models Hadoop's speculation: `sim --straggle-map
//! T:FACTOR` multiplies the task's compute and `--speculate` races a
//! clone against it. The engine never clones a map task.
//!
//! Live metrics: `--metrics-addr HOST:PORT` serves Prometheus text
//! exposition over HTTP for the duration of the run (add
//! `--metrics-linger-ms MS` to keep serving briefly after completion so
//! a scraper can catch the final state); `--metrics-out FILE` streams
//! periodic whole-registry snapshots as JSONL. `onepass metrics-validate
//! FILE` checks such a file against the snapshot schema — CI uses it.
//! `onepass sim` publishes the same metric names labeled `source="sim"`
//! so predicted and measured runs join on metric name.
//!
//! Distributed mode: `onepass worker --listen ADDR` starts a worker
//! process serving every job of every job and plan row by name; `onepass
//! run|plan <workload> --workers a:1,b:2` places that run's map tasks on
//! those workers over the framed-TCP transport and runs its reduces
//! itself. Iterative plans run in-process only. Remote map attempts run
//! no injected faults, so `--kill-map` and `--fault-seed` exit 2 beside
//! `--workers`; `--kill-reduce` reaches a TCP run.
//! Killing a worker mid-job (`kill -9`, or `--die-after-maps N` for a
//! scripted drill) is survived: the coordinator reruns lost map attempts
//! on survivors and the output stays byte-identical to a single-process
//! run.

use std::time::Duration;

use onepass::prelude::*;
use onepass::runtime::knobs::{self, Settings, KNOBS};
use onepass::runtime::{dump_pairs, JobReport, JobSpecBuilder};
use onepass_core::config::{fmt_bytes, fmt_secs};
use onepass_workloads::catalog::{self, Answer, Input, Pairs, Params, Shape, Workload, CATALOG};
use onepass_workloads::serving::CatalogConfig;
use SystemType::{HashOnePass, Hop, StockHadoop};

/// The commands that take a workload by name, each with the test of the
/// catalog rows it takes (`serve` serves them to `loadgen --queries`).
type Takes = fn(&Workload) -> bool;
const TAKERS: &[(&str, Takes)] = &[
    ("run", |w| matches!(w.shape, Shape::Job(..))),
    ("plan", |w| !matches!(w.shape, Shape::Job(..))),
    ("sim", |w| w.sim.is_some()),
    ("serve", Workload::is_served),
];

/// The catalog rows `cmd` takes.
fn rows(cmd: &str) -> impl Iterator<Item = &'static Workload> {
    let takes = TAKERS.iter().find(|t| t.0 == cmd).expect("a taker").1;
    CATALOG.iter().filter(move |&w| takes(w))
}

/// The names of `rows`, joined by `sep`.
fn names<'a>(rows: impl Iterator<Item = &'a Workload>, sep: &str) -> String {
    rows.map(|w| w.name).collect::<Vec<_>>().join(sep)
}

/// A `--system` choice: its name, the preset `run` applies and the
/// system `sim` models.
type Preset = fn(JobSpecBuilder) -> JobSpecBuilder;
type System = (&'static str, Preset, SystemType);

const SYSTEMS: &[System] = &[
    ("hadoop", JobSpecBuilder::preset_hadoop, StockHadoop),
    ("hop", JobSpecBuilder::preset_hop, Hop),
    ("onepass", JobSpecBuilder::preset_onepass, HashOnePass),
];

fn usage() -> ! {
    let systems = system_names();
    eprintln!(
        "usage:\n  \
         onepass run <workload> [--system {systems}] [--records N] [KNOBS]\n  \
         \x20           [--kill-map T] [--kill-reduce P] [--fault-seed S]\n  \
         \x20           [--workers ADDR,ADDR,...] [--trace-out FILE] [--report-jsonl FILE] [--dump-out FILE]\n  \
         onepass worker --listen ADDR [--slots N] [--die-after-maps N]\n  \
         onepass plan <{plans}> [--records N] [--k K]\n  \
         \x20           [--rounds N] [--converge-eps E] [--users N] [KNOBS]\n  \
         \x20           [--workers ADDR,ADDR,...] [--trace-out FILE] [--report-jsonl FILE] [--dump-out FILE]\n  \
         onepass sim <workload> [--system {systems}] [--storage single-hdd|hdd+ssd|separated] [--scale F]\n  \
         \x20           [--adaptive-memory] [--kill-map T] [--kill-reduce P] [--straggle-map T:FACTOR] [--speculate]\n  \
         \x20           [--trace-out FILE] [--report-jsonl FILE]\n  \
         onepass serve [--listen HOST:PORT] [--records N] [--batch B] [--pool-mb MB]\n  \
         \x20           [--max-tenants N] [--shards S] [--k K] [--early-every N] [--dlq-retries R]\n  \
         \x20           [--await-tenants N] [--await-timeout-ms MS] [KNOBS]\n  \
         onepass loadgen --server HOST:PORT --tenants N [--queries a,b,...] [--zipf S] [--seed S]\n  \
         \x20           [--dump-dir DIR] [--report FILE]\n  \
         onepass metrics-validate <snapshots.jsonl>\n  \
         onepass workloads\n\n\
         run/plan/sim/serve also take [--metrics-addr HOST:PORT] [--metrics-out FILE] [--metrics-linger-ms MS]\n\n\
         workloads (`onepass workloads` lists the commands that take each): {all}\n\
         sim takes none of the knobs below\n\n\
         KNOBS, applied after --system's preset; in brackets the commands that take the knob as a flag\n\
         (`no flag`: set by the preset, shown in reports) and whether it travels to --workers:\n{}",
        knobs::usage(),
        plans = names(rows("plan"), "|"),
        all = names(CATALOG.iter(), " | "),
    );
    std::process::exit(2);
}

/// Claim the leading workload name: a catalog row this command takes, or
/// exit 2 naming the workload and the ones the command takes.
fn workload(args: &mut Args) -> &'static Workload {
    let (name, cmd) = (args.subject(), args.cmd);
    let taken = names(rows(cmd), ", ");
    let unknown = || {
        die(format!(
            "`onepass {cmd}` takes no workload {name:?}; it takes {taken}"
        ))
    };
    rows(cmd).find(|w| w.name == name).unwrap_or_else(unknown)
}

/// Claim `--system`; `default` when absent.
fn system(args: &mut Args, default: SystemType) -> &'static System {
    let by_default = SYSTEMS.iter().find(|s| s.2 == default);
    let Some(name) = args.value("system") else {
        return by_default.expect("the default is a row");
    };
    let known = system_names();
    let unknown = || die(format!("--system {name:?} is not one of {known}"));
    SYSTEMS.iter().find(|s| s.0 == name).unwrap_or_else(unknown)
}

/// The `--system` names, `|`-separated.
fn system_names() -> String {
    SYSTEMS.iter().map(|s| s.0).collect::<Vec<_>>().join("|")
}

/// Report a command-line mistake and exit 2.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("onepass: {msg}");
    std::process::exit(2);
}

/// Report a failure the command line did not spell wrong (a refused
/// worker, an address in use, a file that cannot be written) as `what`
/// failing with `err`, and exit 1.
fn fatal(what: impl std::fmt::Display, err: impl std::fmt::Display) -> ! {
    eprintln!("onepass: {what}: {err}");
    std::process::exit(1);
}

/// The command line after the subcommand: positionals plus `--name
/// [value]` flags. The command that runs claims each flag it knows;
/// whatever [`Args::finish`] finds unclaimed is a misspelling, and is
/// reported instead of being ignored.
struct Args {
    cmd: &'static str,
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(cmd: &'static str, raw: &[String]) -> Args {
        let mut args = Args {
            cmd,
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = raw.iter().peekable();
        while let Some(tok) = it.next() {
            match tok.strip_prefix("--") {
                Some(name) => {
                    let value = it.next_if(|v| !v.starts_with("--")).cloned();
                    args.flags.push((name.to_string(), value));
                }
                None => args.positional.push(tok.clone()),
            }
        }
        args
    }

    /// The leading positional argument (workload name, file, ...).
    fn subject(&mut self) -> String {
        if self.positional.is_empty() {
            usage();
        }
        self.positional.remove(0)
    }

    /// Claim `--name`: `None` when absent, `Some(None)` when given bare.
    fn take(&mut self, name: &str) -> Option<Option<String>> {
        let at = self.flags.iter().position(|(n, _)| n == name)?;
        Some(self.flags.remove(at).1)
    }

    /// Claim a flag that takes a value.
    fn value(&mut self, name: &str) -> Option<String> {
        self.take(name)
            .map(|v| v.unwrap_or_else(|| die(format!("--{name} needs a value"))))
    }

    /// Claim a flag that takes a number.
    fn num<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(format!("--{name} {v:?} is not a valid number")))
        })
    }

    /// Claim a value-less switch.
    fn switch(&mut self, name: &str) -> bool {
        match self.take(name) {
            None => false,
            Some(None) => true,
            Some(Some(v)) => die(format!("--{name} takes no value (got {v:?})")),
        }
    }

    /// Claim the knob flags this command takes and set them onto
    /// `settings` — the only knob parsing in this file. Rows are applied in
    /// table order; a row that is no flag here stays unclaimed for
    /// [`Args::finish`] to report.
    fn knobs(&mut self, settings: &mut Settings) {
        for knob in KNOBS.iter().filter(|k| k.taken_by(self.cmd)) {
            let value = match self.take(knob.name) {
                None => continue,
                Some(Some(v)) => v,
                Some(None) => die(format!("--{} needs a value: {}", knob.name, knob.syntax)),
            };
            if let Err(e) = knob.set(settings, &value) {
                die(e);
            }
        }
    }

    /// Everything the command knows has been claimed: anything left is a
    /// mistake.
    fn finish(self) {
        if let Some((name, _)) = self.flags.first() {
            die(format!(
                "unknown (or repeated) flag --{name} for `onepass {}`; the knobs are:\n{}",
                self.cmd,
                knobs::usage()
            ));
        }
        if let Some(extra) = self.positional.first() {
            die(format!("unexpected argument {extra:?}"));
        }
    }
}

/// Parse a `TASK:VALUE` pair (e.g. `--straggle-map 0:50`).
fn task_value(args: &mut Args, name: &str) -> Option<(usize, f64)> {
    let spec = args.value(name)?;
    spec.split_once(':')
        .and_then(|(t, v)| Some((t.parse().ok()?, v.parse().ok()?)))
        .or_else(|| die(format!("--{name} {spec:?} is not TASK:VALUE")))
}

/// Live-metrics plumbing shared by `run`, `plan`, and `sim`: a registry
/// plus the exporters the flags asked for. `None` when no metrics flag
/// is present — the engine then skips every probe site.
struct MetricsRig {
    registry: MetricsRegistry,
    sampler: Option<MetricsSampler>,
    server: Option<MetricsServer>,
    out_path: Option<String>,
    linger: Duration,
}

impl MetricsRig {
    fn from_args(args: &mut Args) -> Option<MetricsRig> {
        let addr = args.value("metrics-addr");
        let out_path = args.value("metrics-out");
        let linger: u64 = args.num("metrics-linger-ms").unwrap_or(0);
        if addr.is_none() && out_path.is_none() {
            return None;
        }
        let registry = MetricsRegistry::new();
        let server = addr.map(|a| {
            let s = MetricsServer::serve(registry.clone(), &a)
                .unwrap_or_else(|e| fatal(format!("bind --metrics-addr {a}"), e));
            eprintln!("serving metrics on http://{}/metrics", s.local_addr());
            s
        });
        let sampler = out_path.as_ref().map(|path| {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| fatal(format!("create --metrics-out {path}"), e));
            MetricsSampler::start_streaming(
                registry.clone(),
                Duration::from_millis(100),
                Box::new(std::io::BufWriter::new(file)),
            )
        });
        Some(MetricsRig {
            registry,
            sampler,
            server,
            out_path,
            linger: Duration::from_millis(linger),
        })
    }

    /// Flush the final snapshot, keep the HTTP endpoint up for the
    /// requested linger, then shut everything down.
    fn finish(self) {
        if let Some(mut sampler) = self.sampler {
            sampler.stop();
            if let Some(path) = &self.out_path {
                eprintln!("wrote metrics snapshots to {path}");
            }
        }
        if self.server.is_some() && !self.linger.is_zero() {
            std::thread::sleep(self.linger);
        }
    }
}

/// What `run`, `plan` and `sim` leave behind besides their console
/// summary: a Chrome trace, a JSONL report, live metrics.
struct Outputs {
    tracer: Tracer,
    trace_out: Option<String>,
    report_jsonl: Option<String>,
    rig: Option<MetricsRig>,
}

impl Outputs {
    fn from_args(args: &mut Args) -> Outputs {
        let trace_out = args.value("trace-out");
        Outputs {
            tracer: if trace_out.is_some() {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            },
            trace_out,
            report_jsonl: args.value("report-jsonl"),
            rig: MetricsRig::from_args(args),
        }
    }

    /// An engine configuration reporting into these outputs.
    fn engine(&self) -> EngineConfigBuilder {
        let builder = EngineConfig::builder().tracer(self.tracer.clone());
        match &self.rig {
            Some(r) => builder.metrics(r.registry.clone()),
            None => builder,
        }
    }

    /// After the run: flush the metrics exporters, then write the trace
    /// and the report (`report` renders its JSONL lines).
    fn finish(self, report: impl FnOnce() -> String) {
        if let Some(r) = self.rig {
            r.finish();
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, chrome_trace_json(&self.tracer.drain()))
                .unwrap_or_else(|e| fatal(format!("write --trace-out {path}"), e));
            eprintln!("wrote Chrome trace to {path}");
        }
        if let Some(path) = &self.report_jsonl {
            std::fs::write(path, report())
                .unwrap_or_else(|e| fatal(format!("write --report-jsonl {path}"), e));
            eprintln!("wrote JSONL report to {path}");
        }
    }
}

/// `onepass metrics-validate FILE` — check every line of a
/// `--metrics-out` file against the snapshot schema. Exits nonzero (with
/// the first offending line) on any violation; prints a summary on
/// success.
fn cmd_metrics_validate(mut args: Args) {
    let path = args.subject();
    args.finish();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let mut snapshots = 0usize;
    let mut samples = 0usize;
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        samples += MetricsSnapshot::check_jsonl_line(line).unwrap_or_else(|why| {
            eprintln!("{path}:{}: {why}", i + 1);
            std::process::exit(1);
        });
        snapshots += 1;
    }
    if snapshots == 0 {
        eprintln!("{path}: no snapshots found");
        std::process::exit(1);
    }
    println!("{path}: {snapshots} snapshot(s), {samples} sample(s), schema ok");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = |cmd| Args::parse(cmd, &args[1..]);
    match args.first().map(|s| s.as_str()) {
        Some("run") => cmd_run(parsed("run")),
        Some("plan") => cmd_run(parsed("plan")),
        Some("sim") => cmd_sim(parsed("sim")),
        Some("worker") => cmd_worker(parsed("worker")),
        Some("serve") => cmd_serve(parsed("serve")),
        Some("loadgen") => cmd_loadgen(parsed("loadgen")),
        Some("metrics-validate") => cmd_metrics_validate(parsed("metrics-validate")),
        Some("workloads") => {
            parsed("workloads").finish();
            // One row per workload: its name, the commands that take it,
            // what it computes. Scripts read the first two columns.
            for w in CATALOG {
                let takers = TAKERS.iter().filter(|(_, takes)| takes(w));
                let cmds: Vec<&str> = takers.map(|(cmd, _)| *cmd).collect();
                println!("{:<15} {:<14} {}", w.name, cmds.join(","), w.about);
            }
        }
        _ => usage(),
    }
}

/// `onepass worker --listen ADDR`: serve jobs to a coordinator. Every
/// job row's job and every plan row's stage jobs are registered by job
/// name ([`catalog::registry`]); the coordinator's `JobInit` sets the
/// travelling knobs onto the registered spec, so one worker fleet serves
/// any `onepass run|plan --workers` configuration of these workloads.
fn cmd_worker(mut args: Args) {
    let listen = args.value("listen").unwrap_or_else(|| usage());
    let slots: usize = args.num("slots").unwrap_or(2);
    // Deterministic fault injection for recovery drills: exit the job
    // connection cold after N completed maps (the scripted stand-in for
    // `kill -9` mid-job).
    let die_after_maps = args.num("die-after-maps");
    args.finish();
    let registry = catalog::registry();
    let listener = std::net::TcpListener::bind(&listen)
        .unwrap_or_else(|e| fatal(format!("bind --listen {listen}"), e));
    // Print the *bound* address, not the requested one: `--listen
    // 127.0.0.1:0` picks an ephemeral port, and scripts parse this line
    // to find it (fixed ports collide on shared CI hosts).
    let bound = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or(listen);
    eprintln!(
        "worker listening on {bound} ({slots} map slots; jobs: {})",
        registry.names().join(", ")
    );
    onepass::runtime::transport::worker::serve(
        listener,
        registry,
        WorkerOptions {
            map_slots: slots,
            die_after_maps,
        },
    )
    .unwrap_or_else(|e| fatal("worker accept loop", e));
}

/// `onepass run` (job rows) and `onepass plan` (the rest): claim the
/// flags the command's rows take, then run the row through
/// [`catalog::run`].
fn cmd_run(mut args: Args) {
    let w = workload(&mut args);
    let cmd = args.cmd;
    let run = cmd == "run";
    let iterative = matches!(w.shape, Shape::Iterative(_));
    let system = run.then(|| system(&mut args, HashOnePass));
    let mut params = Params::new(w, args.num("records").unwrap_or(200_000));
    if !run {
        params.k = args.num("k");
    }
    if iterative {
        params.rounds = args.num("rounds").unwrap_or(params.rounds);
        params.eps = args.num("converge-eps");
        params.users = args.num("users").unwrap_or(params.users);
    }
    // --dump-out FILE: write the sorted final pairs to FILE — the hook the
    // smoke tests diff across single-process and multi-worker runs.
    let dump_out = args.value("dump-out");
    let outputs = Outputs::from_args(&mut args);
    // Distributed mode: place map tasks on `onepass worker` processes
    // instead of in-process threads.
    let workers: Vec<String> = args
        .value("workers")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect()
        })
        .unwrap_or_default();
    // Fault-tolerance flags (`run` only): a deterministic fault plan
    // (first attempt of the named task dies after a handful of records).
    // Any of them raises the default retry depth so the run recovers.
    let flags = ["fault-seed", "kill-map", "kill-reduce"];
    let [fault_seed, kill_map, kill_reduce] = flags.map(|f| run.then(|| args.num(f)).flatten());

    let preset: Preset = system.map_or(|job| job, |s| s.1);
    let job = preset(w.job()).collect_mode(if dump_out.is_some() {
        CollectOutput::Collect
    } else {
        CollectOutput::Discard
    });
    let any_fault = fault_seed.or(kill_map).or(kill_reduce).is_some();
    let engine = outputs.engine().max_attempts(if any_fault { 3 } else { 1 });
    let mut settings = Settings {
        job: job.build().expect("valid job"),
        engine: engine.build(),
    };
    args.knobs(&mut settings);
    args.finish();
    if let Err(e) = settings.job.validate() {
        die(e);
    }
    if !workers.is_empty() {
        // Refused before any worker is dialed: what the workers would drop.
        if iterative {
            die(format!(
                "`onepass plan {}` takes no --workers: its round jobs are not registered on workers",
                w.name
            ));
        }
        if kill_map.or(fault_seed).is_some() {
            die(
                "--kill-map and --fault-seed kill no map under --workers: remote map attempts \
                 run no injected faults; --kill-reduce P is the fault that reaches a --workers \
                 run (reduces run here)",
            );
        }
        let served = CatalogConfig::default().k;
        if params.k.is_some_and(|k| k != served) {
            die(format!(
                "--k does not reach --workers: their plan stages combine with k {served}"
            ));
        }
        settings.engine.transport = Transport::Tcp { workers };
    }

    let reducers = settings.job.reducers;
    let mut faults = match fault_seed {
        Some(seed) => FaultPlan::seeded(seed as u64, w.map_tasks(&params), reducers),
        None => FaultPlan::new(),
    };
    if let Some(t) = kill_map {
        faults = faults.fail_map(t, 0, 3);
    }
    if let Some(p) = kill_reduce {
        faults = faults.fail_reduce(p, 0, 3);
    }
    settings.engine.faults = faults.into_injector();
    let knobs = KNOBS.iter().filter(|k| run || k.taken_by("plan"));
    let knobs_line = knobs::to_json(&settings, knobs);

    let on = system.map_or(String::new(), |s| format!(" on the {} configuration", s.0));
    let read: usize = params.splits.iter().map(Split::record_count).sum();
    let records = if iterative { params.records } else { read };
    eprintln!("running {}{on} ({records} records)...", w.name);
    let answer =
        catalog::run(w, settings, params).unwrap_or_else(|e| fatal(format!("{cmd} {}", w.name), e));
    outputs.finish(|| knobs_line + &answer.to_jsonl(w));
    if let Some(path) = &dump_out {
        write_dump(path, &answer.finals());
    }
    match answer {
        Answer::Job(report) => print_job(&report),
        Answer::Plan(report) => print_plan(w, &report),
        Answer::Rounds {
            rounds,
            wall,
            cache,
            ..
        } => {
            let wall = wall.as_secs_f64();
            println!("plan:              {}", w.name);
            println!("rounds run:        {rounds}");
            println!(
                "wall time:         {} ({} per round)",
                fmt_secs(wall),
                fmt_secs(wall / rounds.max(1) as f64)
            );
            println!(
                "cache:             {} resident, {} hits, {} evictions, {} spill reloads",
                fmt_bytes(cache.resident_bytes as u64),
                cache.hits,
                cache.evictions,
                cache.reloads
            );
        }
    }
}

/// A job row's console summary.
fn print_job(report: &JobReport) {
    println!("job:               {} [{}]", report.name, report.backend);
    println!("wall time:         {}", fmt_secs(report.wall.as_secs_f64()));
    println!(
        "cpu (compute):     {}",
        fmt_secs(report.total_compute_cpu().as_secs_f64())
    );
    println!("map tasks:         {}", report.map_tasks);
    if report.failed_attempts > 0 {
        println!(
            "attempts:          {} map / {} reduce ({} failed)",
            report.map_attempts, report.reduce_attempts, report.failed_attempts,
        );
    }
    println!("input:             {}", fmt_bytes(report.input_bytes));
    println!(
        "shuffled:          {} ({} records, intermediate/input {:.0}%)",
        fmt_bytes(report.shuffled_bytes),
        report.shuffled_records,
        report.intermediate_ratio() * 100.0
    );
    println!(
        "reduce spill:      {}",
        fmt_bytes(report.reduce_spill_traffic())
    );
    println!("groups out:        {}", report.groups_out);
    println!("early answers:     {}", report.early_emits);
    if let Some(t) = report.first_early_at {
        println!(
            "first early at:    {} ({}% of wall)",
            fmt_secs(t.as_secs_f64()),
            (t.as_secs_f64() / report.wall.as_secs_f64() * 100.0) as u32
        );
    }
    let sort = report.map_profile.time(Phase::MapSort);
    println!("map sort cpu:      {}", fmt_secs(sort.as_secs_f64()));
}

/// A plan row's console summary.
fn print_plan(w: &Workload, report: &PlanReport) {
    let wall = report.wall.as_secs_f64();
    println!("plan:              {}", w.name);
    println!("wall time:         {}", fmt_secs(wall));
    if let Some(t) = report.first_final_at {
        println!(
            "first answer at:   {} ({}% of wall)",
            fmt_secs(t.as_secs_f64()),
            (t.as_secs_f64() / wall * 100.0) as u32
        );
    }
    for s in &report.stages {
        let sink = if s.is_sink { " -> output" } else { "" };
        println!(
            "stage {}:           {} [{}] done at {} ({} groups{})",
            s.stage,
            s.name,
            s.report.backend,
            fmt_secs(s.report.wall.as_secs_f64()),
            s.report.groups_out,
            sink
        );
    }
}

/// `--dump-out FILE`: write `pairs` in the one dump format
/// ([`dump_pairs`]) every surface compares runs by.
fn write_dump(path: &str, pairs: &Pairs) {
    let dump = dump_pairs(pairs.iter().map(|(k, v)| (&k[..], &v[..])));
    std::fs::write(path, dump).unwrap_or_else(|e| fatal(format!("write --dump-out {path}"), e));
    eprintln!("wrote {} final pairs to {path}", pairs.len());
}

fn cmd_sim(mut args: Args) {
    let w = workload(&mut args);
    let &(_, _, system) = system(&mut args, StockHadoop);
    let storage = match args.value("storage").as_deref().unwrap_or("single-hdd") {
        "single-hdd" => StorageConfig::SingleHdd,
        "hdd+ssd" => StorageConfig::HddPlusSsd,
        "separated" => StorageConfig::Separated,
        _ => usage(),
    };
    let scale: f64 = args.num("scale").unwrap_or(1.0);

    let profile = w.sim.expect("`sim` takes rows with a profile");
    let workload = profile().scaled(scale);

    eprintln!(
        "simulating {} ({}x scale) as {} on {}...",
        w.name,
        scale,
        system.label(),
        storage.label()
    );
    let outputs = Outputs::from_args(&mut args);
    let mut spec = SimJobSpec::new(system, ClusterSpec::paper_cluster(storage), workload);
    if let Some(t) = args.num("kill-map") {
        spec.faults.map_failures.push((t, 1));
    }
    if let Some(p) = args.num("kill-reduce") {
        spec.faults.reduce_failures.push((p, 1));
    }
    if let Some((t, f)) = task_value(&mut args, "straggle-map") {
        spec.faults.map_stragglers.push((t, f));
    }
    // Plain switches: `SimJobSpec` is outside the knob table.
    spec.faults.speculation = args.switch("speculate");
    spec.adaptive_memory = args.switch("adaptive-memory");
    args.finish();
    let r = run_sim_job_traced(spec, outputs.tracer.clone());
    if let Some(rig) = &outputs.rig {
        // Mirror the finished run into the registry under the engine's
        // metric names (labeled source="sim"), then export as requested.
        r.publish_metrics(&rig.registry);
    }
    outputs.finish(|| r.to_jsonl());

    println!("completion:        {}", fmt_secs(r.completion_secs));
    println!(
        "map tasks:         {} ({} reducers)",
        r.map_tasks, r.reduce_tasks
    );
    println!("input:             {:.1} GB", r.input_mb / 1024.0);
    println!("map output:        {:.1} GB", r.map_output_mb / 1024.0);
    println!(
        "reduce spill:      {:.1} GB (merge rewrites {:.1} GB)",
        r.reduce_spill_total_mb() / 1024.0,
        r.merge_written_mb / 1024.0
    );
    println!("intermediate/input: {:.0}%", r.intermediate_ratio() * 100.0);
    println!(
        "locality:          {:.0}% of map reads local",
        r.local_map_fraction * 100.0
    );
    println!(
        "mid-job cpu/iowait: {:.0}% / {:.0}%",
        r.mean_cpu_util(0.45, 0.62),
        r.mean_iowait(0.45, 0.62)
    );
    if r.snapshots > 0 {
        println!("snapshots:         {}", r.snapshots);
    }
    if r.faults.retries > 0 || r.faults.speculative_launched > 0 {
        println!(
            "attempts:          {} map ({} retried, {} speculative, {} won)",
            r.faults.map_attempts,
            r.faults.retries,
            r.faults.speculative_launched,
            r.faults.speculative_wins
        );
    }
}

/// `onepass serve`: the multi-tenant streaming front-end. Boots the
/// serving core over the standard catalog, binds the TCP front door
/// (port 0 picks an ephemeral port; the bound address is printed on a
/// parseable line), optionally waits for `--await-tenants` subscribers,
/// then streams the synthetic click + document feeds through every
/// query's session and closes. Final answers per tenant are byte-identical to a
/// solo `onepass run`/`onepass plan` over the same generator settings.
fn cmd_serve(mut args: Args) {
    use onepass_workloads::serving::standard_catalog;
    use std::sync::Arc;

    let listen = args.value("listen").unwrap_or_else(|| "127.0.0.1:0".into());
    let records: usize = args.num("records").unwrap_or(100_000);
    let batch: usize = args.num("batch").unwrap_or(1024).max(1);
    let pool_mb: usize = args.num("pool-mb").unwrap_or(256);
    let max_tenants: usize = args.num("max-tenants").unwrap_or(1024);
    let shards: usize = args.num("shards").unwrap_or(4).max(1);
    let k: usize = args.num("k").unwrap_or(10);
    let early_every: u64 = args.num("early-every").unwrap_or(256);
    let dlq_retries: u32 = args.num("dlq-retries").unwrap_or(2);
    let await_tenants: usize = args.num("await-tenants").unwrap_or(0);
    let await_timeout = Duration::from_millis(args.num("await-timeout-ms").unwrap_or(120_000));
    let rig = MetricsRig::from_args(&mut args);

    // The serving tier reads one knob, the catalog's reducer count: it
    // starts from the serving default and goes through the same table as
    // everywhere. The tenant pool sheds by the serving default's policy.
    let defaults = ServeConfig::default();
    let mut settings = Settings {
        job: JobSpecBuilder::new("serve")
            .reducers(CatalogConfig::default().reducers)
            .build()
            .expect("default job"),
        engine: EngineConfig::default(),
    };
    args.knobs(&mut settings);
    args.finish();
    let policy_name = defaults.policy.name();
    // Exactly `onepass run`'s records over `--records`, which is what makes
    // a tenant's finals comparable byte-for-byte to a solo run.
    let clicks = Input::Clicks.records(records);
    let docs = Input::Docs.records(Input::Docs.count(records));

    let catalog = standard_catalog(CatalogConfig {
        reducers: settings.job.reducers,
        k,
        early_every,
        ..CatalogConfig::default()
    });
    let config = ServeConfig {
        pool_bytes: pool_mb << 20,
        admission: AdmissionConfig {
            max_tenants,
            ..AdmissionConfig::default()
        },
        shards,
        dlq: DlqConfig {
            max_retries: dlq_retries,
            ..DlqConfig::default()
        },
        ..defaults
    };
    let server = Arc::new(
        Server::start(config, catalog, rig.as_ref().map(|r| r.registry.clone()))
            .unwrap_or_else(|e| fatal("start serving core", e)),
    );
    let mut front = Frontend::bind(Arc::clone(&server), &listen)
        .unwrap_or_else(|e| fatal(format!("bind --listen {listen}"), e));
    // Scripts parse this line for the bound (possibly ephemeral) port.
    println!("serving tenants on {}", front.local_addr());
    eprintln!(
        "pool {} / {policy_name}, {shards} shard(s), max {max_tenants} tenant(s); \
         feeding {records} click + {} doc record(s) in batches of {batch}",
        fmt_bytes((pool_mb << 20) as u64),
        docs.len(),
    );

    if await_tenants > 0 {
        // Enqueued subscriptions, not seats: a subscriber that holds a
        // seat but is still blocked on a full shard queue would otherwise
        // open its session a batch late.
        let deadline = std::time::Instant::now() + await_timeout;
        while server.subscribed() < await_tenants {
            if std::time::Instant::now() >= deadline {
                eprintln!(
                    "timed out waiting for {await_tenants} tenant(s); have {}",
                    server.subscribed()
                );
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!(
            "{} tenant(s) subscribed; starting ingest",
            server.subscribed()
        );
    }

    // Interleave the two feeds proportionally so doc tenants see data
    // throughout the stream rather than in one trailing burst.
    let feed = |input: Input, records: &[Vec<u8>]| {
        for chunk in records.chunks(batch) {
            server.feed(input.ingest(), chunk.to_vec()).expect("feed");
        }
    };
    let mut docs_fed = 0;
    for (i, chunk) in clicks.chunks(batch).enumerate() {
        feed(Input::Clicks, chunk);
        // The doc feed keeps the click feed's fraction of its total.
        let due = docs.len() * ((i + 1) * batch).min(clicks.len()) / clicks.len();
        feed(Input::Docs, &docs[docs_fed..due]);
        docs_fed = due;
    }
    feed(Input::Docs, &docs[docs_fed..]);
    server.close().expect("close serving core");
    if !front.wait_drained(Duration::from_secs(60)) {
        eprintln!(
            "warning: {} subscriber connection(s) still draining at shutdown",
            front.active_conns()
        );
    }
    front.stop();
    if let Some(r) = rig {
        r.finish();
    }
    let c = server.admission_counters();
    println!(
        "served:            {} record(s) ingested, {} tenant(s) admitted ({} queued, {} rejected)",
        server.ingest_records(),
        c.admitted,
        c.queued,
        c.rejected
    );
}

/// One loadgen tenant's outcome.
struct LoadgenOutcome {
    id: String,
    query: String,
    /// Client-side time from ADMITTED to the first EARLY/FINAL line.
    ttfa: Option<Duration>,
    early: u64,
    /// The tenant's final answers in `--dump-out` format.
    dump: String,
    records_in: u64,
    dlq_dead: u64,
    error: Option<String>,
}

/// `onepass loadgen`: drive a running `onepass serve` with a
/// Zipf-distributed tenant population and report latency + fairness.
/// Exits nonzero if any tenant is rejected or errors, or if two tenants
/// of the same query disagree on their final answers (they must be
/// byte-identical — tenants that subscribed before ingest started
/// share one session per query).
fn cmd_loadgen(mut args: Args) {
    use onepass_workloads::serving::standard_catalog;
    use onepass_workloads::tenantgen::{assign_tenants, TenantGenConfig};
    use std::io::Write;

    let server_addr = args.value("server").unwrap_or_else(|| usage());
    let tenants: usize = args.num("tenants").unwrap_or_else(|| usage());
    let queries: Vec<String> = match args.value("queries") {
        Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
        None => standard_catalog(CatalogConfig::default()).names(),
    };
    let mut gen_config = TenantGenConfig::default();
    if let Some(s) = args.num("zipf") {
        gen_config.zipf_s = s;
    }
    if let Some(s) = args.num("seed") {
        gen_config.seed = s;
    }
    let dump_dir = args.value("dump-dir");
    let report_path = args.value("report");
    args.finish();

    let population = assign_tenants(tenants, &queries, &gen_config);
    eprintln!(
        "loadgen: {tenants} tenant(s) over {} query(ies) against {server_addr} (zipf s={})",
        queries.len(),
        gen_config.zipf_s
    );

    let handles: Vec<_> = population
        .into_iter()
        .map(|spec| {
            let addr = server_addr.clone();
            std::thread::Builder::new()
                .name(format!("loadgen-{}", spec.id))
                .spawn(move || drive_tenant(&addr, &spec.id, &spec.query))
                .expect("spawn loadgen tenant")
        })
        .collect();
    let outcomes: Vec<LoadgenOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("loadgen tenant thread panicked"))
        .collect();

    let mut failed = false;
    for o in outcomes.iter().filter(|o| o.error.is_some()) {
        eprintln!(
            "tenant {} ({}): {}",
            o.id,
            o.query,
            o.error.as_deref().unwrap_or("")
        );
        failed = true;
    }

    // Cross-tenant consistency: every tenant of a query must hold
    // byte-identical finals.
    let mut reference: Vec<(&str, &LoadgenOutcome)> = Vec::new();
    for o in outcomes.iter().filter(|o| o.error.is_none()) {
        match reference.iter().find(|(q, _)| *q == o.query) {
            None => reference.push((&o.query, o)),
            Some((_, first)) => {
                if first.dump != o.dump {
                    eprintln!(
                        "DIVERGENCE: tenants {} and {} disagree on query {}",
                        first.id, o.id, o.query
                    );
                    failed = true;
                }
            }
        }
    }

    if let Some(dir) = &dump_dir {
        let failed = |e: std::io::Error| -> ! { fatal(format!("write --dump-dir {dir}"), e) };
        std::fs::create_dir_all(dir).unwrap_or_else(|e| failed(e));
        for o in outcomes.iter().filter(|o| o.error.is_none()) {
            let path = format!("{dir}/{}.{}.dump", o.id, o.query);
            std::fs::write(&path, &o.dump).unwrap_or_else(|e| failed(e));
        }
        eprintln!("wrote per-tenant dumps to {dir}/");
    }
    if let Some(path) = &report_path {
        let failed = |e: std::io::Error| -> ! { fatal(format!("write --report {path}"), e) };
        let file = std::fs::File::create(path).unwrap_or_else(|e| failed(e));
        let mut out = std::io::BufWriter::new(file);
        for o in &outcomes {
            writeln!(
                out,
                "{{\"type\":\"loadgen\",\"tenant\":\"{}\",\"query\":\"{}\",\"ttfa_s\":{},\"early\":{},\"records\":{},\"dlq_dead\":{},\"ok\":{}}}",
                o.id,
                o.query,
                o.ttfa
                    .map(|d| format!("{:.6}", d.as_secs_f64()))
                    .unwrap_or_else(|| "null".into()),
                o.early,
                o.records_in,
                o.dlq_dead,
                o.error.is_none()
            )
            .unwrap_or_else(|e| failed(e));
        }
        out.flush().unwrap_or_else(|e| failed(e));
        eprintln!("wrote per-tenant report to {path}");
    }

    let mut ttfas: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.ttfa.map(|d| d.as_secs_f64()))
        .collect();
    ttfas.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if ttfas.is_empty() {
            return 0.0;
        }
        ttfas[((ttfas.len() - 1) as f64 * p).round() as usize]
    };
    // Jain's fairness index over per-tenant TTFA: 1.0 = perfectly even.
    let jain = if ttfas.is_empty() {
        1.0
    } else {
        let sum: f64 = ttfas.iter().sum();
        let sq: f64 = ttfas.iter().map(|x| x * x).sum();
        (sum * sum) / (ttfas.len() as f64 * sq).max(f64::MIN_POSITIVE)
    };
    let ok = outcomes.iter().filter(|o| o.error.is_none()).count();
    println!(
        "loadgen:           {ok}/{} tenant(s) ok, {} with a first answer",
        outcomes.len(),
        ttfas.len()
    );
    println!(
        "ttfa:              p50 {} p99 {} (jain fairness {jain:.3})",
        fmt_secs(pct(0.50)),
        fmt_secs(pct(0.99)),
    );
    if failed {
        std::process::exit(1);
    }
}

/// Run one loadgen tenant's subscription over the wire protocol.
fn drive_tenant(addr: &str, id: &str, query: &str) -> LoadgenOutcome {
    use onepass::runtime::serve::front::unhex;
    use std::io::{BufRead, BufReader, Write};

    let mut outcome = LoadgenOutcome {
        id: id.to_string(),
        query: query.to_string(),
        ttfa: None,
        early: 0,
        dump: String::new(),
        records_in: 0,
        dlq_dead: 0,
        error: None,
    };
    let fail = |o: &mut LoadgenOutcome, msg: String| {
        o.error = Some(msg);
    };
    let stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            fail(&mut outcome, format!("connect {addr}: {e}"));
            return outcome;
        }
    };
    let mut writer = stream.try_clone().expect("clone socket");
    if writer
        .write_all(format!("SUBSCRIBE {id} {query}\n").as_bytes())
        .is_err()
    {
        fail(&mut outcome, "subscribe write failed".into());
        return outcome;
    }
    let mut admitted_at = None;
    let mut finals: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                fail(&mut outcome, format!("read: {e}"));
                return outcome;
            }
        };
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("ADMITTED"), _, _) => admitted_at = Some(std::time::Instant::now()),
            (Some("REJECTED"), a, b) => {
                let reason = [a, b]
                    .iter()
                    .flatten()
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(" ");
                fail(&mut outcome, format!("rejected: {reason}"));
                return outcome;
            }
            (Some(kind @ ("EARLY" | "FINAL")), Some(hexkey), Some(hexval)) => {
                if outcome.ttfa.is_none() {
                    if let Some(at) = admitted_at {
                        outcome.ttfa = Some(at.elapsed());
                    }
                }
                if kind == "EARLY" {
                    outcome.early += 1;
                } else {
                    let (Some(key), Some(value)) = (unhex(hexkey), unhex(hexval)) else {
                        fail(&mut outcome, format!("malformed hex: {hexkey} {hexval}"));
                        return outcome;
                    };
                    finals.push((key, value));
                }
            }
            (Some("DONE"), _, _) => {
                for kv in line.split_whitespace().skip(1) {
                    if let Some((k, v)) = kv.split_once('=') {
                        match k {
                            "records" => outcome.records_in = v.parse().unwrap_or(0),
                            "dlq_dead" => outcome.dlq_dead = v.parse().unwrap_or(0),
                            _ => {}
                        }
                    }
                }
                outcome.dump = dump_pairs(finals.iter().map(|(k, v)| (&k[..], &v[..])));
                return outcome;
            }
            (Some("ERROR"), _, _) => {
                fail(&mut outcome, line.clone());
                return outcome;
            }
            _ => {
                fail(&mut outcome, format!("unexpected line: {line}"));
                return outcome;
            }
        }
    }
    fail(&mut outcome, "connection closed before DONE".into());
    outcome
}
