//! The four batch workloads: one engine job over pre-generated click
//! splits, checked against a `BTreeMap` reference.

use std::sync::Arc;
use std::time::Duration;

use onepass_core::metrics::Phase;
use onepass_core::obs::{MetricsRegistry, SampleValue};
use onepass_core::trace::Tracer;
use onepass_groupby::SumAgg;
use onepass_runtime::map_task::Split;
use onepass_runtime::transport::worker::{spawn_local, WorkerHandle};
use onepass_runtime::{
    CollectOutput, Engine, EngineConfig, JobRegistry, JobReport, JobSpec, JobSpecBuilder,
    SpillBackend, Transport, WorkerOptions,
};
use onepass_workloads::sessionization::{SessionizeAgg, DEFAULT_GAP_S};
use onepass_workloads::{make_splits, per_user_count, sessionization};

use crate::inputs::{self, Scale};
use crate::oracle::{self, Finals};
use crate::probes::{self, ProbeInput};
use crate::span::SpanLog;
use crate::stats::median;
use crate::sys;
use crate::workload::{Iteration, Metrics, Pass, Workload};

/// Map slots and reducers: the sandbox has two cores.
const WORKERS: usize = 2;

/// Records per split (one map task each).
const SPLIT_RECORDS: usize = 20_000;

/// Text clicks every batch workload reads.
const CLICKS: usize = 1_000_000;

/// Probe sample cap.
const PROBE_RECORDS: usize = 1_000_000;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `sessionize_constrained`
    SessionizeConstrained,
    /// `peruser_unconstrained`
    PeruserUnconstrained,
    /// `sessionize_hadoop`
    SessionizeHadoop,
    /// `sessionize_tcp2`
    SessionizeTcp2,
}

impl Kind {
    /// Per-reducer budget. Constrained runs hold 12 MB of session state
    /// per reducer at full scale, so 2 MiB forces most of it through the
    /// spill path; 256 MiB never spills.
    fn budget_bytes(self, scale: Scale) -> usize {
        match self {
            Kind::SessionizeConstrained | Kind::SessionizeHadoop => scale.of(2 << 20),
            Kind::PeruserUnconstrained | Kind::SessionizeTcp2 => 256 << 20,
        }
    }

    fn spill(self) -> SpillBackend {
        match self {
            Kind::SessionizeConstrained | Kind::SessionizeHadoop => SpillBackend::TempFiles,
            Kind::PeruserUnconstrained | Kind::SessionizeTcp2 => SpillBackend::Memory,
        }
    }

    fn is_sessionize(self) -> bool {
        self != Kind::PeruserUnconstrained
    }

    fn job(self, scale: Scale, collect: CollectOutput) -> JobSpec {
        let base: JobSpecBuilder = if self.is_sessionize() {
            sessionization::job()
        } else {
            per_user_count::job()
        };
        let base = base
            .reducers(WORKERS)
            .collect_mode(collect)
            .reduce_budget_bytes(self.budget_bytes(scale));
        let preset = if self == Kind::SessionizeHadoop {
            base.preset_hadoop()
        } else {
            base.preset_onepass()
        };
        preset.build().expect("preset job specs are valid")
    }
}

/// A batch workload, set up.
pub struct Batch {
    kind: Kind,
    scale: Scale,
    splits: Vec<Split>,
    records: u64,
    fingerprint: u64,
    reference: Finals,
    job: JobSpec,
    /// Loopback workers (`sessionize_tcp2` only); dropping a handle stops
    /// its accept loop and joins it.
    workers: Vec<WorkerHandle>,
    /// In-proc walls of the alternating iterations (`sessionize_tcp2`).
    inproc_walls: Vec<f64>,
    tcp_walls: Vec<f64>,
    /// Report and registry of the last traced iteration.
    traced: Option<(JobReport, MetricsRegistry)>,
}

impl Batch {
    /// Untimed set-up: generate clicks, cut splits, compute the
    /// reference, start workers.
    pub fn setup(kind: Kind, seed: u64, scale: Scale) -> Self {
        let clicks = inputs::clicks(inputs::batch_click_config(seed), scale.of(CLICKS));
        let fingerprint = inputs::fingerprint(clicks.iter().map(Vec::as_slice));
        let reference = if kind.is_sessionize() {
            oracle::sessionize(&clicks, DEFAULT_GAP_S)
        } else {
            oracle::per_user_count(&clicks)
        };
        let records = clicks.len() as u64;
        let splits = make_splits(clicks, SPLIT_RECORDS);
        let job = kind.job(scale, CollectOutput::Discard);
        let workers = if kind == Kind::SessionizeTcp2 {
            let registry = JobRegistry::new();
            registry.register_spec(job.clone());
            (0..WORKERS)
                .map(|_| {
                    spawn_local(registry.clone(), WorkerOptions::default())
                        .expect("loopback worker binds an ephemeral port")
                })
                .collect()
        } else {
            Vec::new()
        };
        Batch {
            kind,
            scale,
            splits,
            records,
            fingerprint,
            reference,
            job,
            workers,
            inproc_walls: Vec::new(),
            tcp_walls: Vec::new(),
            traced: None,
        }
    }

    fn engine(&self, transport: Transport, observe: Option<(&Tracer, &MetricsRegistry)>) -> Engine {
        let mut config = EngineConfig::builder()
            .map_workers(WORKERS)
            .spill(self.kind.spill())
            .transport(transport);
        if let Some((tracer, registry)) = observe {
            config = config.tracer(tracer.clone()).metrics(registry.clone());
        }
        Engine::with_config(config.build())
    }

    fn tcp(&self) -> Transport {
        Transport::Tcp {
            workers: self.workers.iter().map(|w| w.addr().to_string()).collect(),
        }
    }

    /// One timed engine run over a fresh clone of the splits.
    fn run_once(
        &self,
        job: &JobSpec,
        transport: Transport,
        pass: Pass,
        spans: &mut SpanLog,
        span: &str,
    ) -> (
        Result<JobReport, String>,
        Duration,
        Duration,
        Option<MetricsRegistry>,
    ) {
        let splits = self.splits.clone();
        let observed = (pass == Pass::Traced).then(|| (Tracer::enabled(), MetricsRegistry::new()));
        let engine = self.engine(transport, observed.as_ref().map(|(t, r)| (t, r)));
        let id = spans.begin(span);
        let (result, wall, cpu) = sys::timed(|| engine.run(job, splits));
        spans.end(id);
        let registry = observed.map(|(tracer, registry)| {
            drop(tracer.drain());
            registry
        });
        (result.map_err(|e| e.to_string()), wall, cpu, registry)
    }
}

fn first_answer(report: &JobReport) -> Duration {
    report
        .first_early_at
        .or(report.first_final_at)
        .unwrap_or(report.wall)
}

impl Workload for Batch {
    fn input_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn min_iterations(&self) -> usize {
        9
    }

    fn iterate(&mut self, pass: Pass, spans: &mut SpanLog) -> Iteration {
        let iteration = spans.begin("iteration");
        let (transport, span) = if self.kind == Kind::SessionizeTcp2 {
            (self.tcp(), "engine.run.tcp")
        } else {
            (Transport::InProc, "engine.run")
        };
        let job = self.job.clone();
        let (result, wall, cpu, registry) = self.run_once(&job, transport, pass, spans, span);
        let mut failures = Vec::new();
        let mut first = wall;
        match result {
            Ok(report) => {
                first = first_answer(&report);
                if report.groups_out != self.reference.len() as u64 {
                    failures.push(format!(
                        "{} groups out, reference has {}",
                        report.groups_out,
                        self.reference.len()
                    ));
                }
                if let Some(registry) = registry {
                    self.traced = Some((report, registry));
                }
            }
            Err(e) => failures.push(e),
        }
        if self.kind == Kind::SessionizeTcp2 {
            // The alternating in-proc iteration on the same input; only
            // its wall is kept, for `transport.tcp_overhead_ns_per_rec`.
            let (result, inproc_wall, _, _) =
                self.run_once(&job, Transport::InProc, pass, spans, "engine.run.inproc");
            match result {
                Ok(_) if pass == Pass::Untraced => {
                    self.inproc_walls.push(inproc_wall.as_secs_f64());
                    self.tcp_walls.push(wall.as_secs_f64());
                }
                Ok(_) => {}
                Err(e) => failures.push(format!("in-proc leg: {e}")),
            }
        }
        spans.end(iteration);
        Iteration {
            wall,
            cpu,
            records: self.records,
            first_answer: first,
            attempted: 1,
            failures,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let job = self.kind.job(self.scale, CollectOutput::Collect);
        let transport = if self.kind == Kind::SessionizeTcp2 {
            self.tcp()
        } else {
            Transport::InProc
        };
        let mut off = SpanLog::new("", false);
        let (result, ..) = self.run_once(&job, transport, Pass::Untraced, &mut off, "verify");
        let got = oracle::sorted_finals(&result?);
        oracle::first_mismatch(&got, &self.reference).map_or(Ok(()), Err)
    }

    fn probe_input(&self) -> ProbeInput {
        let clicks: Vec<Vec<u8>> = self
            .splits
            .iter()
            .flat_map(|s| s.records.iter().cloned())
            .take(self.scale.of(PROBE_RECORDS))
            .collect();
        if self.kind.is_sessionize() {
            ProbeInput::from_clicks(
                clicks,
                probes::session_value,
                Arc::new(SessionizeAgg::default()),
            )
        } else {
            ProbeInput::from_clicks(clicks, |_| 1u64.to_le_bytes(), Arc::new(SumAgg))
        }
    }

    fn layer_metrics(&self, probes: &Metrics, untraced_cpu_s: f64) -> Metrics {
        let mut m = Metrics::new();
        let Some((report, registry)) = &self.traced else {
            return m;
        };
        let input = report.input_records.max(1) as f64;
        m.insert(
            "shuffle.bytes_per_rec",
            report.shuffled_bytes as f64 / input,
        );
        m.insert(
            "shuffle.backpressure_stalls",
            report.backpressure_stalls as f64,
        );
        m.insert(
            "shuffle.combine_ratio",
            report.shuffled_records as f64 / report.map_output_records.max(1) as f64,
        );
        m.insert(
            "spill_bytes_per_rec",
            report.reduce_spill_traffic() as f64 / input,
        );
        for (&phase, name) in Phase::all().iter().zip(PHASE_METRICS) {
            let busy = report.map_profile.time(phase) + report.reduce_profile.time(phase);
            m.insert(name, busy.as_nanos() as f64 / input);
        }
        if self.kind == Kind::SessionizeTcp2 {
            let shuffled = report.shuffled_records.max(1) as f64;
            if !self.tcp_walls.is_empty() {
                let tcp = median(&mut self.tcp_walls.clone());
                let inproc = median(&mut self.inproc_walls.clone());
                m.insert(
                    "transport.tcp_overhead_ns_per_rec",
                    (tcp - inproc) * 1e9 / shuffled,
                );
            }
            let wire: u64 = registry
                .snapshot()
                .metrics
                .iter()
                .filter(|s| s.name == "onepass_transport_bytes_total")
                .map(|s| match s.value {
                    SampleValue::Counter(v) => v,
                    _ => 0,
                })
                .sum();
            m.insert("transport.wire_bytes_per_rec", wire as f64 / shuffled);
        }
        let explained_ns = explained_ns(self.kind, report, probes);
        let cpu_ns = untraced_cpu_s * 1e9;
        if cpu_ns > 0.0 {
            m.insert("closure.explained_frac", explained_ns / cpu_ns);
            m.insert(
                "closure.unexplained_ns_per_rec",
                (cpu_ns - explained_ns) / input,
            );
        }
        m
    }
}

/// `runtime.phase.*` metric names in [`Phase::all`] order.
pub const PHASE_METRICS: [&str; 11] = [
    "runtime.phase.read_ns_per_rec",
    "runtime.phase.map_fn_ns_per_rec",
    "runtime.phase.map_sort_ns_per_rec",
    "runtime.phase.map_hash_ns_per_rec",
    "runtime.phase.combine_ns_per_rec",
    "runtime.phase.map_write_ns_per_rec",
    "runtime.phase.shuffle_ns_per_rec",
    "runtime.phase.merge_ns_per_rec",
    "runtime.phase.reduce_group_ns_per_rec",
    "runtime.phase.reduce_fn_ns_per_rec",
    "runtime.phase.final_write_ns_per_rec",
];

/// The closure model: CPU nanoseconds the layer probes account for, as
/// probe ns/rec × the record counts this job's report gives each layer.
/// What it leaves out (map-side and in-node combine tables, task set-up,
/// the reduce function, thread hand-offs) is the unexplained remainder —
/// a ledger row, not an error.
fn explained_ns(kind: Kind, report: &JobReport, probes: &Metrics) -> f64 {
    let p = |name: &str| probes.get(name).copied().unwrap_or(0.0);
    let input = report.input_records as f64;
    let emitted = report.map_output_records as f64;
    let shuffled = report.shuffled_records as f64;
    let spilled = report.reduce_spill_traffic() > 0;
    let sort_merge = kind == Kind::SessionizeHadoop;
    let mut ns = input * p("workloads.parse_click_ns_per_rec")
        + emitted * p("hashlib.fingerprint_partition_ns_per_key")
        + emitted * p("bytes_kv.scatter_ns_per_rec")
        + shuffled * p("shuffle.inproc_ns_per_rec");
    if sort_merge {
        ns += emitted * p("bytes_kv.sort_partition_key_ns_per_rec");
    }
    ns += shuffled
        * p(match (sort_merge, spilled) {
            (true, true) => "groupby.sortmerge_tight_ns_per_rec",
            (true, false) => "groupby.sortmerge_fit_ns_per_rec",
            (false, true) => "groupby.freq_hash_tight_ns_per_rec",
            (false, false) => "groupby.freq_hash_fit_ns_per_rec",
        });
    if spilled && kind.spill() == SpillBackend::TempFiles {
        // The tight group-by probes spill to memory; add what real files
        // cost on top, per framed record written and read back.
        let framed = p("io.framed_bytes_per_rec").max(1.0);
        let written = report.reduce_spill_io.bytes_written as f64 / framed;
        let read = report.reduce_spill_io.bytes_read as f64 / framed;
        ns += written * (p("io.file_write_ns_per_rec") - p("io.mem_write_ns_per_rec")).max(0.0)
            + read * (p("io.file_read_ns_per_rec") - p("io.mem_read_ns_per_rec")).max(0.0);
    }
    ns
}
