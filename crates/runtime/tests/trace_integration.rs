//! End-to-end check of the trace layer: run a real job with tracing on,
//! drain the event stream, and validate that it pairs into complete
//! spans, matches the report's task accounting, and renders as loadable
//! Chrome trace JSON.

use std::sync::Arc;
use std::time::Duration;

use onepass_core::json::Json;
use onepass_core::metrics::{Phase, PHASE};
use onepass_core::trace::{chrome_trace_json, complete_spans, TraceEvent, Tracer, LANE};
use onepass_groupby::SumAgg;
use onepass_runtime::driver::EngineConfig;
use onepass_runtime::job::{JobSpec, JobSpecBuilder, ReduceBackend};
use onepass_runtime::map_task::Split;
use onepass_runtime::{Engine, JobReport};
use onepass_workloads::clickgen::{ClickGen, ClickGenConfig};
use onepass_workloads::{make_splits, per_user_count, sessionization};

mod common;
use common::word_map;

fn input() -> Vec<Split> {
    ["a b a", "c b", "a d c", "b a", "d d a", "c a b"]
        .chunks(2)
        .map(|c| Split::new(c.iter().map(|l| l.as_bytes().to_vec()).collect()))
        .collect()
}

fn run_job(job: &JobSpec, splits: Vec<Split>) -> (JobReport, Vec<TraceEvent>) {
    let tracer = Tracer::enabled();
    let config = EngineConfig::builder().tracer(tracer.clone()).build();
    let report = Engine::with_config(config).run(job, splits).unwrap();
    (report, tracer.drain())
}

fn run_traced(backend: Option<ReduceBackend>) -> (JobReport, Vec<TraceEvent>) {
    let mut builder = JobSpec::builder("wc-traced")
        .map_fn(Arc::new(word_map))
        .aggregate(Arc::new(SumAgg))
        .reducers(2);
    if let Some(b) = backend {
        builder = builder.backend(b);
    }
    run_job(&builder.build().unwrap(), input())
}

/// The two readings of one run agree: every `phase` span is named by a
/// [`Phase`], per phase the spans add up to the report's profile to the
/// nanosecond (they are the same clock readings), and every task the
/// report lists has its `task` span over the same two instants.
fn assert_trace_is_the_report(what: &str, report: &JobReport, events: &[TraceEvent]) {
    let spans = complete_spans(events).expect("every begin must be closed");
    let labels: Vec<&str> = Phase::all().iter().map(|p| p.label()).collect();
    for s in spans.iter().filter(|s| s.cat == PHASE) {
        assert!(labels.contains(&s.name), "{what}: phase span `{}`", s.name);
    }
    for &phase in Phase::all() {
        let in_trace: Duration = spans
            .iter()
            .filter(|s| s.cat == PHASE && s.name == phase.label())
            .map(|s| s.duration())
            .sum();
        let in_report = report.map_profile.time(phase) + report.reduce_profile.time(phase);
        assert_eq!(in_trace, in_report, "{what}: {}", phase.label());
    }

    let tasks: Vec<_> = spans.iter().filter(|s| s.cat == "task").collect();
    assert_eq!(tasks.len(), report.task_spans.len(), "{what}: task spans");
    // The report counts from the job clock, the trace from the tracer's
    // epoch: one constant apart, whichever task it is read off.
    let mut epoch_to_clock = None;
    for t in &report.task_spans {
        let track = (t.kind.label(), t.id as u64);
        let s = tasks
            .iter()
            .find(|s| {
                (s.track.group, s.track.id) == track
                    && s.name == t.kind.span_name()
                    && s.duration() == t.end - t.start
            })
            .unwrap_or_else(|| panic!("{what}: no task span for {t:?}"));
        let offset = s.start - t.start;
        assert_eq!(
            *epoch_to_clock.get_or_insert(offset),
            offset,
            "{what}: {t:?}"
        );
    }
}

/// 20k text clicks over 500 skewed users in 2k-record splits, and a
/// reduce budget small enough that every backend spills.
fn clicks(job: JobSpecBuilder) -> (JobSpec, Vec<Split>) {
    let mut gen = ClickGen::new(ClickGenConfig {
        users: 500,
        ..ClickGenConfig::default()
    });
    let splits = make_splits(gen.text_records(20_000), 2_000);
    let job = job.reducers(2).reduce_budget_bytes(16 << 10);
    (job.build().unwrap(), splits)
}

#[test]
fn phase_spans_are_the_profile_on_every_preset() {
    type Preset = fn(JobSpecBuilder) -> JobSpecBuilder;
    let presets: [(&str, Preset); 3] = [
        ("hadoop", JobSpecBuilder::preset_hadoop),
        ("hop", JobSpecBuilder::preset_hop),
        ("onepass", JobSpecBuilder::preset_onepass),
    ];
    for (name, preset) in presets {
        let (job, splits) = clicks(preset(sessionization::job()));
        let (report, events) = run_job(&job, splits);
        assert!(report.reduce_spill_traffic() > 0, "{name} must spill");
        assert_trace_is_the_report(name, &report, &events);
        // The phases the report charges all have spans — the map function
        // and the reduce-side grouping among them, which had none.
        let charged = |p| report.map_profile.time(p) + report.reduce_profile.time(p);
        assert!(charged(Phase::MapFn) > Duration::ZERO, "{name}");
        assert!(charged(Phase::Shuffle) > Duration::ZERO, "{name}");
        assert!(charged(Phase::ReduceFn) > Duration::ZERO, "{name}");
    }

    let (job, splits) = clicks(per_user_count::job().preset_onepass());
    assert!(job.hash_combines());
    let (report, events) = run_job(&job, splits);
    assert_trace_is_the_report("per-user count", &report, &events);
    assert!(report.map_profile.time(Phase::MapHash) > Duration::ZERO);
}

#[test]
fn traced_job_produces_complete_spans_matching_the_report() {
    let (report, events) = run_traced(None);
    assert!(!events.is_empty(), "enabled tracer must record events");

    let spans = complete_spans(&events).expect("every begin must be closed");
    let task_spans: Vec<_> = spans.iter().filter(|s| s.cat == "task").collect();
    assert_eq!(
        task_spans.len(),
        report.map_tasks + report.reduce_tasks,
        "one task span per task"
    );

    assert_trace_is_the_report("word count", &report, &events);

    // The driver's job span encloses every task span.
    let job = spans.iter().find(|s| s.name == "job").expect("job span");
    for s in &task_spans {
        assert!(s.start >= job.start && s.end <= job.end);
    }

    // Every reducer shows the Fig. 2a lanes, shuffle then finish.
    for lane in ["shuffle", "finish"] {
        let n = spans.iter().filter(|s| (s.name, s.cat) == (lane, LANE));
        assert_eq!(n.count(), report.reduce_tasks, "{lane} lanes");
    }
}

#[test]
fn traced_job_chrome_json_is_loadable() {
    let (report, events) = run_traced(None);
    let text = chrome_trace_json(&events);
    let doc = Json::parse(&text).expect("chrome trace must be valid JSON");
    let arr = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(arr.len() > events.len(), "metadata records must be present");

    // Count B/E pairs with cat "task": one pair per task.
    let begins = arr
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("B")
                && e.get("cat").and_then(Json::as_str) == Some("task")
        })
        .count();
    let ends = arr
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("E")
                && e.get("cat").and_then(Json::as_str) == Some("task")
        })
        .count();
    assert_eq!(begins, report.map_tasks + report.reduce_tasks);
    assert_eq!(begins, ends);

    // Every event carries a pid/tid that metadata names.
    let named_pids: Vec<f64> = arr
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .map(|e| e.get("pid").and_then(Json::as_f64).unwrap())
        .collect();
    for e in arr {
        if e.get("ph").and_then(Json::as_str) == Some("M") {
            continue;
        }
        let pid = e.get("pid").and_then(Json::as_f64).unwrap();
        assert!(named_pids.contains(&pid), "pid {pid} has no process_name");
    }
}

#[test]
fn sortmerge_backend_emits_spill_instants_when_memory_is_tight() {
    let (_, events) = run_traced(Some(ReduceBackend::SortMerge { snapshots: false }));
    // Spans still pair even with merge/spill activity interleaved.
    complete_spans(&events).expect("balanced spans with sort-merge backend");
    // reduce_fn phase appears on reducer tracks.
    assert!(events
        .iter()
        .any(|e| e.name == "reduce_fn" && e.track.group == "reduce"));
}
