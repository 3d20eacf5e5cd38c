//! Job execution reports: everything the paper's profiling harness
//! measured, per job.

use std::time::{Duration, Instant};

use onepass_core::io::IoStats;
use onepass_core::metrics::{Phase, Profile};
use onepass_core::trace::{LocalTracer, Tracer, Track};
use onepass_core::{SegmentBuf, SegmentBufBuilder};
use onepass_groupby::EmitKind;

use crate::map_task::MapTaskStats;
use crate::reduce_task::ReduceResult;
use crate::serve::front::push_hex;

/// What kind of task a [`TaskSpan`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// A map task.
    Map,
    /// A reduce task.
    Reduce,
}

impl TaskKind {
    /// Lowercase label, as used in JSONL reports and trace track groups.
    pub fn label(self) -> &'static str {
        match self {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        }
    }

    /// Name of the `task`-category trace span around a task of this kind.
    pub fn span_name(self) -> &'static str {
        match self {
            TaskKind::Map => "map_task",
            TaskKind::Reduce => "reduce_task",
        }
    }
}

/// One task's lifetime relative to job start — the raw material of the
/// paper's task-timeline plots (Fig. 2a / Fig. 3).
#[derive(Debug, Clone, Copy)]
pub struct TaskSpan {
    /// Task kind.
    pub kind: TaskKind,
    /// Task id (map task id or reducer partition).
    pub id: usize,
    /// Execution attempt (0 = first). Retried attempts each get their own
    /// span.
    pub attempt: usize,
    /// Start offset from job start.
    pub start: Duration,
    /// End offset from job start.
    pub end: Duration,
}

/// A running task whose lifetime is being stamped; see [`TaskSpan::open`].
pub(crate) struct OpenTask {
    kind: TaskKind,
    id: usize,
    began: Instant,
    /// The task's trace buffer, on track `(kind, track_offset + id)`.
    pub trace: LocalTracer,
}

impl TaskSpan {
    /// Stamp a task's start: the clock is read once here and once in
    /// [`OpenTask::close`], and those two readings are both the report's
    /// `TaskSpan` and the trace's `task` span — wherever the task runs,
    /// an executor thread or a remote worker the coordinator waits on.
    pub(crate) fn open(kind: TaskKind, id: usize, tracer: &Tracer, track_offset: u64) -> OpenTask {
        OpenTask {
            kind,
            id,
            trace: tracer.local(Track::new(kind.label(), track_offset + id as u64)),
            began: Instant::now(),
        }
    }
}

impl OpenTask {
    /// The task ended as execution attempt `attempt`. Both ends of the
    /// span are recorded here, so a task that never ends leaves no span
    /// open.
    pub fn close(mut self, attempt: usize, clock: Instant) -> TaskSpan {
        let ended = Instant::now();
        self.trace
            .span(self.kind.span_name(), "task", self.began, ended);
        TaskSpan {
            kind: self.kind,
            id: self.id,
            attempt,
            start: self.began.saturating_duration_since(clock),
            end: ended.saturating_duration_since(clock),
        }
    }
}

/// One output emission.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Output key.
    pub key: Vec<u8>,
    /// Output value.
    pub value: Vec<u8>,
    /// Early (incremental/snapshot) vs final.
    pub kind: EmitKind,
    /// When it was emitted, relative to job start.
    pub at: Duration,
}

/// The full result of one engine run.
#[derive(Debug, Default)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Backend label used on the reduce side.
    pub backend: String,
    /// Wall-clock duration of the whole job.
    pub wall: Duration,
    /// Merged per-phase CPU profile of all map tasks.
    pub map_profile: Profile,
    /// Merged per-phase CPU profile of all reduce tasks.
    pub reduce_profile: Profile,
    /// Number of map tasks executed.
    pub map_tasks: usize,
    /// Number of reduce tasks executed.
    pub reduce_tasks: usize,
    /// Input records consumed.
    pub input_records: u64,
    /// Input bytes consumed.
    pub input_bytes: u64,
    /// Map-function output records (before combine).
    pub map_output_records: u64,
    /// Records actually shuffled (after combine).
    pub shuffled_records: u64,
    /// Bytes actually shuffled (after combine).
    pub shuffled_bytes: u64,
    /// Map-side persistence I/O (the synchronous map-output write).
    pub map_write_io: IoStats,
    /// Reduce-side spill I/O (multi-pass merge / hash bucket spill).
    pub reduce_spill_io: IoStats,
    /// Groups emitted as final answers.
    pub groups_out: u64,
    /// Early emissions (incremental answers, hot-key answers, snapshots).
    pub early_emits: u64,
    /// HOP snapshots taken.
    pub snapshots: u64,
    /// Time of the first early emission (None if none happened).
    pub first_early_at: Option<Duration>,
    /// Time of the first final emission.
    pub first_final_at: Option<Duration>,
    /// Collected output (when the job asked for it).
    pub outputs: Vec<JobOutput>,
    /// A cache-output plan stage's finals instead: one segment per reduce
    /// partition, as that partition's reducer wrote it and key-sorted it
    /// — what the plan publishes as the dataset. Empty for any other job.
    pub partitions: Vec<SegmentBuf>,
    /// Task lifetimes for timeline rendering.
    pub task_spans: Vec<TaskSpan>,
    /// Map attempts executed to any outcome (success, failure, or
    /// cancellation). Equals `map_tasks` when nothing failed.
    pub map_attempts: usize,
    /// Reduce attempts executed (internal reduce retries included).
    /// Equals `reduce_tasks` when nothing failed.
    pub reduce_attempts: usize,
    /// Attempts that ended in a real failure and were retried or gave up
    /// (attempts cancelled by a failing job are not failures).
    pub failed_attempts: usize,
    /// Always 0: a batch job's map side never waits on memory pressure
    /// (a reducer owns its budget). Kept only as a field for readers that
    /// predate that; it is in neither the JSONL nor the console summary.
    pub backpressure_stalls: u64,
}

impl JobReport {
    /// The collected final `(key, value)` pairs — what crosses a plan
    /// edge, and what a plan's answer is made of: the collected outputs in
    /// emission order, or a cache-output stage's partitions in partition
    /// and key order.
    pub fn final_pairs(&self) -> impl Iterator<Item = (&[u8], &[u8])> + '_ {
        let outputs = self
            .outputs
            .iter()
            .filter(|o| o.kind == EmitKind::Final)
            .map(|o| (o.key.as_slice(), o.value.as_slice()));
        outputs.chain(self.partitions.iter().flat_map(SegmentBuf::iter))
    }

    /// Total CPU seconds across map+reduce phases (the §V "CPU cycles"
    /// comparison metric).
    pub fn total_cpu(&self) -> Duration {
        self.map_profile.total_time() + self.reduce_profile.total_time()
    }

    /// CPU seconds excluding shuffle-wait (which is idle, not CPU).
    pub fn total_compute_cpu(&self) -> Duration {
        self.total_cpu()
            .saturating_sub(self.map_profile.time(Phase::Shuffle))
            .saturating_sub(self.reduce_profile.time(Phase::Shuffle))
    }

    /// Reduce-side spill traffic in bytes (written + read) — the §V
    /// three-orders-of-magnitude metric.
    pub fn reduce_spill_traffic(&self) -> u64 {
        self.reduce_spill_io.bytes_written + self.reduce_spill_io.bytes_read
    }

    /// Intermediate-data-to-input ratio (Table I row
    /// "Intermediate/input").
    pub fn intermediate_ratio(&self) -> f64 {
        if self.input_bytes == 0 {
            0.0
        } else {
            self.shuffled_bytes as f64 / self.input_bytes as f64
        }
    }

    /// Fold one map task's stats into the report.
    pub(crate) fn absorb_map(&mut self, s: &MapTaskStats) {
        self.map_tasks += 1;
        self.input_records += s.input_records;
        self.input_bytes += s.input_bytes;
        self.map_output_records += s.output_records;
        self.shuffled_records += s.shuffled_records;
        self.shuffled_bytes += s.shuffled_bytes;
        self.map_profile.merge(&s.profile);
    }

    /// Fold one reduce task's result into the report.
    pub(crate) fn absorb_reduce(&mut self, r: &ReduceResult) {
        self.reduce_tasks += 1;
        self.reduce_attempts += r.attempts;
        self.failed_attempts += r.attempts - 1;
        self.reduce_profile.merge(&r.stats.profile);
        self.groups_out += r.stats.groups_out;
        // early_emits is set by the driver from its sinks (covers backend
        // early output and HOP snapshots uniformly); not accumulated here.
        self.snapshots += r.snapshots_taken;
        add_io(&mut self.reduce_spill_io, &r.stats.io);
    }

    /// Render the report as JSONL: one `{"type":"task",...}` line per
    /// task span followed by a single `{"type":"job",...}` summary line
    /// embedding both phase profiles. Machine-readable counterpart of the
    /// tables the experiment binaries print.
    pub fn to_jsonl(&self) -> String {
        use onepass_core::json::{escape, fmt_f64};
        let mut out = String::new();
        for s in &self.task_spans {
            out.push_str(&format!(
                concat!(
                    "{{\"type\":\"task\",\"kind\":\"{}\",\"id\":{},\"attempt\":{},",
                    "\"start_s\":{},\"end_s\":{}}}\n"
                ),
                s.kind.label(),
                s.id,
                s.attempt,
                fmt_f64(s.start.as_secs_f64()),
                fmt_f64(s.end.as_secs_f64()),
            ));
        }
        out.push_str(&format!(
            concat!(
                "{{\"type\":\"job\",\"name\":\"{}\",\"backend\":\"{}\",\"wall_s\":{},",
                "\"map_tasks\":{},\"reduce_tasks\":{},",
                "\"input_records\":{},\"input_bytes\":{},",
                "\"map_output_records\":{},\"shuffled_records\":{},\"shuffled_bytes\":{},",
                "\"map_write_bytes\":{},\"reduce_spill_bytes_written\":{},",
                "\"reduce_spill_bytes_read\":{},\"groups_out\":{},\"early_emits\":{},",
                "\"snapshots\":{},\"first_early_s\":{},\"first_final_s\":{},",
                "\"map_attempts\":{},\"reduce_attempts\":{},\"failed_attempts\":{},",
                "\"map_profile\":{},\"reduce_profile\":{}}}\n"
            ),
            escape(&self.name),
            escape(&self.backend),
            fmt_f64(self.wall.as_secs_f64()),
            self.map_tasks,
            self.reduce_tasks,
            self.input_records,
            self.input_bytes,
            self.map_output_records,
            self.shuffled_records,
            self.shuffled_bytes,
            self.map_write_io.bytes_written,
            self.reduce_spill_io.bytes_written,
            self.reduce_spill_io.bytes_read,
            self.groups_out,
            self.early_emits,
            self.snapshots,
            self.first_early_at
                .map_or_else(|| "null".into(), |d| fmt_f64(d.as_secs_f64())),
            self.first_final_at
                .map_or_else(|| "null".into(), |d| fmt_f64(d.as_secs_f64())),
            self.map_attempts,
            self.reduce_attempts,
            self.failed_attempts,
            self.map_profile.to_json(),
            self.reduce_profile.to_json(),
        ));
        out
    }
}

/// One stage's slice of a plan run.
#[derive(Debug)]
pub struct StageReport {
    /// Stage index within the plan.
    pub stage: usize,
    /// Stage (job) name.
    pub name: String,
    /// True when the stage has no downstream consumers: its output is
    /// part of the plan's answer.
    pub is_sink: bool,
    /// The stage's job report. Task spans and output timestamps are
    /// measured against the *plan* clock, so `wall` is the offset from
    /// plan start to stage completion — not the stage's own duration.
    pub report: JobReport,
}

/// The result of running a [`Plan`](crate::plan::Plan) via
/// [`Engine::run_plan`](crate::Engine::run_plan).
#[derive(Debug)]
pub struct PlanReport {
    /// Wall-clock duration of the whole plan.
    pub wall: Duration,
    /// Earliest final emission of any *sink* stage, relative to plan
    /// start — the plan's time-to-first-answer.
    pub first_final_at: Option<Duration>,
    /// Per-stage reports, in stage-id order.
    pub stages: Vec<StageReport>,
}

impl PlanReport {
    /// The plan's answer: every sink stage's final `(key, value)` pairs,
    /// sorted. Emission order across reducers and stages is
    /// nondeterministic; sorting makes runs comparable.
    pub fn sorted_final_outputs(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = self
            .stages
            .iter()
            .filter(|s| s.is_sink)
            .flat_map(|s| s.report.final_pairs())
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        out.sort();
        out
    }

    /// Render as JSONL: one `{"type":"stage",...}` summary line per stage
    /// followed by a single `{"type":"plan",...}` line. For full per-task
    /// detail, render each stage's [`JobReport::to_jsonl`] too.
    pub fn to_jsonl(&self) -> String {
        use onepass_core::json::{escape, fmt_f64};
        let mut out = String::new();
        for s in &self.stages {
            out.push_str(&format!(
                concat!(
                    "{{\"type\":\"stage\",\"stage\":{},\"name\":\"{}\",\"sink\":{},",
                    "\"backend\":\"{}\",\"wall_s\":{},",
                    "\"groups_out\":{},\"first_final_s\":{},",
                    "\"map_attempts\":{},\"reduce_attempts\":{},",
                    "\"failed_attempts\":{}}}\n"
                ),
                s.stage,
                escape(&s.name),
                s.is_sink,
                escape(&s.report.backend),
                fmt_f64(s.report.wall.as_secs_f64()),
                s.report.groups_out,
                s.report
                    .first_final_at
                    .map_or_else(|| "null".into(), |d| fmt_f64(d.as_secs_f64())),
                s.report.map_attempts,
                s.report.reduce_attempts,
                s.report.failed_attempts,
            ));
        }
        out.push_str(&format!(
            concat!(
                "{{\"type\":\"plan\",\"stages\":{},\"wall_s\":{},",
                "\"first_final_s\":{}}}\n"
            ),
            self.stages.len(),
            fmt_f64(self.wall.as_secs_f64()),
            self.first_final_at
                .map_or_else(|| "null".into(), |d| fmt_f64(d.as_secs_f64())),
        ));
        out
    }
}

/// Render `(key, value)` pairs in the one dump format `run --dump-out`,
/// `plan --dump-out` and the serving layer share: a `key<TAB>hex(value)`
/// line per pair (key as lossy UTF-8), lines sorted, trailing newline.
/// Byte-equality of two dumps is how runs are compared across modes.
///
/// Each line is rendered once, into one buffer: the key's bytes as they
/// are where they are UTF-8 and one U+FFFD per invalid chunk (what
/// `String::from_utf8_lossy` writes), a tab, the value through the hex
/// table. The engine's one key sort orders the lines as byte strings,
/// which is the order of the lines as `String`s, and the output is
/// assembled from `&str` slices of that buffer, so nothing re-validates
/// it.
pub fn dump_pairs<'a>(pairs: impl IntoIterator<Item = (&'a [u8], &'a [u8])>) -> String {
    // `text` holds the lines back to back, `ends` where each ends.
    let mut text = String::new();
    let mut ends = Vec::new();
    for (key, value) in pairs {
        // A UTF-8 key is one valid chunk, copied as it is.
        for chunk in key.utf8_chunks() {
            text.push_str(chunk.valid());
            if !chunk.invalid().is_empty() {
                text.push(char::REPLACEMENT_CHARACTER);
            }
        }
        text.push('\t');
        push_hex(&mut text, value);
        ends.push(text.len());
    }
    // Each line as a key whose value is its offset in `text`, in a
    // segment sized once the lines are known.
    let mut lines =
        SegmentBufBuilder::with_capacity(text.len() + ends.len() * size_of::<usize>(), ends.len());
    let mut start = 0;
    for end in ends {
        lines.push(&text.as_bytes()[start..end], &start.to_le_bytes());
        start = end;
    }
    let lines = lines.finish().sorted_by_key();
    let mut out = String::with_capacity(text.len() + lines.len());
    for (line, start) in lines.iter() {
        let start = usize::from_le_bytes(start.try_into().expect("a line's offset is a usize"));
        out.push_str(&text[start..start + line.len()]);
        out.push('\n');
    }
    out
}

pub(crate) fn add_io(acc: &mut IoStats, other: &IoStats) {
    acc.bytes_written += other.bytes_written;
    acc.bytes_read += other.bytes_read;
    acc.runs_created += other.runs_created;
    acc.runs_deleted += other.runs_deleted;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Charge `secs` to `phase` through the profile's one door.
    fn charge(profile: &mut Profile, phase: Phase, secs: u64) {
        let t = Instant::now();
        let end = t + Duration::from_secs(secs);
        profile.record(phase, t, end, &mut LocalTracer::disabled());
    }

    #[test]
    fn ratios_and_totals() {
        let mut r = JobReport {
            input_bytes: 100,
            shuffled_bytes: 250,
            ..Default::default()
        };
        assert!((r.intermediate_ratio() - 2.5).abs() < 1e-9);
        r.input_bytes = 0;
        assert_eq!(r.intermediate_ratio(), 0.0);

        r.reduce_spill_io.bytes_written = 7;
        r.reduce_spill_io.bytes_read = 5;
        assert_eq!(r.reduce_spill_traffic(), 12);
    }

    #[test]
    fn jsonl_has_one_line_per_task_plus_summary() {
        use onepass_core::json::Json;
        let mut r = JobReport {
            name: "wordcount".into(),
            backend: "sort-merge".into(),
            wall: Duration::from_millis(1500),
            ..Default::default()
        };
        r.map_tasks = 2;
        r.reduce_tasks = 1;
        charge(&mut r.map_profile, Phase::MapFn, 1);
        let (clock, tracer) = (Instant::now(), Tracer::disabled());
        r.task_spans = [
            (TaskKind::Map, 0, 0),
            (TaskKind::Map, 1, 1),
            (TaskKind::Reduce, 0, 0),
        ]
        .map(|(kind, id, attempt)| TaskSpan::open(kind, id, &tracer, 0).close(attempt, clock))
        .to_vec();
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4, "3 tasks + 1 summary");
        for line in &lines[..3] {
            let doc = Json::parse(line).expect("valid task line");
            assert_eq!(doc.get("type").and_then(Json::as_str), Some("task"));
        }
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("attempt").and_then(Json::as_f64), Some(1.0));
        let summary = Json::parse(lines[3]).expect("valid summary line");
        assert_eq!(summary.get("type").and_then(Json::as_str), Some("job"));
        assert_eq!(summary.get("map_tasks").and_then(Json::as_f64), Some(2.0));
        assert_eq!(summary.get("wall_s").and_then(Json::as_f64), Some(1.5));
        assert!(summary.get("first_early_s").is_some_and(Json::is_null));
        for gone in ["mem_rebalances", "mem_sheds", "backpressure_stalls"] {
            assert!(summary.get(gone).is_none(), "{gone} is no key");
        }
        assert!(summary
            .get("map_profile")
            .and_then(|p| p.get("phases"))
            .is_some());
    }

    #[test]
    fn plan_jsonl_and_sorted_outputs() {
        use onepass_core::json::Json;
        let out = |key: &[u8], value: &[u8], kind: EmitKind| JobOutput {
            key: key.to_vec(),
            value: value.to_vec(),
            kind,
            at: Duration::ZERO,
        };
        let report = PlanReport {
            wall: Duration::from_millis(250),
            first_final_at: Some(Duration::from_millis(90)),
            stages: vec![
                StageReport {
                    stage: 0,
                    name: "count".into(),
                    is_sink: false,
                    report: JobReport {
                        // Interior finals must NOT appear in the plan's
                        // answer.
                        outputs: vec![out(b"x", b"1", EmitKind::Final)],
                        ..Default::default()
                    },
                },
                StageReport {
                    stage: 1,
                    name: "hist".into(),
                    is_sink: true,
                    report: JobReport {
                        outputs: vec![
                            out(b"b", b"2", EmitKind::Final),
                            out(b"a", b"9", EmitKind::Early),
                            out(b"a", b"1", EmitKind::Final),
                        ],
                        map_attempts: 5,
                        reduce_attempts: 2,
                        failed_attempts: 1,
                        ..Default::default()
                    },
                },
            ],
        };
        assert_eq!(
            report.sorted_final_outputs(),
            vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"2".to_vec()),
            ]
        );
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3, "2 stages + 1 plan line");
        let s1 = Json::parse(lines[1]).expect("valid stage line");
        assert_eq!(s1.get("type").and_then(Json::as_str), Some("stage"));
        assert_eq!(s1.get("map_attempts").and_then(Json::as_f64), Some(5.0));
        assert_eq!(s1.get("reduce_attempts").and_then(Json::as_f64), Some(2.0));
        assert_eq!(s1.get("failed_attempts").and_then(Json::as_f64), Some(1.0));
        let plan = Json::parse(lines[2]).expect("valid plan line");
        assert!(plan.get("mode").is_none(), "a plan runs one way");
        assert_eq!(plan.get("stages").and_then(Json::as_f64), Some(2.0));
        assert_eq!(plan.get("wall_s").and_then(Json::as_f64), Some(0.25));
        assert_eq!(plan.get("first_final_s").and_then(Json::as_f64), Some(0.09));
    }

    type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

    /// The dump `dump_pairs` replaced, kept as its oracle: a `String` per
    /// line through `format!` (the value's digits too, so the oracle
    /// shares no code with the hex table), a comparator sort over the
    /// `String`s, a `join`.
    fn dump_by_strings(pairs: &Pairs) -> String {
        let line = |(key, value): &(Vec<u8>, Vec<u8>)| {
            let digits: String = value.iter().map(|b| format!("{b:02x}")).collect();
            format!("{}\t{}", String::from_utf8_lossy(key), digits)
        };
        let mut lines: Vec<String> = pairs.iter().map(line).collect();
        lines.sort();
        lines.push(String::new()); // trailing newline
        lines.join("\n")
    }

    fn dump(pairs: &Pairs) -> String {
        dump_pairs(pairs.iter().map(|(k, v)| (&k[..], &v[..])))
    }

    /// What a dump key is drawn from: bytes below the tab, the tab and
    /// the newline, ASCII letters, `é` (`c3 a9`), its lead byte alone, a
    /// stray continuation byte, and bytes UTF-8 never uses.
    const KEY_BYTES: [u8; 12] = [
        0x00, 0x01, 0x08, b'\t', b'\n', b'a', b'b', 0xc3, 0xa9, 0x80, 0xfe, 0xff,
    ];

    fn key_bytes(picks: &[usize]) -> Vec<u8> {
        picks.iter().map(|&i| KEY_BYTES[i]).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1000))]

        /// Keys are a few stems (up to ten bytes, so lines tie on their
        /// first eight) plus a short suffix (so keys are prefixes of
        /// keys); values are zero to two bytes; the first few pairs
        /// repeat. Up to 40 pairs, none included.
        #[test]
        fn dump_pairs_is_byte_equal_to_the_string_sort_oracle(
            stems in proptest::collection::vec(proptest::collection::vec(0..KEY_BYTES.len(), 0..10), 1..4),
            drawn in proptest::collection::vec(
                (
                    proptest::prelude::any::<usize>(),
                    proptest::collection::vec(0..KEY_BYTES.len(), 0..4),
                    proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3),
                ),
                0..40,
            ),
            repeats in 0..4usize,
        ) {
            let mut pairs: Pairs = drawn
                .into_iter()
                .map(|(stem, suffix, value)| {
                    let mut key = key_bytes(&stems[stem % stems.len()]);
                    key.extend(key_bytes(&suffix));
                    (key, value)
                })
                .collect();
            pairs.extend_from_within(..repeats.min(pairs.len()));
            proptest::prop_assert_eq!(dump(&pairs), dump_by_strings(&pairs));
        }
    }

    /// Each shape the property draws, spelled out (the vendored proptest
    /// does not replay regression files).
    #[test]
    fn dump_pairs_is_byte_equal_to_the_oracle_case_by_case() {
        let pairs = |keys: &[&[u8]], value: &[u8]| -> Pairs {
            keys.iter().map(|k| (k.to_vec(), value.to_vec())).collect()
        };
        let cases: [(&str, Pairs); 7] = [
            (
                "invalid UTF-8 keys",
                pairs(
                    &[
                        b"\xff",
                        b"a\xc3",
                        b"\xc3\xa9",
                        b"\xe2\x82z",
                        b"\x80\x80",
                        b"\xf0\x9f\x98",
                    ],
                    b"\x01",
                ),
            ),
            (
                "bytes below the tab",
                pairs(&[b"a\x01", b"a", b"a\t\x01", b"\x00", b"a\x08b"], b""),
            ),
            (
                "keys that are prefixes of keys",
                pairs(&[b"abc", b"ab", b"", b"abcd", b"a"], b"\x0f"),
            ),
            (
                "lines that share their first eight bytes",
                pairs(
                    &[
                        b"abcdefgh1",
                        b"abcdefgh0",
                        b"abcdefghij",
                        b"abcdefgh",
                        b"abcdefg",
                    ],
                    b"\xab",
                ),
            ),
            (
                "duplicate pairs",
                [pairs(&[b"k", b"j"], b"\x02"), pairs(&[b"k", b"j"], b"\x02")].concat(),
            ),
            ("empty values", pairs(&[b"z", b"y", b"z"], b"")),
            ("empty input", Vec::new()),
        ];
        for (what, pairs) in cases {
            assert_eq!(dump(&pairs), dump_by_strings(&pairs), "{what}");
        }
        assert_eq!(dump(&Vec::new()), "");
        assert_eq!(
            dump(&pairs(&[b"b\xff", b"a"], b"\x00\xff")),
            "a\t00ff\nb\u{fffd}\t00ff\n"
        );
    }

    #[test]
    fn cpu_excludes_shuffle_wait() {
        let mut r = JobReport::default();
        charge(&mut r.map_profile, Phase::MapFn, 2);
        charge(&mut r.reduce_profile, Phase::Shuffle, 3);
        charge(&mut r.reduce_profile, Phase::ReduceFn, 1);
        assert_eq!(r.total_cpu(), Duration::from_secs(6));
        assert_eq!(r.total_compute_cpu(), Duration::from_secs(3));
    }
}
