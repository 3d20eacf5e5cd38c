//! Structured trace events: task spans, lane and phase sub-spans and
//! instants, exportable as Chrome trace-event JSON.
//!
//! The paper's argument is built on *seeing* where a MapReduce job spends
//! its time — per-phase CPU attribution (Table II) and task timelines
//! (Fig. 2a/3). A [`Tracer`] is the process-wide collection point: cheap
//! to clone, disabled by default, and when disabled the only cost at a
//! probe site is one relaxed atomic load (checked once per task when a
//! [`LocalTracer`] is created, after which every probe is a plain branch
//! on a cached bool). Each worker thread records into its own
//! [`LocalTracer`] buffer with zero synchronization; buffers flush into
//! the shared tracer when dropped, and [`Tracer::drain`] merges them into
//! a single time-ordered stream at job end.
//!
//! Events carry a [`Track`] — a `(group, id)` pair such as
//! `("map", 3)` — which becomes the process/thread lane structure in
//! [`chrome_trace_json`], so a real engine run and a simulated run (which
//! records with explicit `*_at` timestamps in sim time) render
//! identically in Perfetto / `chrome://tracing`.

use crate::error::{Error, Result};
use crate::json::{escape, fmt_f64};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Category of the reducer's timeline spans, in the engine's trace and
/// the simulator's: the Fig. 2a lanes `shuffle` (task start → last
/// committed map) and `finish` (the final merge and reduce), plus each
/// HOP `snapshot`. A lane says *when* a task was in a stage of its life;
/// the [`crate::metrics::PHASE`] spans nested inside say what the time
/// went to (Table II's attribution), and only those are in the profile.
pub const LANE: &str = "lane";

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opens (Chrome `ph:"B"`).
    Begin,
    /// The innermost open span on the same track closes (Chrome `ph:"E"`).
    End,
    /// A point event (Chrome `ph:"i"`).
    Instant,
}

/// The lane an event belongs to: a task group (`"map"`, `"reduce"`,
/// `"driver"`, …) plus an id within the group (task number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Track {
    /// Lane group; becomes the Chrome trace *process* name.
    pub group: &'static str,
    /// Lane id within the group; becomes the Chrome trace *thread* id.
    pub id: u64,
}

impl Track {
    /// Build a track.
    pub fn new(group: &'static str, id: u64) -> Self {
        Track { group, id }
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Begin/end/instant.
    pub kind: EventKind,
    /// Event name (span name or instant name).
    pub name: &'static str,
    /// Category — `"task"`, `"lane"`, [`crate::metrics::PHASE`] (spans
    /// only a [`crate::metrics::Stamp`] emits) or an operator family like
    /// `"spill"`.
    pub cat: &'static str,
    /// The lane this event belongs to.
    pub track: Track,
    /// Time since the tracer's epoch (or explicit sim time).
    pub ts: Duration,
    /// Numeric payload (byte counts, record counts, …).
    pub args: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
struct Inner {
    enabled: AtomicBool,
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

/// Shared handle to a trace collection; clone freely across threads.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    /// A disabled tracer (probe sites cost one branch).
    fn default() -> Self {
        Tracer::new(false)
    }
}

impl Tracer {
    /// Build a tracer; its epoch (t=0 for relative timestamps) is now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(enabled),
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// An enabled tracer.
    pub fn enabled() -> Self {
        Tracer::new(true)
    }

    /// A disabled tracer — recording is a no-op.
    pub fn disabled() -> Self {
        Tracer::new(false)
    }

    /// Whether events are being recorded (single relaxed atomic load).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Time elapsed since the tracer's epoch.
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.inner.epoch.elapsed()
    }

    /// Open a per-thread recording buffer for `track`. The enabled flag
    /// is sampled here, once, so per-event probes are branch-on-bool.
    pub fn local(&self, track: Track) -> LocalTracer {
        LocalTracer {
            tracer: self.clone(),
            track,
            enabled: self.is_enabled(),
            buf: Vec::new(),
        }
    }

    /// Merge all flushed buffers into one stream, stably ordered by
    /// timestamp (events at equal times keep their per-thread order).
    /// Leaves the tracer empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut events = std::mem::take(&mut *self.inner.events.lock().unwrap());
        events.sort_by_key(|e| e.ts);
        events
    }

    fn absorb(&self, buf: &mut Vec<TraceEvent>) {
        if buf.is_empty() {
            return;
        }
        self.inner.events.lock().unwrap().append(buf);
    }
}

/// A per-thread (or per-task) event buffer. Recording never takes a
/// lock; the buffer flushes into the shared [`Tracer`] on drop or
/// [`LocalTracer::flush`].
#[derive(Debug)]
pub struct LocalTracer {
    tracer: Tracer,
    track: Track,
    enabled: bool,
    buf: Vec<TraceEvent>,
}

impl LocalTracer {
    /// A local tracer that records nothing — for callers holding an
    /// instrumented object outside any traced job.
    pub fn disabled() -> Self {
        Tracer::disabled().local(Track::new("off", 0))
    }

    /// Whether this buffer is recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The track events from this buffer land on.
    pub fn track(&self) -> Track {
        self.track
    }

    /// Time since the owning tracer's epoch.
    #[inline]
    pub fn now(&self) -> Duration {
        self.tracer.elapsed()
    }

    /// A clock reading as a timestamp on this tracer's time base.
    #[inline]
    fn at(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.tracer.inner.epoch)
    }

    #[inline]
    fn push(&mut self, kind: EventKind, name: &'static str, cat: &'static str, ts: Duration) {
        self.buf.push(TraceEvent {
            kind,
            name,
            cat,
            track: self.track,
            ts,
            args: Vec::new(),
        });
    }

    /// Open a span now.
    #[inline]
    pub fn begin(&mut self, name: &'static str, cat: &'static str) {
        if self.enabled {
            self.begin_at(name, cat, self.now());
        }
    }

    /// Open a span at an explicit timestamp (sim time).
    #[inline]
    pub fn begin_at(&mut self, name: &'static str, cat: &'static str, ts: Duration) {
        if self.enabled {
            self.push(EventKind::Begin, name, cat, ts);
        }
    }

    /// Close the innermost open span on this track now.
    #[inline]
    pub fn end(&mut self, name: &'static str, cat: &'static str) {
        if self.enabled {
            self.end_at(name, cat, self.now());
        }
    }

    /// Close the innermost open span at an explicit timestamp (sim time).
    #[inline]
    pub fn end_at(&mut self, name: &'static str, cat: &'static str, ts: Duration) {
        if self.enabled {
            self.push(EventKind::End, name, cat, ts);
        }
    }

    /// Record a whole span from two clock readings the caller already
    /// took (see [`crate::metrics::Stamp`]).
    #[inline]
    pub fn span(&mut self, name: &'static str, cat: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.push(EventKind::Begin, name, cat, self.at(start));
            self.push(EventKind::End, name, cat, self.at(end));
        }
    }

    /// Record a point event now, with numeric args (byte counts etc).
    #[inline]
    pub fn instant(&mut self, name: &'static str, cat: &'static str, args: &[(&'static str, f64)]) {
        if self.enabled {
            self.instant_at(name, cat, self.now(), args);
        }
    }

    /// Record a point event at an explicit timestamp (sim time).
    #[inline]
    pub fn instant_at(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts: Duration,
        args: &[(&'static str, f64)],
    ) {
        if self.enabled {
            self.push(EventKind::Instant, name, cat, ts);
            self.buf.last_mut().expect("just pushed").args = args.to_vec();
        }
    }

    /// A second buffer on the same tracer and track, for handing to a
    /// helper object (e.g. a group-by operator owned by a task) without
    /// giving up this one. Both flush into the same shared stream.
    pub fn fork(&self) -> Self {
        LocalTracer {
            tracer: self.tracer.clone(),
            track: self.track,
            enabled: self.enabled,
            buf: Vec::new(),
        }
    }

    /// Push buffered events into the shared tracer now (also happens on
    /// drop).
    pub fn flush(&mut self) {
        self.tracer.absorb(&mut self.buf);
    }
}

impl Drop for LocalTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A begin/end pair recovered from an event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedSpan {
    /// Span name (from the begin event).
    pub name: &'static str,
    /// Span category (from the begin event).
    pub cat: &'static str,
    /// The track the span ran on.
    pub track: Track,
    /// Begin timestamp.
    pub start: Duration,
    /// End timestamp.
    pub end: Duration,
}

impl CompletedSpan {
    /// Span duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Pair begin/end events into completed spans. Pairing is per-track and
/// stack-based (Chrome `B`/`E` semantics): an end event closes the most
/// recent open begin on the same track. Errors on an end without an open
/// begin or on begins left open at stream end.
pub fn complete_spans(events: &[TraceEvent]) -> Result<Vec<CompletedSpan>> {
    use std::collections::HashMap;
    let mut open: HashMap<Track, Vec<&TraceEvent>> = HashMap::new();
    let mut spans = Vec::new();
    for e in events {
        match e.kind {
            EventKind::Begin => open.entry(e.track).or_default().push(e),
            EventKind::End => {
                let b = open.get_mut(&e.track).and_then(Vec::pop).ok_or_else(|| {
                    Error::InvalidState(format!(
                        "end event '{}' on track {}/{} without an open begin",
                        e.name, e.track.group, e.track.id
                    ))
                })?;
                spans.push(CompletedSpan {
                    name: b.name,
                    cat: b.cat,
                    track: b.track,
                    start: b.ts,
                    end: e.ts,
                });
            }
            EventKind::Instant => {}
        }
    }
    if let Some((track, stack)) = open.iter().find(|(_, s)| !s.is_empty()) {
        return Err(Error::InvalidState(format!(
            "{} span(s) left open on track {}/{} (first: '{}')",
            stack.len(),
            track.group,
            track.id,
            stack[0].name
        )));
    }
    spans.sort_by_key(|s| (s.start, s.end));
    Ok(spans)
}

fn micros(ts: Duration) -> String {
    // Chrome trace timestamps are microseconds; keep sub-µs precision.
    fmt_f64(ts.as_nanos() as f64 / 1e3)
}

fn args_json(args: &[(&'static str, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":{}", escape(k), fmt_f64(*v)));
    }
    s.push('}');
    s
}

/// Render an event stream as Chrome trace-event JSON (the object form,
/// loadable in Perfetto and `chrome://tracing`). Track groups become
/// processes and track ids become threads, with metadata records naming
/// each lane; process sort order follows first appearance in `events`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut pids: Vec<&'static str> = Vec::new();
    let mut tracks: Vec<Track> = Vec::new();
    for e in events {
        if !pids.contains(&e.track.group) {
            pids.push(e.track.group);
        }
        if !tracks.contains(&e.track) {
            tracks.push(e.track);
        }
    }
    let pid_of = |group: &'static str| pids.iter().position(|&g| g == group).unwrap() + 1;

    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut emit = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    for (i, group) in pids.iter().enumerate() {
        emit(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                escape(group)
            ),
            &mut first,
        );
        emit(
            format!(
                "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"sort_index\":{}}}}}",
                i + 1,
                i
            ),
            &mut first,
        );
    }
    for t in &tracks {
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{} {}\"}}}}",
                pid_of(t.group),
                t.id,
                escape(t.group),
                t.id
            ),
            &mut first,
        );
    }

    for e in events {
        let (ph, extra) = match e.kind {
            EventKind::Begin => ("B", String::new()),
            EventKind::End => ("E", String::new()),
            EventKind::Instant => ("i", ",\"s\":\"t\"".to_string()),
        };
        let args = if e.args.is_empty() {
            String::new()
        } else {
            format!(",\"args\":{}", args_json(&e.args))
        };
        emit(
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}{}{}}}",
                escape(e.name),
                escape(e.cat),
                ph,
                micros(e.ts),
                pid_of(e.track.group),
                e.track.id,
                extra,
                args
            ),
            &mut first,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let mut local = tracer.local(Track::new("map", 0));
        local.begin("task", "map");
        local.instant("spill", "io", &[("bytes", 100.0)]);
        local.end("task", "map");
        drop(local);
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn nested_spans_pair_innermost_first() {
        let tracer = Tracer::enabled();
        let mut local = tracer.local(Track::new("map", 1));
        local.begin_at("outer", "task", Duration::from_micros(10));
        local.begin_at("inner", "lane", Duration::from_micros(20));
        local.end_at("inner", "lane", Duration::from_micros(30));
        local.end_at("outer", "task", Duration::from_micros(50));
        drop(local);
        let spans = complete_spans(&tracer.drain()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].duration(), Duration::from_micros(40));
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].duration(), Duration::from_micros(10));
    }

    #[test]
    fn interleaved_tracks_pair_independently() {
        let tracer = Tracer::enabled();
        let mut a = tracer.local(Track::new("map", 0));
        let mut b = tracer.local(Track::new("reduce", 0));
        a.begin_at("map_task", "task", Duration::from_micros(0));
        b.begin_at("reduce_task", "task", Duration::from_micros(5));
        a.end_at("map_task", "task", Duration::from_micros(10));
        b.end_at("reduce_task", "task", Duration::from_micros(20));
        drop(a);
        drop(b);
        let spans = complete_spans(&tracer.drain()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].track, Track::new("map", 0));
        assert_eq!(spans[1].track, Track::new("reduce", 0));
    }

    #[test]
    fn unbalanced_streams_are_rejected() {
        let tracer = Tracer::enabled();
        let mut local = tracer.local(Track::new("map", 0));
        local.begin_at("task", "t", Duration::ZERO);
        local.flush();
        assert!(complete_spans(&tracer.drain()).is_err());

        let mut local = tracer.local(Track::new("map", 0));
        local.end_at("task", "t", Duration::ZERO);
        local.flush();
        assert!(complete_spans(&tracer.drain()).is_err());
    }

    #[test]
    fn end_on_wrong_track_cannot_close_another_tracks_begin() {
        // A begin on map/0 followed by an end on map/1 must NOT pair:
        // pairing is strictly per-track, so this stream has both an
        // end-without-begin (map/1) and a dangling begin (map/0).
        let tracer = Tracer::enabled();
        let mut a = tracer.local(Track::new("map", 0));
        let mut b = tracer.local(Track::new("map", 1));
        a.begin_at("task", "t", Duration::from_micros(1));
        b.end_at("task", "t", Duration::from_micros(2));
        drop(a);
        drop(b);
        let err = complete_spans(&tracer.drain()).unwrap_err().to_string();
        assert!(err.contains("without an open begin"), "got: {err}");
    }

    #[test]
    fn deeply_unbalanced_stream_reports_open_count() {
        let tracer = Tracer::enabled();
        let mut local = tracer.local(Track::new("reduce", 3));
        for i in 0..5 {
            local.begin_at("nested", "t", Duration::from_micros(i));
        }
        // Close only two of the five.
        local.end_at("nested", "t", Duration::from_micros(10));
        local.end_at("nested", "t", Duration::from_micros(11));
        drop(local);
        let err = complete_spans(&tracer.drain()).unwrap_err().to_string();
        assert!(err.contains("3 span(s) left open"), "got: {err}");
        assert!(err.contains("reduce/3"), "got: {err}");
    }

    #[test]
    fn zero_duration_and_inverted_spans_never_underflow() {
        // Build the stream by hand: `drain` time-orders events, so a
        // clock-skewed end-before-begin pair can only reach
        // `complete_spans` from an externally assembled stream (e.g. a
        // loaded trace file).
        let ev = |kind: EventKind, name: &'static str, us: u64| TraceEvent {
            kind,
            name,
            cat: "t",
            track: Track::new("map", 0),
            ts: Duration::from_micros(us),
            args: Vec::new(),
        };
        let events = vec![
            // Zero-duration: begin and end share a timestamp.
            ev(EventKind::Begin, "instantaneous", 5),
            ev(EventKind::End, "instantaneous", 5),
            // Inverted: a clock-skewed end earlier than its begin.
            ev(EventKind::Begin, "skewed", 9),
            ev(EventKind::End, "skewed", 4),
        ];
        let spans = complete_spans(&events).unwrap();
        assert_eq!(spans.len(), 2);
        let zero = spans.iter().find(|s| s.name == "instantaneous").unwrap();
        assert_eq!(zero.duration(), Duration::ZERO);
        let skewed = spans.iter().find(|s| s.name == "skewed").unwrap();
        assert_eq!(skewed.duration(), Duration::ZERO, "saturates, not panics");
    }

    #[test]
    fn interleaved_same_name_spans_pair_per_track_stacks() {
        // Two tracks run identically-named nested spans, interleaved in
        // one stream; every span must close against its own track's
        // innermost open begin.
        let tracer = Tracer::enabled();
        let mut a = tracer.local(Track::new("map", 0));
        let mut b = tracer.local(Track::new("map", 1));
        a.begin_at("task", "t", Duration::from_micros(0));
        b.begin_at("task", "t", Duration::from_micros(1));
        a.begin_at("task", "t", Duration::from_micros(2));
        b.end_at("task", "t", Duration::from_micros(3));
        a.end_at("task", "t", Duration::from_micros(4));
        a.end_at("task", "t", Duration::from_micros(6));
        drop(a);
        drop(b);
        let spans = complete_spans(&tracer.drain()).unwrap();
        assert_eq!(spans.len(), 3);
        // Sorted by (start, end): outer-a spans [0,6], b spans [1,3],
        // inner-a spans [2,4].
        assert_eq!(spans[0].track, Track::new("map", 0));
        assert_eq!(spans[0].end, Duration::from_micros(6));
        assert_eq!(spans[1].track, Track::new("map", 1));
        assert_eq!(spans[1].end, Duration::from_micros(3));
        assert_eq!(spans[2].track, Track::new("map", 0));
        assert_eq!(spans[2].start, Duration::from_micros(2));
        assert_eq!(spans[2].end, Duration::from_micros(4));
    }

    #[test]
    fn instants_do_not_disturb_pairing() {
        let tracer = Tracer::enabled();
        let mut local = tracer.local(Track::new("map", 0));
        local.begin_at("task", "t", Duration::from_micros(0));
        local.instant_at("spill", "io", Duration::from_micros(1), &[]);
        local.end_at("task", "t", Duration::from_micros(3));
        drop(local);
        let spans = complete_spans(&tracer.drain()).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "task");
    }

    #[test]
    fn drain_merges_thread_buffers_in_time_order() {
        let tracer = Tracer::enabled();
        std::thread::scope(|s| {
            for id in 0..4u64 {
                let mut local = tracer.local(Track::new("map", id));
                s.spawn(move || {
                    for k in 0..10 {
                        local.instant_at(
                            "tick",
                            "t",
                            Duration::from_micros(id + 4 * k),
                            &[("k", k as f64)],
                        );
                    }
                });
            }
        });
        let events = tracer.drain();
        assert_eq!(events.len(), 40);
        for pair in events.windows(2) {
            assert!(pair[0].ts <= pair[1].ts, "drain must be time-ordered");
        }
        // A second drain is empty: buffers were consumed.
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn equal_timestamps_keep_buffer_order() {
        let tracer = Tracer::enabled();
        let mut local = tracer.local(Track::new("map", 0));
        let ts = Duration::from_micros(7);
        local.begin_at("zero_len", "t", ts);
        local.end_at("zero_len", "t", ts);
        drop(local);
        let events = tracer.drain();
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[1].kind, EventKind::End);
    }

    #[test]
    fn chrome_json_is_valid_and_structured() {
        let tracer = Tracer::enabled();
        let mut local = tracer.local(Track::new("map", 2));
        local.begin_at("map_task", "task", Duration::from_micros(1));
        local.instant_at(
            "spill",
            "io",
            Duration::from_micros(2),
            &[("bytes", 4096.0)],
        );
        local.end_at("map_task", "task", Duration::from_micros(9));
        drop(local);

        let text = chrome_trace_json(&tracer.drain());
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
            .collect();
        // 2 metadata (process) + 1 metadata (thread) + B + i + E.
        assert_eq!(phases, ["M", "M", "M", "B", "i", "E"]);
        let begin = &events[3];
        assert_eq!(begin.get("name").and_then(Json::as_str), Some("map_task"));
        assert_eq!(begin.get("ts").and_then(Json::as_f64), Some(1.0));
        let inst = &events[4];
        assert_eq!(
            inst.get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(Json::as_f64),
            Some(4096.0)
        );
        let proc_meta = &events[0];
        assert_eq!(
            proc_meta
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("map")
        );
    }

    #[test]
    fn real_time_spans_measure_elapsed() {
        let tracer = Tracer::enabled();
        let mut local = tracer.local(Track::new("w", 0));
        local.begin("work", "t");
        // The measured interval itself: `thread::sleep` never returns
        // early, so the span is at least as long on any scheduler — less
        // the sub-microsecond an event's timestamp may truncate, hence the
        // bound at half the sleep.
        std::thread::sleep(Duration::from_millis(2));
        local.end("work", "t");
        drop(local);
        let spans = complete_spans(&tracer.drain()).unwrap();
        assert!(spans[0].duration() >= Duration::from_millis(1));
    }
}
