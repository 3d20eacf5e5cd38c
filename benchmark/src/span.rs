//! The harness-side span log of the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public functions and around each iteration; nothing in
//! the program under test is instrumented. They stay in memory and are
//! written once, at exit, as a Chrome trace and a per-layer JSONL.

use std::collections::BTreeMap;
use std::time::Instant;

use onepass_core::json::escape;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-call or iteration name.
    pub name: String,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Handle returned by [`SpanLog::begin`]; `None` when the log is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Aggregate of every span sharing a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerRow {
    /// Span name.
    pub name: String,
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
}

/// In-memory span log for one workload (the shared identifier of every
/// span in it).
#[derive(Debug)]
pub struct SpanLog {
    workload: String,
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log for `workload`; when `enabled` is false every call is a
    /// no-op, which is how the untraced pass runs.
    pub fn new(workload: &str, enabled: bool) -> Self {
        SpanLog {
            workload: workload.to_string(),
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off between iterations (no span may be
    /// open).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggle between spans, not inside one");
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Close a span opened by [`begin`](Self::begin). Spans close in
    /// reverse order of opening.
    pub fn end(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(i), "spans must close innermost first");
        self.spans[i].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Add a span timed elsewhere (another thread) as a child of the
    /// innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.open.last().copied(),
        });
    }

    /// Recorded spans, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, sorted by name.
    pub fn layers(&self) -> Vec<LayerRow> {
        let selfs = self_times(&self.spans);
        let mut rows: BTreeMap<&str, LayerRow> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let row = rows.entry(&s.name).or_insert_with(|| LayerRow {
                name: s.name.clone(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += s.end_ns - s.start_ns;
            row.self_ns += self_ns;
        }
        rows.into_values().collect()
    }

    /// Chrome trace (`chrome://tracing`, Perfetto): one complete event per
    /// span, `args` carrying the span's index, parent and workload id.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{}\"}}}}",
                escape(&s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                escape(&self.workload),
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// One JSON line per span name: count, total and self nanoseconds.
    pub fn layers_jsonl(&self) -> String {
        self.layers()
            .iter()
            .map(|r| {
                format!(
                    "{{\"workload\":\"{}\",\"layer\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}\n",
                    escape(&self.workload),
                    escape(&r.name),
                    r.count,
                    r.total_ns,
                    r.self_ns
                )
            })
            .collect()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another (a
/// feeder and a collector thread), so the covered part is a union.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("iteration", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a: union is 10..60
            span("c", 90, 130, Some(0)), // clipped to the parent: 90..100
            span("leaf", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 8, 30, 40, 8]);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new("w", false);
        let id = log.begin("x");
        log.end(id);
        log.record("y", Instant::now(), Instant::now());
        assert!(log.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_layers_aggregate_by_name() {
        let mut log = SpanLog::new("w", true);
        let outer = log.begin("iteration");
        log.scope("layer", || ());
        log.scope("layer", || ());
        log.end(outer);
        let parents: Vec<Option<usize>> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        let layers = log.layers();
        assert_eq!(layers.len(), 2);
        assert_eq!((layers[1].name.as_str(), layers[1].count), ("layer", 2));
        assert!(layers[0].self_ns <= layers[0].total_ns);
        let trace = onepass_core::json::Json::parse(&log.chrome_trace_json()).expect("valid JSON");
        assert_eq!(
            trace
                .get("traceEvents")
                .and_then(|e| e.as_arr())
                .map(|e| e.len()),
            Some(3)
        );
        for line in log.layers_jsonl().lines() {
            onepass_core::json::Json::parse(line).expect("valid JSONL");
        }
    }
}
