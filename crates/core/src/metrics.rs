//! Phase-attributed timing and time series.
//!
//! The paper's methodology rests on attributing CPU time to *phases* of a
//! MapReduce job (map function vs sort in Table II; map / shuffle / merge /
//! reduce in the timelines) and on per-second resource samples (CPU
//! utilization, iowait, bytes read — Fig. 2–4). This module provides the
//! measurement vocabulary used across the workspace:
//!
//! * [`Phase`] — the canonical phase names.
//! * [`Stamp`] — the one way a phase is timed: two clock readings that
//!   become the task's [`Profile`] entry *and* its `phase` trace span.
//! * [`Profile`] — per-phase durations, mergeable across tasks/threads,
//!   published as `onepass_engine_phase_micros_total` by
//!   [`Profile::publish`].
//! * [`Series`] — an `(x, y)` time series with CSV emission, used by both
//!   the simulator samplers and the experiment drivers.
//!
//! On CPU attribution: engine phases are timed with monotonic wall clocks
//! around *compute-only* sections (sorting, hashing, user functions). In
//! those sections the thread is runnable and on-CPU, so wall time is a
//! faithful proxy for CPU seconds, matching the paper's `ps`-based
//! profiling granularity.

use std::time::{Duration, Instant};

use crate::obs::{names, MetricsRegistry};
use crate::trace::LocalTracer;

/// The word for "a phase": the category of every span a [`Stamp`] emits
/// and the label key of `onepass_engine_phase_micros_total`. A `phase`
/// span named `p` is, by construction, an interval of the profile's `p`.
pub const PHASE: &str = "phase";

/// Canonical phases of a MapReduce job, following the paper's timeline
/// plots (Fig. 2a: map, shuffle, merge, reduce) and Table II's map-phase
/// split (map function vs sorting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Reading/parsing input splits.
    Read,
    /// The user map function.
    MapFn,
    /// Map-side sort of the output buffer on (partition, key).
    MapSort,
    /// Map-side hash partition/group (the hash path's replacement for sort).
    MapHash,
    /// The combine function (map side or reduce side).
    Combine,
    /// Writing map output for fault tolerance.
    MapWrite,
    /// Transferring map output to reducers.
    Shuffle,
    /// Reduce-side multi-pass merge (sort-merge path) or bucket
    /// spill/reload (hash paths).
    Merge,
    /// Reduce-side grouping/state update work outside the user function.
    ReduceGroup,
    /// The user reduce function.
    ReduceFn,
    /// Writing final output.
    FinalWrite,
}

impl Phase {
    /// How many phases there are ([`Phase::all`]'s length).
    pub const COUNT: usize = Phase::FinalWrite as usize + 1;

    /// Short label for table output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Read => "read",
            Phase::MapFn => "map_fn",
            Phase::MapSort => "map_sort",
            Phase::MapHash => "map_hash",
            Phase::Combine => "combine",
            Phase::MapWrite => "map_write",
            Phase::Shuffle => "shuffle",
            Phase::Merge => "merge",
            Phase::ReduceGroup => "reduce_group",
            Phase::ReduceFn => "reduce_fn",
            Phase::FinalWrite => "final_write",
        }
    }

    /// All phases in canonical (declaration) order.
    pub fn all() -> &'static [Phase] {
        &[
            Phase::Read,
            Phase::MapFn,
            Phase::MapSort,
            Phase::MapHash,
            Phase::Combine,
            Phase::MapWrite,
            Phase::Shuffle,
            Phase::Merge,
            Phase::ReduceGroup,
            Phase::ReduceFn,
            Phase::FinalWrite,
        ]
    }
}

/// One timing of one phase. The clock is read once at [`Stamp::start`]
/// and once at [`Stamp::stop`]; those two readings are the interval added
/// to the task's [`Profile`] and, when the tracer is on, the [`PHASE`]
/// span — both events are recorded at `stop`, so an interval abandoned by
/// an early return leaves neither a profile entry nor an open span.
/// Stamps are per flush, per segment batch or per `finish`, never per
/// record, and do not nest (nested time would be charged twice).
#[derive(Debug)]
#[must_use = "a stamp records nothing until it is stopped"]
pub struct Stamp {
    phase: Phase,
    start: Instant,
}

impl Stamp {
    /// Start timing `phase` now.
    #[inline]
    pub fn start(phase: Phase) -> Stamp {
        Stamp {
            phase,
            start: Instant::now(),
        }
    }

    /// Stop now: charge the interval to `profile` and span it on `trace`.
    #[inline]
    pub fn stop(self, profile: &mut Profile, trace: &mut LocalTracer) {
        profile.record(self.phase, self.start, Instant::now(), trace);
    }
}

/// Per-phase durations for one task (or, after merging, a whole job).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Profile {
    /// Indexed by `Phase as usize`.
    phases: [Duration; Phase::COUNT],
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `[start, end]` to `phase` and emit the same two readings as
    /// a [`PHASE`] span on `trace`. [`Stamp`] is the usual way in.
    #[inline]
    pub fn record(&mut self, phase: Phase, start: Instant, end: Instant, trace: &mut LocalTracer) {
        self.phases[phase as usize] += end.saturating_duration_since(start);
        trace.span(phase.label(), PHASE, start, end);
    }

    /// Accumulated time for `phase`.
    pub fn time(&self, phase: Phase) -> Duration {
        self.phases[phase as usize]
    }

    /// Sum of all phase times.
    pub fn total_time(&self) -> Duration {
        self.phases.iter().sum()
    }

    /// Fold another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases) {
            *mine += theirs;
        }
    }

    /// Iterate phases with non-zero time, canonical order.
    pub fn phases(&self) -> impl Iterator<Item = (Phase, Duration)> + '_ {
        let nonzero = |&(_, d): &(Phase, Duration)| !d.is_zero();
        Phase::all()
            .iter()
            .copied()
            .zip(self.phases)
            .filter(nonzero)
    }

    /// Render as a JSON object: `{"phases":{label:secs,...}}`, the
    /// non-zero phases in seconds, in canonical order.
    pub fn to_json(&self) -> String {
        use crate::json::fmt_f64;
        let phases: Vec<String> = self
            .phases()
            .map(|(p, d)| format!("\"{}\":{}", p.label(), fmt_f64(d.as_secs_f64())))
            .collect();
        format!("{{\"phases\":{{{}}}}}", phases.join(","))
    }

    /// Add each non-zero phase, in microseconds, to its
    /// `onepass_engine_phase_micros_total{phase, ..labels}` counter.
    pub fn publish(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        for (phase, d) in self.phases() {
            phase_micros(registry, phase, labels).inc(d.as_micros() as u64);
        }
    }
}

/// The `onepass_engine_phase_micros_total` cell of `phase` under `labels`
/// (`stage`, `side`, and `source` for the simulator's mirror).
pub fn phase_micros(
    registry: &MetricsRegistry,
    phase: Phase,
    labels: &[(&str, &str)],
) -> crate::obs::Counter {
    let mut labels = labels.to_vec();
    labels.push((PHASE, phase.label()));
    registry.counter(names::ENGINE_PHASE_MICROS, &labels)
}

/// A named `(x, y)` series — simulator samples or sweep results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    /// Series name, used as the CSV header for the y column.
    pub name: String,
    /// The data points, in insertion order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create an empty series called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest y value (None when empty).
    pub fn max_y(&self) -> Option<f64> {
        self.points.iter().map(|&(_, y)| y).fold(None, |m, y| {
            Some(match m {
                None => y,
                Some(m) => m.max(y),
            })
        })
    }

    /// Mean of y over points whose x lies in `[x0, x1)`.
    pub fn mean_y_in(&self, x0: f64, x1: f64) -> Option<f64> {
        let ys: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(x, _)| x >= x0 && x < x1)
            .map(|&(_, y)| y)
            .collect();
        if ys.is_empty() {
            None
        } else {
            Some(ys.iter().sum::<f64>() / ys.len() as f64)
        }
    }

    /// Render as a JSON object `{"name":...,"points":[[x,y],...]}`.
    pub fn to_json(&self) -> String {
        use crate::json::{escape, fmt_f64};
        let mut s = format!("{{\"name\":\"{}\",\"points\":[", escape(&self.name));
        for (i, (x, y)) in self.points.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{},{}]", fmt_f64(*x), fmt_f64(*y)));
        }
        s.push_str("]}");
        s
    }

    /// Render as two-column CSV with header `x,<name>`.
    pub fn to_csv(&self) -> String {
        let mut s = format!("x,{}\n", self.name);
        for (x, y) in &self.points {
            s.push_str(&format!("{x},{y}\n"));
        }
        s
    }
}

/// Render several series sharing the same x-grid as one CSV table. Series
/// need not be aligned; missing cells are left empty.
pub fn series_to_csv(series: &[Series]) -> String {
    use std::collections::BTreeSet;
    let mut xs: BTreeSet<u64> = BTreeSet::new();
    for s in series {
        for (x, _) in &s.points {
            xs.insert(x.to_bits());
        }
    }
    let mut out = String::from("x");
    for s in series {
        out.push(',');
        out.push_str(&s.name);
    }
    out.push('\n');
    for xb in xs {
        let x = f64::from_bits(xb);
        out.push_str(&format!("{x}"));
        for s in series {
            out.push(',');
            if let Some(&(_, y)) = s.points.iter().find(|&&(px, _)| px.to_bits() == xb) {
                out.push_str(&format!("{y}"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A profile holding exactly `times`, stamped through the one door.
    fn profile(times: &[(Phase, Duration)]) -> Profile {
        let mut p = Profile::new();
        let t0 = Instant::now();
        for &(phase, d) in times {
            p.record(phase, t0, t0 + d, &mut LocalTracer::disabled());
        }
        p
    }

    #[test]
    fn profile_accumulates_and_merges() {
        let ms = Duration::from_millis;
        let mut a = profile(&[(Phase::MapFn, ms(100)), (Phase::MapFn, ms(50))]);
        let b = profile(&[(Phase::MapSort, ms(75))]);
        a.merge(&b);
        assert_eq!(a.time(Phase::MapFn), ms(150));
        assert_eq!(a.time(Phase::MapSort), ms(75));
        assert_eq!(a.time(Phase::Merge), Duration::ZERO);
        assert_eq!(a.total_time(), ms(225));
        let nonzero: Vec<Phase> = a.phases().map(|(p, _)| p).collect();
        assert_eq!(nonzero, [Phase::MapFn, Phase::MapSort]);
    }

    #[test]
    fn a_stamp_is_the_profile_entry_and_the_span() {
        use crate::trace::{complete_spans, Tracer, Track};
        let tracer = Tracer::enabled();
        let mut trace = tracer.local(Track::new("map", 0));
        let mut p = Profile::new();
        let t = Stamp::start(Phase::MapSort);
        // The sleep is the interval being measured, not a margin:
        // `thread::sleep` never returns early, so `>= 2 ms` below is the
        // monotonic clock's contract.
        std::thread::sleep(Duration::from_millis(2));
        t.stop(&mut p, &mut trace);
        // An abandoned stamp leaves nothing behind.
        let _ = Stamp::start(Phase::Merge);
        drop(trace);
        let spans = complete_spans(&tracer.drain()).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name, spans[0].cat), ("map_sort", PHASE));
        assert!(p.time(Phase::MapSort) >= Duration::from_millis(2));
        assert_eq!(spans[0].duration(), p.time(Phase::MapSort));
        assert_eq!(p.total_time(), p.time(Phase::MapSort));
    }

    #[test]
    fn series_statistics() {
        let mut s = Series::new("cpu");
        assert!(s.is_empty());
        assert_eq!(s.max_y(), None);
        s.push(0.0, 10.0);
        s.push(1.0, 30.0);
        s.push(2.0, 20.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.max_y(), Some(30.0));
        assert_eq!(s.mean_y_in(0.0, 3.0), Some(20.0));
        assert_eq!(s.mean_y_in(1.0, 3.0), Some(25.0));
        assert_eq!(s.mean_y_in(5.0, 6.0), None);
    }

    #[test]
    fn csv_rendering() {
        let mut s = Series::new("v");
        s.push(0.0, 1.5);
        s.push(1.0, 2.5);
        assert_eq!(s.to_csv(), "x,v\n0,1.5\n1,2.5\n");

        let mut t = Series::new("w");
        t.push(1.0, 9.0);
        let csv = series_to_csv(&[s, t]);
        assert!(csv.starts_with("x,v,w\n"));
        assert!(csv.contains("0,1.5,\n"));
        assert!(csv.contains("1,2.5,9\n"));
    }

    #[test]
    fn profile_and_series_render_canonical_json() {
        let p = profile(&[
            (Phase::Merge, Duration::from_micros(250)),
            (Phase::MapFn, Duration::from_millis(1500)),
        ]);
        assert_eq!(
            p.to_json(),
            "{\"phases\":{\"map_fn\":1.5,\"merge\":0.00025}}"
        );
        assert_eq!(Profile::new().to_json(), "{\"phases\":{}}");

        let mut s = Series::new("cpu \"busy\"");
        s.push(0.0, 10.5);
        s.push(1.0, -3.25);
        assert_eq!(
            s.to_json(),
            "{\"name\":\"cpu \\\"busy\\\"\",\"points\":[[0,10.5],[1,-3.25]]}"
        );
    }

    #[test]
    fn phase_labels_are_unique_and_indexed_in_canonical_order() {
        assert_eq!(Phase::all().len(), Phase::COUNT);
        for (i, p) in Phase::all().iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
        let mut labels: Vec<&str> = Phase::all().iter().map(|p| p.label()).collect();
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }
}
