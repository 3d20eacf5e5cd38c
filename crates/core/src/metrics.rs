//! Phase-attributed timing, counters and time series.
//!
//! The paper's methodology rests on attributing CPU time to *phases* of a
//! MapReduce job (map function vs sort in Table II; map / shuffle / merge /
//! reduce in the timelines) and on per-second resource samples (CPU
//! utilization, iowait, bytes read — Fig. 2–4). This module provides the
//! measurement vocabulary used across the workspace:
//!
//! * [`Phase`] — the canonical phase names.
//! * [`Profile`] — per-phase durations plus named counters, mergeable
//!   across tasks/threads.
//! * [`ScopedTimer`] — RAII accumulation into a profile.
//! * [`Series`] — an `(x, y)` time series with CSV emission, used by both
//!   the simulator samplers and the experiment drivers.
//!
//! On CPU attribution: engine phases are timed with monotonic wall clocks
//! around *compute-only* sections (sorting, hashing, user functions). In
//! those sections the thread is runnable and on-CPU, so wall time is a
//! faithful proxy for CPU seconds, matching the paper's `ps`-based
//! profiling granularity.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Canonical counter names for the memory-governor gauges, shared by the
/// engine profile counters, the JSONL report fields, and the trace
/// instants so dashboards key off one vocabulary.
pub mod gauges {
    /// A lease-limit raise granted by the governor (slack or reclaim).
    pub const MEM_REBALANCE: &str = "mem_rebalance";
    /// A shed request honoured by an operator (`GroupBy::shed`).
    pub const MEM_SHED: &str = "mem_shed";
    /// Bytes actually freed by honoured shed requests.
    pub const MEM_SHED_BYTES: &str = "mem_shed_bytes";
    /// Map-side shuffle pushes stalled by high-water backpressure.
    pub const BACKPRESSURE_STALLS: &str = "backpressure_stalls";
}

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

    /// All phases in canonical order.
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

/// Per-phase durations plus named counters for one task (or, after
/// merging, a whole job).
#[derive(Debug, Default, Clone)]
pub struct Profile {
    phases: BTreeMap<Phase, Duration>,
    counters: BTreeMap<Cow<'static, str>, u64>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `d` to `phase`'s accumulated time.
    pub fn add_time(&mut self, phase: Phase, d: Duration) {
        *self.phases.entry(phase).or_default() += d;
    }

    /// Accumulated time for `phase`.
    pub fn time(&self, phase: Phase) -> Duration {
        self.phases.get(&phase).copied().unwrap_or_default()
    }

    /// Sum of all phase times.
    pub fn total_time(&self) -> Duration {
        self.phases.values().copied().sum()
    }

    /// Increment counter `name` by `n`. Engine call sites pass string
    /// literals (no allocation); deserialized profiles carry owned names.
    pub fn add_count(&mut self, name: impl Into<Cow<'static, str>>, n: u64) {
        *self.counters.entry(name.into()).or_default() += n;
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (p, d) in &other.phases {
            *self.phases.entry(*p).or_default() += *d;
        }
        for (name, n) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += *n;
        }
    }

    /// Iterate phases with non-zero time, canonical order.
    pub fn phases(&self) -> impl Iterator<Item = (Phase, Duration)> + '_ {
        self.phases.iter().map(|(p, d)| (*p, *d))
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(n, v)| (n.as_ref(), *v))
    }

    /// Render as a JSON object: `{"phases":{label:secs,...},
    /// "counters":{name:value,...}}`. Phase times are emitted in seconds
    /// with all entries in canonical (label / name) order, so output is
    /// deterministic.
    pub fn to_json(&self) -> String {
        use crate::json::{escape, fmt_f64};
        let mut s = String::from("{\"phases\":{");
        for (i, (p, d)) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{}",
                escape(p.label()),
                fmt_f64(d.as_secs_f64())
            ));
        }
        s.push_str("},\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{v}", escape(name)));
        }
        s.push_str("}}");
        s
    }

    /// Start a scoped timer that accumulates into `phase` on drop.
    pub fn timed(&mut self, phase: Phase) -> ScopedTimer<'_> {
        ScopedTimer {
            profile: self,
            phase,
            start: Instant::now(),
        }
    }
}

/// RAII timer: adds the elapsed time to its phase when dropped.
#[derive(Debug)]
pub struct ScopedTimer<'a> {
    profile: &'a mut Profile,
    phase: Phase,
    start: Instant,
}

impl Drop for ScopedTimer<'_> {
    fn drop(&mut self) {
        let d = self.start.elapsed();
        self.profile.add_time(self.phase, d);
    }
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

    /// Mean of y values (None when empty).
    pub fn mean_y(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|&(_, y)| y).sum::<f64>() / self.points.len() as f64)
        }
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

    #[test]
    fn profile_accumulates_and_merges() {
        let mut a = Profile::new();
        a.add_time(Phase::MapFn, Duration::from_millis(100));
        a.add_time(Phase::MapFn, Duration::from_millis(50));
        a.add_count("records", 10);

        let mut b = Profile::new();
        b.add_time(Phase::MapSort, Duration::from_millis(75));
        b.add_count("records", 5);
        b.add_count("spills", 1);

        a.merge(&b);
        assert_eq!(a.time(Phase::MapFn), Duration::from_millis(150));
        assert_eq!(a.time(Phase::MapSort), Duration::from_millis(75));
        assert_eq!(a.total_time(), Duration::from_millis(225));
        assert_eq!(a.count("records"), 15);
        assert_eq!(a.count("spills"), 1);
        assert_eq!(a.count("missing"), 0);
    }

    #[test]
    fn scoped_timer_records_elapsed() {
        let mut p = Profile::new();
        {
            let _t = p.timed(Phase::MapSort);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(p.time(Phase::MapSort) >= Duration::from_millis(4));
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
        assert_eq!(s.mean_y(), Some(20.0));
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
        let mut p = Profile::new();
        p.add_time(Phase::Merge, Duration::from_micros(250));
        p.add_time(Phase::MapFn, Duration::from_millis(1500));
        p.add_count("spills", 3);
        p.add_count("records", 12345);
        assert_eq!(
            p.to_json(),
            "{\"phases\":{\"map_fn\":1.5,\"merge\":0.00025},\
             \"counters\":{\"records\":12345,\"spills\":3}}"
        );
        assert_eq!(Profile::new().to_json(), "{\"phases\":{},\"counters\":{}}");

        let mut s = Series::new("cpu \"busy\"");
        s.push(0.0, 10.5);
        s.push(1.0, -3.25);
        assert_eq!(
            s.to_json(),
            "{\"name\":\"cpu \\\"busy\\\"\",\"points\":[[0,10.5],[1,-3.25]]}"
        );
    }

    #[test]
    fn phase_labels_are_unique() {
        let mut labels: Vec<&str> = Phase::all().iter().map(|p| p.label()).collect();
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }
}
