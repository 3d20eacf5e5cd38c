//! Simulation reports: completion time, volume totals, and the per-second
//! series behind every figure panel.

use onepass_core::json::{escape, fmt_f64};
use onepass_core::metrics::{phase_micros, Phase, Series};
use onepass_core::obs::names;

use crate::engine::{to_secs, SimTime};
use crate::mapreduce::SimJobSpec;
use crate::sampler::{Counter, Gauge, Sampler};

/// All per-second series a figure might plot.
#[derive(Debug, Clone, Default)]
pub struct SimSeries {
    /// Running map tasks.
    pub map_tasks: Series,
    /// Reducers still awaiting map data.
    pub shuffle_tasks: Series,
    /// Active background/multi-pass merges.
    pub merge_tasks: Series,
    /// Reducers in final merge + reduce.
    pub reduce_tasks: Series,
    /// CPU utilization, percent of total cores (Fig. 2b/e/f, 4a).
    pub cpu_util_pct: Series,
    /// CPU iowait, percent of total cores (Fig. 2c, 4b).
    pub iowait_pct: Series,
    /// Disk MB read per second, cluster-wide (Fig. 2d).
    pub disk_read_mb: Series,
    /// Disk MB written per second, cluster-wide.
    pub disk_write_mb: Series,
    /// Network MB per second, cluster-wide.
    pub net_mb: Series,
}

/// Attempt-level accounting for a simulated run — the analogue of the
/// engine `JobReport`'s attempt fields. All zero on a clean run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Map attempts launched, including retries and speculative clones
    /// (equals `map_tasks` on a clean run).
    pub map_attempts: usize,
    /// Injected failures that triggered a re-execution (map + reduce).
    pub retries: usize,
    /// Speculative clones launched against stragglers.
    pub speculative_launched: usize,
    /// Clones that committed before the original attempt.
    pub speculative_wins: usize,
}

/// Result of one simulated job.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// System simulated.
    pub system: &'static str,
    /// Storage configuration label.
    pub storage: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Completion time, seconds.
    pub completion_secs: f64,
    /// Map tasks executed.
    pub map_tasks: usize,
    /// Reduce tasks executed.
    pub reduce_tasks: usize,
    /// Input volume, MB.
    pub input_mb: f64,
    /// Map output volume, MB.
    pub map_output_mb: f64,
    /// Reducer spill writes (initial spills + cold spills), MB.
    pub spill_written_mb: f64,
    /// Multi-pass merge re-reads, MB.
    pub merge_read_mb: f64,
    /// Multi-pass merge re-writes, MB.
    pub merge_written_mb: f64,
    /// Final output volume, MB.
    pub output_mb: f64,
    /// HOP snapshots taken.
    pub snapshots: u64,
    /// Events processed (determinism checks).
    pub events: u64,
    /// Fraction of map tasks that read their block from a local disk
    /// (1.0 under perfect locality; 0.0 under the separated
    /// architecture).
    pub local_map_fraction: f64,
    /// Total cores (for utilization scaling).
    pub total_cores: usize,
    /// Attempt-level fault-tolerance counters.
    pub faults: FaultCounters,
    /// The figure series.
    pub series: SimSeries,
}

impl SimReport {
    /// The report of a run of `spec` before it starts: the volumes the
    /// spec fixes, every total at zero for the run to add to.
    pub(crate) fn start(spec: &SimJobSpec) -> SimReport {
        let w = &spec.workload;
        SimReport {
            system: spec.system.label(),
            storage: spec.cluster.storage.label(),
            workload: w.name,
            map_tasks: w.map_tasks(spec.cluster.block_mb),
            reduce_tasks: w.reducers,
            input_mb: w.input_mb,
            map_output_mb: w.input_mb * w.map_output_ratio,
            output_mb: w.input_mb * w.output_ratio,
            total_cores: spec.cluster.total_cores(),
            ..SimReport::default()
        }
    }

    /// Close the report of a run that ended at `end`: its completion
    /// time and the figure series `sampler` collected.
    pub(crate) fn finish(mut self, end: SimTime, sampler: &mut Sampler) -> SimReport {
        let total_cores = self.total_cores as f64;
        let busy = sampler.gauge_series(Gauge::BusyCores, end);
        let outstanding = sampler.gauge_series(Gauge::DiskOutstanding, end);

        let mut cpu_util_pct = Series::new("cpu_util_pct");
        let mut iowait_pct = Series::new("iowait_pct");
        for (&(x, b), &(_, o)) in busy.points.iter().zip(&outstanding.points) {
            let util = (b / total_cores * 100.0).min(100.0);
            cpu_util_pct.push(x, util);
            // iowait: idle cores that could run if pending disk requests
            // completed — min(idle, outstanding I/O) / cores, as a %.
            let idle = (total_cores - b).max(0.0);
            iowait_pct.push(x, (o.min(idle) / total_cores * 100.0).min(100.0));
        }

        self.series = SimSeries {
            map_tasks: sampler.gauge_series(Gauge::MapTasks, end),
            shuffle_tasks: sampler.gauge_series(Gauge::ShuffleTasks, end),
            merge_tasks: sampler.gauge_series(Gauge::MergeTasks, end),
            reduce_tasks: sampler.gauge_series(Gauge::ReduceTasks, end),
            cpu_util_pct,
            iowait_pct,
            disk_read_mb: sampler.counter_series(Counter::DiskReadMb),
            disk_write_mb: sampler.counter_series(Counter::DiskWriteMb),
            net_mb: sampler.counter_series(Counter::NetMb),
        };
        self.completion_secs = to_secs(end);
        self
    }

    /// One JSONL line summarizing the run — the simulator analogue of
    /// `JobReport::to_jsonl` (the sim report has no per-task spans; use
    /// [`crate::mapreduce::run_sim_job_traced`] for task-level detail).
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"type\":\"job\",\"system\":\"{}\",\"storage\":\"{}\",\"workload\":\"{}\",\
             \"completion_s\":{},\"map_tasks\":{},\"reduce_tasks\":{},\"input_mb\":{},\
             \"map_output_mb\":{},\"spill_written_mb\":{},\"merge_read_mb\":{},\
             \"merge_written_mb\":{},\"output_mb\":{},\"snapshots\":{},\"events\":{},\
             \"local_map_fraction\":{},\"map_attempts\":{},\"retries\":{},\
             \"speculative_launched\":{},\"speculative_wins\":{}}}\n",
            escape(self.system),
            escape(self.storage),
            escape(self.workload),
            fmt_f64(self.completion_secs),
            self.map_tasks,
            self.reduce_tasks,
            fmt_f64(self.input_mb),
            fmt_f64(self.map_output_mb),
            fmt_f64(self.spill_written_mb),
            fmt_f64(self.merge_read_mb),
            fmt_f64(self.merge_written_mb),
            fmt_f64(self.output_mb),
            self.snapshots,
            self.events,
            fmt_f64(self.local_map_fraction),
            self.faults.map_attempts,
            self.faults.retries,
            self.faults.speculative_launched,
            self.faults.speculative_wins,
        )
    }

    /// Mirror this run into a live-metrics registry under the *same*
    /// metric names the real engine publishes, labeled `source="sim"`
    /// (plus `stage=<workload>`), so a dashboard can join predicted and
    /// actual series on metric name alone.
    ///
    /// Phase busy time is approximated from the task-count series: the
    /// integral of "tasks running" over the run is task-seconds of busy
    /// time in that phase, folded onto the nearest engine phase label.
    pub fn publish_metrics(&self, registry: &onepass_core::obs::MetricsRegistry) {
        let l: &[(&str, &str)] = &[("source", "sim"), ("stage", self.workload)];
        let gauge = |name, v: f64| registry.gauge(name, l).set(v);
        let counter = |name, v: u64| registry.counter(name, l).inc(v);
        gauge(names::STAGE_SPLITS_TOTAL, self.map_tasks as f64);
        gauge(names::STAGE_SPLITS_DONE, self.map_tasks as f64);
        gauge(names::STAGE_PROGRESS_RATIO, 1.0);
        counter(names::STAGE_MAP_ATTEMPTS, self.faults.map_attempts as u64);
        counter(names::STAGE_FAILED_ATTEMPTS, self.faults.retries as u64);
        counter(
            names::STAGE_STRAGGLERS,
            self.faults.speculative_launched as u64,
        );
        counter(
            names::ENGINE_SHUFFLE_BYTES,
            (self.map_output_mb * 1048576.0) as u64,
        );
        gauge(names::JOB_WALL_SECONDS, self.completion_secs);

        // ∫ tasks dt ≈ mean concurrency × duration = task-seconds busy.
        let busy = |s: &Series| {
            s.mean_y_in(0.0, self.completion_secs).unwrap_or(0.0) * self.completion_secs
        };
        let phases: [(Phase, &str, f64); 4] = [
            (Phase::MapFn, "map", busy(&self.series.map_tasks)),
            (Phase::Shuffle, "reduce", busy(&self.series.shuffle_tasks)),
            (Phase::Merge, "reduce", busy(&self.series.merge_tasks)),
            (Phase::ReduceFn, "reduce", busy(&self.series.reduce_tasks)),
        ];
        for (phase, side, secs) in phases {
            let labels = [("side", side), ("source", "sim"), ("stage", self.workload)];
            phase_micros(registry, phase, &labels).inc((secs * 1e6) as u64);
        }
    }

    /// Total reduce-side spill volume including multi-pass rewrites —
    /// the Table I "Reduce spill data" analogue.
    pub fn reduce_spill_total_mb(&self) -> f64 {
        self.spill_written_mb + self.merge_written_mb
    }

    /// Intermediate/input ratio as Table I computes it:
    /// (map output + reduce spill) / input.
    pub fn intermediate_ratio(&self) -> f64 {
        (self.map_output_mb + self.reduce_spill_total_mb()) / self.input_mb
    }

    /// Mean CPU utilization (%) over a window of the run, expressed in
    /// fractions of completion time. Used by tests to detect the
    /// mid-job utilization valley.
    pub fn mean_cpu_util(&self, from_frac: f64, to_frac: f64) -> f64 {
        self.series
            .cpu_util_pct
            .mean_y_in(
                from_frac * self.completion_secs,
                to_frac * self.completion_secs,
            )
            .unwrap_or(0.0)
    }

    /// Mean iowait (%) over a window (fractions of completion time).
    pub fn mean_iowait(&self, from_frac: f64, to_frac: f64) -> f64 {
        self.series
            .iowait_pct
            .mean_y_in(
                from_frac * self.completion_secs,
                to_frac * self.completion_secs,
            )
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterSpec, StorageConfig};
    use crate::mapreduce::{run_sim_job, SystemType};
    use crate::model::WorkloadProfile;

    fn report() -> SimReport {
        run_sim_job(SimJobSpec::new(
            SystemType::StockHadoop,
            ClusterSpec::paper_cluster(StorageConfig::SingleHdd),
            WorkloadProfile::sessionization().scaled(0.01),
        ))
    }

    #[test]
    fn ratios_are_consistent() {
        let r = report();
        assert!(
            r.intermediate_ratio() > 1.0,
            "sessionization is write-heavy"
        );
        assert!(r.reduce_spill_total_mb() >= r.spill_written_mb);
    }

    #[test]
    fn series_are_time_aligned() {
        let r = report();
        let n = r.series.cpu_util_pct.len();
        assert!(n > 0);
        assert_eq!(r.series.iowait_pct.len(), n);
        for &(_, y) in &r.series.cpu_util_pct.points {
            assert!((0.0..=100.0).contains(&y));
        }
        for &(_, y) in &r.series.iowait_pct.points {
            assert!((0.0..=100.0).contains(&y));
        }
    }

    #[test]
    fn jsonl_line_parses_and_matches_report() {
        use onepass_core::json::Json;
        let r = report();
        let line = r.to_jsonl();
        assert!(line.ends_with('\n'));
        let doc = Json::parse(line.trim()).expect("valid JSON line");
        assert_eq!(doc.get("type").and_then(Json::as_str), Some("job"));
        assert_eq!(doc.get("system").and_then(Json::as_str), Some(r.system));
        assert_eq!(
            doc.get("completion_s").and_then(Json::as_f64),
            Some(r.completion_secs)
        );
        assert_eq!(
            doc.get("map_tasks").and_then(Json::as_f64),
            Some(r.map_tasks as f64)
        );
    }

    #[test]
    fn utilization_window_helpers() {
        let r = report();
        let early = r.mean_cpu_util(0.0, 0.3);
        assert!(early > 0.0, "map phase should show CPU activity");
        assert_eq!(r.mean_cpu_util(2.0, 3.0), 0.0, "beyond the run is empty");
    }

    #[test]
    fn publish_metrics_mirrors_engine_names_with_sim_label() {
        use onepass_core::metrics::PHASE;
        use onepass_core::obs::{MetricsRegistry, SampleValue};
        let r = report();
        let registry = MetricsRegistry::new();
        r.publish_metrics(&registry);
        let snap = registry.snapshot();
        let labels: &[(&str, &str)] = &[("source", "sim"), ("stage", r.workload)];
        let splits = snap
            .find(names::STAGE_SPLITS_TOTAL, labels)
            .expect("sim mirror registered under the engine's metric name");
        match splits.value {
            SampleValue::Gauge(v) => assert_eq!(v, r.map_tasks as f64),
            ref other => panic!("expected gauge, got {other:?}"),
        }
        let wall = snap
            .find(names::JOB_WALL_SECONDS, labels)
            .expect("wall gauge");
        match wall.value {
            SampleValue::Gauge(v) => assert!((v - r.completion_secs).abs() < 1e-9),
            ref other => panic!("expected gauge, got {other:?}"),
        }
        // Map busy time (task-seconds) is strictly positive on any run.
        let map_busy = snap
            .metrics
            .iter()
            .find(|m| {
                m.name == names::ENGINE_PHASE_MICROS
                    && m.labels
                        .iter()
                        .any(|(k, v)| k == PHASE && v == Phase::MapFn.label())
            })
            .expect("map phase mirror");
        match map_busy.value {
            SampleValue::Counter(v) => assert!(v > 0, "map task-seconds must be nonzero"),
            ref other => panic!("expected counter, got {other:?}"),
        }
    }
}
