//! Stage-scoped live-metric handles over [`onepass_core::obs`].
//!
//! The executor builds one [`StageTelemetry`] per executed job (per plan
//! stage), labeled `stage=<job name>`, and threads its handles into the
//! scheduler loop, the shuffle fabric, and the reduce sinks. The gating
//! rule is the workspace's one rule: handles are always present, minted
//! through [`Counter::of`] and its siblings — the cells of
//! [`EngineConfig::metrics`](crate::EngineConfig::metrics)'s registry
//! when there is one, detached cells when metrics are off — so no probe
//! site branches on an `Option`. Only the families whose label sets are
//! not known up front (`phase` here, `tenant` in `serve`) need the
//! registry itself, and skip the publication without one.
//!
//! Names are minted in [`onepass_core::obs::names`] (see `DESIGN.md`
//! "Observability" for the catalogue). Stages that share a job name share
//! label sets and therefore series; give stages distinct names when that
//! matters.

use std::time::Duration;

use onepass_core::metrics::Profile;
use onepass_core::obs::{names, Counter, Gauge, Histogram, MetricsRegistry};

use crate::map_task::MapTaskStats;
use crate::report::JobReport;

/// Live-metric handles for one executing job / plan stage; each field is
/// the [`names`] constant of the same name, labeled `{stage}`.
#[derive(Debug, Clone)]
pub(crate) struct StageTelemetry {
    registry: Option<MetricsRegistry>,
    stage: String,
    splits_total: Gauge,
    splits_done: Gauge,
    progress: Gauge,
    pub map_attempts: Counter,
    pub failed_attempts: Counter,
    records_in: Counter,
    records_out: Counter,
    pub shuffle_bytes: Counter,
    pub shuffle_segments: Counter,
    combine_ratio: Histogram,
    pub innode_combine_ratio: Histogram,
    ttfa: Histogram,
}

impl StageTelemetry {
    /// Register (or re-attach to) the stage's metric set in `registry`;
    /// without one every handle is a detached cell.
    pub fn new(registry: Option<&MetricsRegistry>, stage: &str) -> Self {
        let l: &[(&str, &str)] = &[("stage", stage)];
        let counter = |name| Counter::of(registry, name, l);
        let gauge = |name| Gauge::of(registry, name, l);
        let histogram = |name| Histogram::of(registry, name, l);
        StageTelemetry {
            splits_total: gauge(names::STAGE_SPLITS_TOTAL),
            splits_done: gauge(names::STAGE_SPLITS_DONE),
            progress: gauge(names::STAGE_PROGRESS_RATIO),
            map_attempts: counter(names::STAGE_MAP_ATTEMPTS),
            failed_attempts: counter(names::STAGE_FAILED_ATTEMPTS),
            records_in: counter(names::ENGINE_RECORDS_IN),
            records_out: counter(names::ENGINE_RECORDS_OUT),
            shuffle_bytes: counter(names::ENGINE_SHUFFLE_BYTES),
            shuffle_segments: counter(names::ENGINE_SHUFFLE_SEGMENTS),
            combine_ratio: histogram(names::ENGINE_COMBINE_RATIO),
            innode_combine_ratio: histogram(names::INNODE_COMBINE_RATIO),
            ttfa: histogram(names::PLAN_TTFA_SECONDS),
            registry: registry.cloned(),
            stage: stage.to_string(),
        }
    }

    /// Update the progress gauges after a completion or new-split event.
    pub fn set_progress(&self, done: usize, total: usize) {
        self.splits_done.set(done as f64);
        self.splits_total.set(total as f64);
        if total > 0 {
            self.progress.set(done as f64 / total as f64);
        }
    }

    /// Publish one finished map attempt's stats — called live from the
    /// scheduler loop as each task completes, not at end of job.
    pub fn on_map_finished(&self, stats: &MapTaskStats) {
        self.records_in.inc(stats.input_records);
        // An attempt that never flushed shipped nothing itself (empty, or
        // folded into a combine table whose flush observes the true ratio).
        if stats.flushes > 0 {
            self.combine_ratio
                .observe(stats.shuffled_records as f64 / stats.output_records as f64);
        }
        self.publish_profile("map", &stats.profile);
    }

    /// Fold a finished task's profile into the per-phase busy-time
    /// counters (`onepass_engine_phase_micros_total{stage,side,phase}`).
    pub fn publish_profile(&self, side: &str, profile: &Profile) {
        if let Some(registry) = &self.registry {
            profile.publish(registry, &[("side", side), ("stage", &self.stage)]);
        }
    }

    /// End of run: the gauge that restates the finished job's wall clock.
    pub fn publish_report(&self, report: &JobReport) {
        if let Some(registry) = &self.registry {
            let l: &[(&str, &str)] = &[("stage", &self.stage)];
            let wall = registry.gauge(names::JOB_WALL_SECONDS, l);
            wall.set(report.wall.as_secs_f64());
        }
    }
}

/// Buffered sink-side instruments for one reduce partition.
///
/// Emission counting stays a local `u64`, flushed to the shared atomic
/// every [`Self::FLUSH_EVERY`] emissions (and once at end of task via
/// [`flush`](Self::flush)), so the per-record hot path costs no atomics
/// — the <2% overhead budget enforced by `bench_metrics_overhead`.
#[derive(Debug)]
pub(crate) struct SinkObs {
    ttfa: Histogram,
    records_out: Counter,
    pending: u64,
}

impl SinkObs {
    const FLUSH_EVERY: u64 = 1024;

    /// Instruments for one partition of `telemetry`'s stage.
    pub fn new(telemetry: &StageTelemetry) -> Self {
        SinkObs {
            ttfa: telemetry.ttfa.clone(),
            records_out: telemetry.records_out.clone(),
            pending: 0,
        }
    }

    /// Count one sink emission.
    #[inline]
    pub fn count(&mut self) {
        self.pending += 1;
        if self.pending >= Self::FLUSH_EVERY {
            self.records_out.inc(self.pending);
            self.pending = 0;
        }
    }

    /// The partition's first final answer went out `at` after the
    /// job/plan clock started.
    pub fn first_final(&mut self, at: Duration) {
        self.ttfa.observe(at.as_secs_f64());
    }

    /// Flush the locally-buffered emission count to the shared counter.
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.records_out.inc(self.pending);
            self.pending = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use onepass_core::obs::{names, MetricsRegistry};
    use onepass_groupby::SumAgg;

    use crate::job::{JobSpec, MapEmitter, ReduceBackend};
    use crate::map_task::Split;
    use crate::{Engine, EngineConfig};

    fn key_map(record: &[u8], out: &mut dyn MapEmitter) {
        out.emit(&record[..1], &1u64.to_le_bytes());
    }

    /// Ten records over three keys in each of four splits, counted.
    fn run(backend: ReduceBackend) -> MetricsRegistry {
        let job = JobSpec::builder("ratio")
            .map_fn(Arc::new(key_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(2)
            .backend(backend)
            .build()
            .unwrap();
        let splits = (0..4)
            .map(|_| Split::new((0..10u8).map(|i| vec![b'a' + i % 3]).collect()))
            .collect();
        let registry = MetricsRegistry::new();
        let cfg = EngineConfig::builder().metrics(registry.clone()).build();
        Engine::with_config(cfg).run(&job, splits).unwrap();
        registry
    }

    /// A combining hash attempt ships nothing itself, so it has no ratio of
    /// its own to observe: the per-task histogram must not record a 0.0
    /// for it. The table's flush observes the ratio that is true.
    #[test]
    fn attempts_folded_into_a_combine_table_observe_no_ratio_of_their_own() {
        let l: &[(&str, &str)] = &[("stage", "ratio")];
        let registry = run(ReduceBackend::FreqHash);
        let per_task = registry
            .histogram(names::ENGINE_COMBINE_RATIO, l)
            .snapshot();
        assert_eq!((per_task.count, per_task.sum), (0, 0.0));
        let per_flush = registry
            .histogram(names::INNODE_COMBINE_RATIO, l)
            .snapshot();
        assert!(per_flush.count > 0 && per_flush.sum > 0.0);

        // A task that ships its own output still observes 3 / 10.
        let registry = run(ReduceBackend::SortMerge { snapshots: false });
        let per_task = registry
            .histogram(names::ENGINE_COMBINE_RATIO, l)
            .snapshot();
        assert_eq!(per_task.count, 4);
        assert!((per_task.sum - 4.0 * 0.3).abs() < 1e-9, "{}", per_task.sum);
    }
}
