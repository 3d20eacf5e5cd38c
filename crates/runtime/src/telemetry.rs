//! Stage-scoped live-metric handles over [`onepass_core::obs`].
//!
//! When [`EngineConfig::metrics`](crate::EngineConfig::metrics) carries a
//! [`MetricsRegistry`], the executor builds one [`StageTelemetry`] per
//! executed job (per plan stage), labeled `stage=<job name>`, and threads
//! its handles into the scheduler loop, the shuffle fabric, and the
//! reduce sinks. Without a registry nothing is built and every probe site
//! costs one `Option` branch — mirroring how tracing is gated.
//!
//! Metric names follow `onepass_<layer>_<name>` (see `DESIGN.md`
//! "Observability" for the full catalogue). Stages that share a job name
//! share label sets and therefore series; give stages distinct names when
//! that matters.

use std::time::Duration;

use onepass_core::metrics::Profile;
use onepass_core::obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::map_task::MapTaskStats;

/// Live-metric handles for one executing job / plan stage.
#[derive(Debug, Clone)]
pub(crate) struct StageTelemetry {
    registry: MetricsRegistry,
    stage: String,
    /// `onepass_stage_splits_total{stage}` — input splits known so far.
    pub splits_total: Gauge,
    /// `onepass_stage_splits_done{stage}` — splits with a winning attempt.
    pub splits_done: Gauge,
    /// `onepass_stage_progress_ratio{stage}` — done / total, 0..=1.
    pub progress: Gauge,
    /// `onepass_stage_stragglers_total{stage}` — speculative clones launched.
    pub stragglers: Counter,
    /// `onepass_stage_map_attempts_total{stage}` — attempts enqueued,
    /// including retries and clones.
    pub map_attempts: Counter,
    /// `onepass_stage_failed_attempts_total{stage}` — attempts that errored.
    pub failed_attempts: Counter,
    /// `onepass_engine_records_in_total{stage}` — map input records.
    pub records_in: Counter,
    /// `onepass_engine_records_out_total{stage}` — sink emissions.
    pub records_out: Counter,
    /// `onepass_engine_shuffle_bytes_total{stage}` — shuffled payload bytes.
    pub shuffle_bytes: Counter,
    /// `onepass_engine_shuffle_segments_total{stage}` — shuffle segments.
    pub shuffle_segments: Counter,
    /// `onepass_engine_backpressure_stalls_total{stage}` — sends that
    /// stalled on memory pressure (shuffle pushes and plan edges).
    pub backpressure_stalls: Counter,
    /// `onepass_engine_combine_ratio{stage}` — shuffled / emitted records
    /// per map task that shipped its own output (1.0 = combiner saved
    /// nothing).
    pub combine_ratio: Histogram,
    /// `onepass_innode_combine_ratio{stage}` — shuffled / absorbed records
    /// per combine-table flush: the ratio of every `HashCombine` task,
    /// whose attempts ship nothing themselves.
    pub innode_combine_ratio: Histogram,
    /// `onepass_plan_ttfa_seconds{stage}` — time to each partition's first
    /// final answer, measured against the job (or plan) clock.
    pub ttfa: Histogram,
}

impl StageTelemetry {
    /// Register (or re-attach to) the stage's metric set.
    pub fn new(registry: &MetricsRegistry, stage: &str) -> Self {
        let l: &[(&str, &str)] = &[("stage", stage)];
        StageTelemetry {
            splits_total: registry.gauge("onepass_stage_splits_total", l),
            splits_done: registry.gauge("onepass_stage_splits_done", l),
            progress: registry.gauge("onepass_stage_progress_ratio", l),
            stragglers: registry.counter("onepass_stage_stragglers_total", l),
            map_attempts: registry.counter("onepass_stage_map_attempts_total", l),
            failed_attempts: registry.counter("onepass_stage_failed_attempts_total", l),
            records_in: registry.counter("onepass_engine_records_in_total", l),
            records_out: registry.counter("onepass_engine_records_out_total", l),
            shuffle_bytes: registry.counter("onepass_engine_shuffle_bytes_total", l),
            shuffle_segments: registry.counter("onepass_engine_shuffle_segments_total", l),
            backpressure_stalls: registry.counter("onepass_engine_backpressure_stalls_total", l),
            combine_ratio: registry.histogram("onepass_engine_combine_ratio", l),
            innode_combine_ratio: registry.histogram("onepass_innode_combine_ratio", l),
            ttfa: registry.histogram("onepass_plan_ttfa_seconds", l),
            registry: registry.clone(),
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

    /// Fold a task profile into the per-phase busy-time counters
    /// (`onepass_engine_phase_micros_total{stage,side,phase}`).
    pub fn publish_profile(&self, side: &str, profile: &Profile) {
        for (phase, d) in profile.phases() {
            self.registry
                .counter(
                    "onepass_engine_phase_micros_total",
                    &[
                        ("phase", phase.label()),
                        ("side", side),
                        ("stage", &self.stage),
                    ],
                )
                .inc(d.as_micros() as u64);
        }
    }

    /// End-of-run governor state gauges.
    pub fn publish_governor(
        &self,
        rebalances: u64,
        sheds: u64,
        shed_bytes: u64,
        pool_high_water: u64,
    ) {
        let l: &[(&str, &str)] = &[("stage", &self.stage)];
        self.registry
            .gauge("onepass_governor_rebalances", l)
            .set(rebalances as f64);
        self.registry
            .gauge("onepass_governor_sheds", l)
            .set(sheds as f64);
        self.registry
            .gauge("onepass_governor_shed_bytes", l)
            .set(shed_bytes as f64);
        self.registry
            .gauge("onepass_governor_pool_high_water_bytes", l)
            .set(pool_high_water as f64);
    }

    /// End-of-run wall clock gauge (`onepass_job_wall_seconds{stage}`).
    pub fn publish_wall(&self, wall: Duration) {
        self.registry
            .gauge("onepass_job_wall_seconds", &[("stage", &self.stage)])
            .set(wall.as_secs_f64());
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
    ttfa_seen: bool,
}

impl SinkObs {
    const FLUSH_EVERY: u64 = 1024;

    /// Instruments for one partition of `telemetry`'s stage.
    pub fn new(telemetry: &StageTelemetry) -> Self {
        SinkObs {
            ttfa: telemetry.ttfa.clone(),
            records_out: telemetry.records_out.clone(),
            pending: 0,
            ttfa_seen: false,
        }
    }

    /// Record one sink emission at `at` since the job/plan clock.
    #[inline]
    pub fn on_emit(&mut self, is_final: bool, at: Duration) {
        self.pending += 1;
        if self.pending >= Self::FLUSH_EVERY {
            self.records_out.inc(self.pending);
            self.pending = 0;
        }
        if is_final && !self.ttfa_seen {
            self.ttfa_seen = true;
            self.ttfa.observe(at.as_secs_f64());
        }
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

    use onepass_core::obs::MetricsRegistry;
    use onepass_groupby::SumAgg;

    use crate::job::{JobSpec, MapEmitter, MapSideMode};
    use crate::map_task::Split;
    use crate::{Engine, EngineConfig};

    fn key_map(record: &[u8], out: &mut dyn MapEmitter) {
        out.emit(&record[..1], &1u64.to_le_bytes());
    }

    /// Ten records over three keys in each of four splits, counted.
    fn run(map_side: MapSideMode) -> MetricsRegistry {
        let job = JobSpec::builder("ratio")
            .map_fn(Arc::new(key_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(2)
            .map_side(map_side)
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

    /// A `HashCombine` attempt ships nothing itself, so it has no ratio of
    /// its own to observe: the per-task histogram must not record a 0.0
    /// for it. The table's flush observes the ratio that is true.
    #[test]
    fn attempts_folded_into_a_combine_table_observe_no_ratio_of_their_own() {
        let l: &[(&str, &str)] = &[("stage", "ratio")];
        let registry = run(MapSideMode::HashCombine);
        let per_task = registry
            .histogram("onepass_engine_combine_ratio", l)
            .snapshot();
        assert_eq!((per_task.count, per_task.sum), (0, 0.0));
        let per_flush = registry
            .histogram("onepass_innode_combine_ratio", l)
            .snapshot();
        assert!(per_flush.count > 0 && per_flush.sum > 0.0);

        // A task that ships its own output still observes 3 / 10.
        let registry = run(MapSideMode::SortSpill);
        let per_task = registry
            .histogram("onepass_engine_combine_ratio", l)
            .snapshot();
        assert_eq!(per_task.count, 4);
        assert!((per_task.sum - 4.0 * 0.3).abs() < 1e-9, "{}", per_task.sum);
    }
}
