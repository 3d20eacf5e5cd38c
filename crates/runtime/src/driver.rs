//! The engine facade: public configuration types ([`EngineConfig`] and
//! friends) and the [`Engine`] entry point. The actual machinery lives in
//! two focused layers: `scheduler` (task queues, retries) and `executor` (worker pools, shuffle wiring,
//! shared spill services, report assembly). Thread fan-out uses
//! crossbeam scoped threads; all inter-task communication is
//! channel-based (no shared mutable state beyond the spill stores' atomic
//! counters).
//!
//! # Fault tolerance
//!
//! The driver gives every map and reduce execution an **attempt id** and
//! implements the recovery loop the paper's Hadoop baseline pays its
//! map-output persistence tax for (§II-A):
//!
//! * **Retries.** A failed attempt (an `Err` from a spill store, a panic
//!   in a user map function, or an injected [`FaultPlan`] fault) is
//!   re-executed with a fresh attempt id, up to
//!   [`EngineConfig::max_attempts`].
//! * **Attempt-aware shuffle.** Reducers commit exactly one attempt per
//!   map task (the first whose `MapDone` arrives), so retried attempts
//!   never double-count records (see [`crate::shuffle`]).
//!
//! When retries are exhausted the driver cancels all outstanding
//! attempts, broadcasts [`ShuffleMsg::Abort`](crate::shuffle::ShuffleMsg)
//! so reducers unblock, and returns the original error — it never hangs.

use std::time::Instant;

use onepass_core::error::Result;
use onepass_core::fault::{FaultInjector, FaultPlan};
use onepass_core::trace::Tracer;

use crate::executor;
use crate::job::JobSpec;
use crate::map_task::Split;
use crate::report::JobReport;
use crate::scheduler::SplitFeed;
use crate::transport::Transport;

/// Where spill runs live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillBackend {
    /// In-memory runs: exact I/O accounting without filesystem traffic.
    /// The default — deterministic and fast for tests and CPU studies.
    Memory,
    /// Real temp files with buffered I/O — for experiments that should
    /// touch disk.
    TempFiles,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Concurrent map workers (task slots). Defaults to the machine's
    /// available parallelism (min 2), capped at 4.
    pub map_workers: usize,
    /// Spill-run backend. Default memory.
    pub spill: SpillBackend,
    /// Trace collection point. Default disabled: every probe site in the
    /// engine then costs a single branch. Hand in [`Tracer::enabled`] and
    /// drain it after [`Engine::run`] to get the event stream.
    pub tracer: Tracer,
    /// Attempts allowed per task, the first included: the retry budget
    /// for failed attempts, retried at once. Must be at least 1; the
    /// default 1 means a single failure fails the job.
    pub max_attempts: usize,
    /// Planned fault schedule for recovery testing. Default inert.
    pub faults: FaultInjector,
    /// Live-metrics registry. `None` (default) builds no instruments:
    /// every probe site then costs one branch, exactly like the disabled
    /// tracer. Hand in a registry (shared with a
    /// [`MetricsSampler`](onepass_core::obs::MetricsSampler) or
    /// [`MetricsServer`](onepass_core::obs::MetricsServer)) to get live
    /// per-stage progress, phase cost, shuffle volume, and TTFA metrics.
    pub metrics: Option<onepass_core::obs::MetricsRegistry>,
    /// Executor/shuffle transport. [`Transport::InProc`] (default) runs
    /// map and reduce tasks on in-process worker threads over the
    /// zero-copy channel fabric. [`Transport::Tcp`] places map tasks on
    /// external worker processes (`onepass worker --listen ADDR`) and
    /// reduces in this process; each job must be registered by name in
    /// every worker's [`JobRegistry`](crate::transport::JobRegistry). See
    /// [`crate::transport`] for the framing, heartbeat, and recovery
    /// semantics.
    pub transport: Transport,
}

/// Map task slots sized to the machine: one per hardware thread, floored
/// at 2 (so map attempts overlap one another on the shuffle even on a
/// one-thread machine) and capped
/// at 4 (more slots than that just thrash worker combine tables on the
/// small inputs this engine targets).
fn default_map_workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4))
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            map_workers: default_map_workers(),
            spill: SpillBackend::Memory,
            tracer: Tracer::disabled(),
            max_attempts: 1,
            faults: FaultInjector::none(),
            metrics: None,
            transport: Transport::default(),
        }
    }
}

impl EngineConfig {
    /// Fluent builder over the default configuration.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }
}

/// Builder for [`EngineConfig`].
#[derive(Debug, Default)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Concurrent map workers (task slots).
    pub fn map_workers(mut self, n: usize) -> Self {
        self.cfg.map_workers = n;
        self
    }

    /// Spill-run backend.
    pub fn spill(mut self, spill: SpillBackend) -> Self {
        self.cfg.spill = spill;
        self
    }

    /// Trace collection point.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.cfg.tracer = tracer;
        self
    }

    /// Attempts allowed per task, the first included (floored at 1).
    pub fn max_attempts(mut self, n: usize) -> Self {
        self.cfg.max_attempts = n.max(1);
        self
    }

    /// Install a planned fault schedule.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan.into_injector();
        self
    }

    /// Publish live metrics into `registry` while jobs run.
    pub fn metrics(mut self, registry: onepass_core::obs::MetricsRegistry) -> Self {
        self.cfg.metrics = Some(registry);
        self
    }

    /// Executor/shuffle transport (in-proc fabric or TCP worker fleet).
    pub fn transport(mut self, transport: Transport) -> Self {
        self.cfg.transport = transport;
        self
    }

    /// Finalize the configuration.
    pub fn build(self) -> EngineConfig {
        self.cfg
    }
}

/// The MapReduce engine.
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Engine with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// The engine's configuration (used by the plan layer to run stages
    /// through the shared executor).
    pub(crate) fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Run `job` over `splits` (one map task per split) and return the
    /// report.
    pub fn run(&self, job: &JobSpec, splits: Vec<Split>) -> Result<JobReport> {
        executor::execute(executor::ExecParams {
            config: &self.config,
            job,
            feed: SplitFeed::Fixed(splits),
            clock: Instant::now(),
            tap: None,
            partition_output: false,
            track_offset: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{MapEmitter, ReduceBackend};
    use crate::report::TaskKind;
    use onepass_core::error::Error;
    use onepass_groupby::{Aggregator, EmitKind, ListAgg, SumAgg};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn word_map(record: &[u8], out: &mut dyn MapEmitter) {
        for w in record.split(|&b| b == b' ') {
            if !w.is_empty() {
                out.emit(w, &1u64.to_le_bytes());
            }
        }
    }

    fn splits(lines: &[&str], per_split: usize) -> Vec<Split> {
        lines
            .chunks(per_split)
            .map(|c| Split::new(c.iter().map(|l| l.as_bytes().to_vec()).collect()))
            .collect()
    }

    fn final_counts(report: &JobReport) -> BTreeMap<String, u64> {
        finals_by(report, |v| u64::from_le_bytes(v.try_into().unwrap()))
    }

    fn finals_by(report: &JobReport, count: fn(&[u8]) -> u64) -> BTreeMap<String, u64> {
        report
            .outputs
            .iter()
            .filter(|o| o.kind == EmitKind::Final)
            .map(|o| (String::from_utf8(o.key.clone()).unwrap(), count(&o.value)))
            .collect()
    }

    fn expected() -> BTreeMap<String, u64> {
        [("a", 4u64), ("b", 3), ("c", 2), ("d", 1)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    fn input() -> Vec<Split> {
        splits(&["a b a", "c b", "a d c", "b a"], 2)
    }

    fn wc_job(reducers: usize) -> JobSpec {
        JobSpec::builder("wc")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(reducers)
            .build()
            .unwrap()
    }

    #[test]
    fn hadoop_pipeline_end_to_end() {
        let job = JobSpec::builder("wc")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(3)
            .preset_hadoop()
            .build()
            .unwrap();
        let report = Engine::new().run(&job, input()).unwrap();
        assert_eq!(final_counts(&report), expected());
        assert_eq!(report.map_tasks, 2);
        assert_eq!(report.reduce_tasks, 3);
        assert_eq!(report.input_records, 4);
        assert_eq!(report.map_output_records, 10);
        assert_eq!(report.early_emits, 0, "stock Hadoop has no early output");
        assert!(report.map_write_io.bytes_written > 0);
        assert_eq!(report.map_attempts, 2, "no retries on a clean run");
        assert_eq!(report.reduce_attempts, 3);
        assert_eq!(report.failed_attempts, 0);
    }

    #[test]
    fn onepass_pipeline_end_to_end() {
        let job = JobSpec::builder("wc")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(2)
            .preset_onepass()
            .build()
            .unwrap();
        let report = Engine::new().run(&job, input()).unwrap();
        assert_eq!(final_counts(&report), expected());
        // Hash path must not register any sort CPU.
        assert_eq!(
            report
                .map_profile
                .time(onepass_core::metrics::Phase::MapSort),
            std::time::Duration::ZERO
        );
    }

    #[test]
    fn hop_pipeline_produces_snapshots() {
        let job = JobSpec::builder("wc")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(1)
            .preset_hop()
            .build()
            .unwrap();
        // Enough map tasks that the 25/50/75% snapshot points exist.
        let many: Vec<&str> = vec!["a b"; 8];
        let report = Engine::new().run(&job, splits(&many, 1)).unwrap();
        assert_eq!(final_counts(&report)["a"], 8);
        assert!(report.snapshots >= 1, "HOP must take snapshots");
        assert!(report.early_emits > 0);
        assert!(report.first_early_at.unwrap() <= report.first_final_at.unwrap());
    }

    /// Every backend, behind the map side it implies, over a combining
    /// (`SumAgg`) and a partition-only aggregate (`ListAgg` does not
    /// combine; a list's length is the count).
    #[test]
    fn all_backends_agree() {
        let backends = vec![
            ReduceBackend::SortMerge { snapshots: false },
            ReduceBackend::HybridHash,
            ReduceBackend::IncHash { early_every: None },
            ReduceBackend::FreqHash,
        ];
        type Count = fn(&[u8]) -> u64;
        let aggs: [(Arc<dyn Aggregator>, Count); 2] = [
            (Arc::new(SumAgg), |v| {
                u64::from_le_bytes(v.try_into().unwrap())
            }),
            (Arc::new(ListAgg), |v| ListAgg::decode(v).len() as u64),
        ];
        for backend in backends {
            for (agg, count) in &aggs {
                let label = backend.label();
                let job = JobSpec::builder("wc")
                    .map_fn(Arc::new(word_map))
                    .aggregate(Arc::clone(agg))
                    .reducers(2)
                    .backend(backend)
                    .build()
                    .unwrap();
                let report = Engine::new().run(&job, input()).unwrap();
                let combined = agg.combinable();
                assert_eq!(
                    finals_by(&report, *count),
                    expected(),
                    "{label} (combining: {combined}) diverged"
                );
                // Ten words; combining collapses each table's or each
                // key streak's repeats.
                assert_eq!(report.shuffled_records < 10, combined, "{label}");
            }
        }
    }

    #[test]
    fn empty_input_completes() {
        let job = JobSpec::builder("empty").build().unwrap();
        let report = Engine::new().run(&job, vec![]).unwrap();
        assert_eq!(report.map_tasks, 0);
        assert_eq!(report.groups_out, 0);
    }

    #[test]
    fn spans_cover_all_tasks() {
        let job = wc_job(2);
        let report = Engine::new().run(&job, input()).unwrap();
        let maps = report
            .task_spans
            .iter()
            .filter(|s| s.kind == TaskKind::Map)
            .count();
        let reds = report
            .task_spans
            .iter()
            .filter(|s| s.kind == TaskKind::Reduce)
            .count();
        assert_eq!(maps, 2);
        assert_eq!(reds, 2);
        for s in &report.task_spans {
            assert!(s.end >= s.start);
            assert_eq!(s.attempt, 0, "clean run uses only first attempts");
        }
    }

    #[test]
    fn file_spill_backend_works() {
        let job = JobSpec::builder("wc")
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(1)
            .reduce_budget_bytes(2048)
            .build()
            .unwrap();
        let engine = Engine::with_config(
            EngineConfig::builder()
                .spill(SpillBackend::TempFiles)
                .build(),
        );
        let many: Vec<String> = (0..200)
            .map(|i| format!("w{} w{} a", i % 37, i % 11))
            .collect();
        let refs: Vec<&str> = many.iter().map(|s| s.as_str()).collect();
        let report = engine.run(&job, splits(&refs, 20)).unwrap();
        let counts = final_counts(&report);
        assert_eq!(counts["a"], 200);
        assert!(report.reduce_spill_io.bytes_written > 0);
    }

    #[test]
    fn builder_covers_every_knob() {
        let cfg = EngineConfig::builder()
            .map_workers(2)
            .spill(SpillBackend::TempFiles)
            .max_attempts(3)
            .faults(FaultPlan::new().fail_map(0, 0, 1))
            .metrics(onepass_core::obs::MetricsRegistry::new())
            .transport(Transport::Tcp {
                workers: vec!["127.0.0.1:7777".into()],
            })
            .build();
        assert_eq!(cfg.map_workers, 2);
        assert_eq!(cfg.spill, SpillBackend::TempFiles);
        assert_eq!(cfg.max_attempts, 3);
        assert!(cfg.faults.is_active());
        assert!(cfg.metrics.is_some());
        assert!(matches!(cfg.transport, Transport::Tcp { ref workers } if workers.len() == 1));
        let defaults = EngineConfig::builder().build();
        assert!(defaults.metrics.is_none());
        assert!(matches!(defaults.transport, Transport::InProc));
    }

    #[test]
    fn map_fault_retries_and_recovers() {
        let job = wc_job(2);
        let cfg = EngineConfig::builder()
            .max_attempts(3)
            .faults(FaultPlan::new().fail_map(0, 0, 1))
            .build();
        let report = Engine::with_config(cfg).run(&job, input()).unwrap();
        assert_eq!(final_counts(&report), expected());
        assert_eq!(report.map_tasks, 2);
        assert_eq!(report.map_attempts, 3, "two firsts + one retry");
        assert_eq!(report.failed_attempts, 1);
        // The failed attempt leaves its own span.
        assert!(report
            .task_spans
            .iter()
            .any(|s| s.kind == TaskKind::Map && s.id == 0 && s.attempt == 1));
    }

    #[test]
    fn map_panic_is_caught_and_retried() {
        let job = wc_job(1);
        let cfg = EngineConfig::builder()
            .max_attempts(2)
            .faults(FaultPlan::new().panic_map(1, 0, 0))
            .build();
        let report = Engine::with_config(cfg).run(&job, input()).unwrap();
        assert_eq!(final_counts(&report), expected());
        assert_eq!(report.failed_attempts, 1);
    }

    #[test]
    fn exhausted_map_retries_fail_the_job_without_hanging() {
        let job = wc_job(2);
        let cfg = EngineConfig::builder()
            .max_attempts(2)
            .faults(
                FaultPlan::new()
                    .fail_map(0, 0, 0) // first attempt dies...
                    .fail_map(0, 1, 0), // ...and so does the retry
            )
            .build();
        let err = Engine::with_config(cfg).run(&job, input()).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
    }

    #[test]
    fn reduce_fault_retries_and_recovers() {
        let job = wc_job(2);
        let cfg = EngineConfig::builder()
            .max_attempts(3)
            .faults(FaultPlan::new().fail_reduce(1, 0, 1))
            .build();
        let report = Engine::with_config(cfg).run(&job, input()).unwrap();
        assert_eq!(final_counts(&report), expected());
        assert_eq!(report.reduce_tasks, 2);
        assert!(report.reduce_attempts >= 3, "one reducer retried");
        assert!(report.failed_attempts >= 1);
    }

    #[test]
    fn zero_max_attempts_is_rejected() {
        let job = wc_job(1);
        let cfg = EngineConfig {
            max_attempts: 0,
            ..Default::default()
        };
        let err = Engine::with_config(cfg).run(&job, input()).unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }
}
