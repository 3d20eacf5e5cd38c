//! # onepass — scalable one-pass analytics using MapReduce
//!
//! A Rust reproduction of *"Towards Scalable One-Pass Analytics Using
//! MapReduce"* (Mazur, Li, Diao, Shenoy; IPPS 2011): a MapReduce engine
//! whose group-by can run either Hadoop's sort-merge way or the paper's
//! hash-based incremental way, plus a discrete-event cluster simulator
//! that regenerates the paper's 10-node study.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use onepass::prelude::*;
//!
//! // Word count, run through the paper's one-pass configuration.
//! fn word_map(record: &[u8], out: &mut dyn MapEmitter) {
//!     for w in record.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
//!         out.emit(w, &1u64.to_le_bytes());
//!     }
//! }
//!
//! let job = JobSpec::builder("wordcount")
//!     .map_fn(Arc::new(word_map))
//!     .aggregate(Arc::new(SumAgg))
//!     .reducers(2)
//!     .preset_onepass()
//!     .build()
//!     .unwrap();
//!
//! let splits = vec![Split::new(vec![b"a b a".to_vec(), b"b c".to_vec()])];
//! let report = Engine::new().run(&job, splits).unwrap();
//! assert_eq!(report.groups_out, 3); // a, b, c
//! ```
//!
//! ## Crate map
//!
//! * [`core`] — byte-array KV buffers, hash library, memory budgets,
//!   spill-file management, metrics.
//! * [`sketch`] — Space-Saving / Misra-Gries / Lossy Counting
//!   frequent-items summaries.
//! * [`groupby`] — sort-merge, hybrid hash, incremental hash, and
//!   frequent-key hash group-by operators.
//! * [`runtime`] — the multithreaded MapReduce engine (both execution
//!   paths, pull/push shuffle, streaming sessions).
//! * [`simcluster`] — the deterministic cluster simulator behind the
//!   paper-scale experiments.
//! * [`workloads`] — click-stream / web-document generators and the four
//!   benchmark workloads.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use onepass_core as core;
pub use onepass_groupby as groupby;
pub use onepass_runtime as runtime;
pub use onepass_simcluster as simcluster;
pub use onepass_sketch as sketch;
pub use onepass_workloads as workloads;

/// The commonly-used API surface in one import.
pub mod prelude {
    pub use onepass_core::fault::{FaultInjector, FaultPlan};
    pub use onepass_core::governor::{policy_by_name, MemoryGovernor, SpillPolicy};
    pub use onepass_core::memory::MemoryBudget;
    pub use onepass_core::metrics::Phase;
    pub use onepass_core::obs::{
        MetricsRegistry, MetricsSampler, MetricsServer, MetricsSnapshot, SampleValue,
    };
    pub use onepass_core::trace::{chrome_trace_json, complete_spans, Tracer, Track};
    pub use onepass_groupby::{
        Aggregator, CountAgg, EmitKind, GroupBy, ListAgg, MaxAgg, Sink, SumAgg,
    };
    pub use onepass_runtime::codec::{decode_pair, encode_pair};
    pub use onepass_runtime::map_task::Split;
    pub use onepass_runtime::serve::{
        dump_final_answers, AdmissionConfig, DlqConfig, Frontend, QueryCatalog, ServeConfig,
        Server, StreamingQuery, TenantEvent, TenantHandle, TenantSession,
    };
    pub use onepass_runtime::stream::{SessionOptions, StreamSession};
    pub use onepass_runtime::{
        pair_map_fn, CacheConfig, CollectOutput, DatasetCache, Engine, EngineConfig,
        EngineConfigBuilder, IterativePlan, JobRegistry, JobSpec, MapEmitter, MapFn, PairMap, Plan,
        PlanBuilder, PlanReport, ReduceBackend, RoundContext, SpillBackend, StageId, StageReport,
        Transport, WorkerOptions,
    };
    pub use onepass_simcluster::{
        run_sim_job, run_sim_job_traced, ClusterSpec, SimFaults, SimJobSpec, StorageConfig,
        SystemType, WorkloadProfile,
    };
    pub use onepass_sketch::{FrequentItems, SpaceSaving};
}
