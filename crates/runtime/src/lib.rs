//! # onepass-runtime
//!
//! A real, multithreaded MapReduce execution engine with the two execution
//! paths the paper contrasts:
//!
//! * the **Hadoop baseline**: map-side block sort on `(partition, key)`
//!   with combine-on-spill, synchronous map-output write, pull shuffle,
//!   reduce-side multi-pass merge with factor `F` (§II-A, Fig. 1);
//! * the paper's **hash-based one-pass paths**: map-side hash partitioning
//!   (no sort) or hash combine, push (pipelined) shuffle, and reduce-side
//!   hybrid hash / incremental hash / frequent-key hash (§V, Fig. 5);
//!
//! plus a MapReduce-Online-style variant (pipelined sort-merge with
//! periodic snapshots) for the §III-D comparison.
//!
//! Entry points: build a [`JobSpec`], then run it with
//! [`Engine::run`](driver::Engine::run), compose multi-stage jobs into a
//! [`plan::Plan`] and run them with
//! [`Engine::run_plan`](driver::Engine::run_plan), or stream unbounded
//! input through [`stream::StreamSession`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod codec;
pub mod driver;
mod executor;
mod in_node;
pub mod iterate;
pub mod job;
pub mod knobs;
pub mod map_task;
pub mod plan;
pub mod reduce_task;
pub mod report;
mod scheduler;
pub mod serve;
pub mod shuffle;
pub mod stream;
mod telemetry;
pub mod transport;

pub use cache::{CacheConfig, DatasetCache};
pub use driver::{Engine, EngineConfig, EngineConfigBuilder, SpillBackend};
pub use in_node::WorkerCombiner;
pub use iterate::{IterativePlan, RoundContext};
pub use job::{
    pair_map_fn, CollectOutput, JobSpec, JobSpecBuilder, MapEmitter, MapFn, PairMap, Partitioner,
    ReduceBackend,
};
pub use plan::{Plan, PlanBuilder, StageId};
pub use report::{dump_pairs, JobOutput, JobReport, PlanReport, StageReport, TaskKind, TaskSpan};
pub use serve::{
    AdmissionConfig, DlqConfig, Frontend, QueryCatalog, ServeConfig, Server, StreamingQuery,
    TenantEvent, TenantHandle, TenantSession,
};
pub use transport::{worker::WorkerOptions, JobRegistry, Transport};

/// One-stop imports for building and running jobs.
///
/// ```
/// use onepass_runtime::prelude::*;
/// ```
pub mod prelude {
    pub use crate::cache::{CacheConfig, DatasetCache};
    pub use crate::codec::{decode_pair, encode_pair};
    pub use crate::driver::{Engine, EngineConfig, EngineConfigBuilder, SpillBackend};
    pub use crate::iterate::{IterativePlan, RoundContext};
    pub use crate::job::{
        pair_map_fn, CollectOutput, JobSpec, JobSpecBuilder, MapEmitter, MapFn, PairMap,
        Partitioner, ReduceBackend,
    };
    pub use crate::map_task::Split;
    pub use crate::plan::{Plan, PlanBuilder, StageId};
    pub use crate::report::{JobOutput, JobReport, PlanReport, StageReport, TaskKind, TaskSpan};
    pub use crate::serve::{
        AdmissionConfig, DlqConfig, Frontend, QueryCatalog, ServeConfig, Server, StreamingQuery,
        TenantEvent, TenantHandle, TenantSession,
    };
    pub use crate::transport::{worker::WorkerOptions, JobRegistry, Transport};
    pub use onepass_core::fault::{FaultInjector, FaultPlan};
    pub use onepass_core::governor::{
        policy_by_name, LargestConsumer, MemoryGovernor, SpillPolicy,
    };
    pub use onepass_core::{OwnedKv, SegmentBuf, SegmentBufBuilder};
}
