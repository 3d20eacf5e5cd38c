//! # onepass-simcluster
//!
//! A deterministic discrete-event simulator of a MapReduce cluster, used
//! to regenerate the paper's cluster-scale experiments (Table I, Figs.
//! 2–4) that originally ran on a 10-node Hadoop deployment with 256–508 GB
//! inputs.
//!
//! Why a simulator is the right substrate here: every figure in the
//! paper's §III study is a *resource-utilization timeline* — task counts,
//! CPU utilization, CPU iowait, disk bytes read — whose shape is fully
//! determined by (a) the data-volume flow of the execution model
//! (sort-merge's spill/multi-pass-merge vs hash's bounded spill) and
//! (b) the contention of tasks over per-node CPU cores, disks and NICs.
//! Both are modeled explicitly:
//!
//! * [`engine`] — event heap + FIFO resource queues (cores, disks, NICs),
//!   integer-microsecond clock, fully deterministic.
//! * [`sampler`] — time-weighted gauges binned per second: the `iostat`
//!   -style series the paper plots.
//! * [`model`] — the cost model (CPU s/MB per operation, device profiles,
//!   workload volume profiles) with constants calibrated from the real
//!   `onepass-runtime` engine.
//! * [`cluster`] — node/storage topology: single HDD, HDD+SSD
//!   (Fig. 2e), separated storage/compute (Fig. 2f).
//! * [`mapreduce`] — one execution model with a row per system:
//!   **StockHadoop** (sort-merge, pull), **Hop** (pipelined sort-merge +
//!   snapshots), and **HashOnePass** (the paper's proposed system).
//! * [`report`] — completion time, phase totals and all figure series.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod dfs;
pub mod engine;
pub mod mapreduce;
pub mod model;
pub mod report;
pub mod sampler;

pub use cluster::{ClusterSpec, StorageConfig};
pub use mapreduce::{run_sim_job, run_sim_job_traced, SimFaults, SimJobSpec, SystemType};
pub use model::{CostModel, DeviceProfile, WorkloadProfile};
pub use report::{FaultCounters, SimReport};
