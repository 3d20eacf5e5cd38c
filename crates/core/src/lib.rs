//! # onepass-core
//!
//! Foundational substrate for the `onepass` analytics engine — a Rust
//! reproduction of *"Towards Scalable One-Pass Analytics Using MapReduce"*
//! (Mazur, Li, Diao, Shenoy; IPPS 2011).
//!
//! Section V of the paper describes a set of support libraries its prototype
//! is built on; this crate provides their Rust equivalents:
//!
//! * [`bytes_kv`] — the *byte-array based memory management library*: all
//!   key/value records live in contiguous byte arenas with offset tables, so
//!   no per-record heap allocations occur on the hot path.
//! * [`hashlib`] — the *hash function library*: the pair-wise independent
//!   multiply-shift family used for partitioning, hybrid-hash bucket
//!   splits, and sketches.
//! * [`fp_table`] — the one byte-keyed hash table, probed by a fingerprint
//!   the caller computed once: key arena, no per-key allocation.
//! * [`memory`] — budgeted memory accounting, the mechanism by which
//!   operators detect "buffer full" (Hadoop's `io.sort.mb` analogue).
//! * [`governor`] — the pooled memory governor of the serving tier: one
//!   pool leasing hierarchical budgets to sessions, rebalancing under skew
//!   and picking spill victims via a pluggable policy under global
//!   pressure.
//! * [`io`] — the *file management library*: spill-run files with counted
//!   sequential I/O, backed either by real temp files or by an in-memory
//!   store for tests.
//! * [`metrics`] — the phase stamp (one clock pair → profile entry, trace
//!   span and metric), per-phase profiles and time-series samplers (the
//!   paper's `iostat`/`ps` profiling harness analogue).
//! * [`obs`] — live metrics: a sharded lock-free registry of atomic
//!   counters/gauges/histograms with a background sampler, Prometheus
//!   text exposition, and JSONL snapshot streaming.
//! * [`trace`] — structured task/phase trace events with Chrome
//!   trace-event JSON export (the timeline plots of Fig. 2a/3 as data).
//! * [`fault`] — seeded, deterministic fault schedules used to exercise
//!   the engine's task retry machinery.
//! * [`json`] — dependency-free JSON building and parsing backing the
//!   trace and report exporters.
//! * [`table`] — minimal aligned-text / CSV emission for experiment drivers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bytes_kv;
pub mod config;
pub mod error;
pub mod fault;
pub mod fp_table;
pub mod governor;
pub mod hashlib;
pub mod io;
pub mod json;
pub mod memory;
pub mod metrics;
pub mod obs;
pub mod table;
pub mod trace;

pub use bytes_kv::{KvBuf, OwnedKv, SegmentBuf, SegmentBufBuilder};
pub use error::{Error, Result};
pub use fp_table::FpTable;
