//! Transport abstraction for the shuffle fabric and task dispatch.
//!
//! The paper's architecture (§IV) only requires that map output *flows* to
//! reducers without barrier materialization — it does not care whether the
//! flow is an in-process channel or a socket. This module makes that
//! boundary explicit: the executor routes every segment and control
//! message through a [`SegmentSink`], and the engine picks the concrete
//! fabric from [`Transport`]:
//!
//! * [`Transport::InProc`] — the original zero-copy bounded-channel
//!   fabric. Segments are `Arc`-backed [`SegmentBuf`]s; sending one bumps
//!   two refcounts. This is the default and the fast path (M3R-style:
//!   keeping the in-memory topology first-class).
//! * [`Transport::Tcp`] — a length-prefixed framed protocol over TCP.
//!   Map tasks are placed onto external worker processes (`onepass worker
//!   --listen ADDR`) by a coordinator embedded in the executor; their
//!   segments travel back as the same framed key/value encoding the spill
//!   files use, and the executor's own reducers read a received payload
//!   zero-copy via [`SegmentBuf::from_framed`]. Every reduce runs where
//!   the shuffle lands, on either transport.
//!
//! Worker loss is survived by the existing attempt-aware machinery: map
//! attempts on a dead worker fail and are requeued by the scheduler, and
//! the reducers' attempt dedup drops
//! whatever a lost attempt had already sent.
//!
//! [`SegmentBuf`]: onepass_core::SegmentBuf
//! [`SegmentBuf::from_framed`]: onepass_core::SegmentBuf::from_framed

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::job::JobSpec;
use crate::shuffle::Segment;

pub(crate) mod cluster;
pub(crate) mod coordinator;
pub(crate) mod inproc;
pub(crate) mod tcp;
pub(crate) mod wire;
pub mod worker;

/// Which fabric carries shuffle traffic and task dispatch.
///
/// Selected via
/// [`EngineConfigBuilder::transport`](crate::driver::EngineConfigBuilder::transport)
/// or the `--workers` CLI flag.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Transport {
    /// Single-process execution over in-proc channels (zero-copy,
    /// default). Identical behavior to engines built before this knob
    /// existed.
    #[default]
    InProc,
    /// Multi-process execution: map tasks are dispatched to `onepass
    /// worker` processes over length-prefixed TCP frames; reducers run in
    /// this process.
    Tcp {
        /// Worker addresses (`host:port`), each running
        /// `onepass worker --listen ADDR`. Must be non-empty.
        workers: Vec<String>,
    },
}

/// The sending half of a shuffle fabric.
///
/// [`ShuffleTx`](crate::shuffle::ShuffleTx) counts records/bytes/segments
/// and then hands every message to one of these, so shuffle accounting is
/// transport-agnostic by construction: the numbers are identical whether
/// the sink is an in-proc channel set or a TCP connection.
pub trait SegmentSink: Send + Sync {
    /// Deliver a segment to its destination partition.
    fn send_segment(&self, seg: Segment);
    /// Announce a completed map task attempt to every partition.
    fn map_done(&self, map_task: usize, attempt: usize);
    /// Tell every partition the job is aborting.
    fn abort(&self);
    /// Tell every partition how many map tasks the job ended up with.
    fn input_exhausted(&self, total_map_tasks: usize);
}

/// Named job specs a worker process can instantiate.
///
/// A [`JobSpec`] carries closures (map function, aggregator)
/// and therefore cannot travel over the wire. Instead, both sides agree on
/// a job *name*: the coordinator ships the name plus the travelling rows
/// of [`crate::knobs::KNOBS`] as text pairs, and the worker rebuilds the
/// spec from a factory registered here, then sets the pairs onto it. A job submitted under an unregistered name is
/// rejected with a [`Config`](onepass_core::error::Error::Config) error.
#[derive(Clone, Default)]
pub struct JobRegistry {
    inner: Arc<Mutex<HashMap<String, JobFactory>>>,
}

/// A registered factory rebuilding one named [`JobSpec`].
type JobFactory = Arc<dyn Fn() -> JobSpec + Send + Sync>;

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a factory under `name`. Later registrations replace
    /// earlier ones.
    pub fn register(
        &self,
        name: impl Into<String>,
        factory: impl Fn() -> JobSpec + Send + Sync + 'static,
    ) {
        self.inner.lock().insert(name.into(), Arc::new(factory));
    }

    /// Register a concrete spec under its own `spec.name` (the spec is
    /// cloned per instantiation).
    pub fn register_spec(&self, spec: JobSpec) {
        let name = spec.name.clone();
        self.register(name, move || spec.clone());
    }

    /// Instantiate the spec registered under `name`, if any.
    pub fn build(&self, name: &str) -> Option<JobSpec> {
        let factory = self.inner.lock().get(name).cloned();
        factory.map(|f| f())
    }

    /// Names currently registered, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.lock().keys().cloned().collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for JobRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRegistry")
            .field("jobs", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MapEmitter;
    use onepass_groupby::SumAgg;

    #[test]
    fn transport_defaults_to_inproc() {
        assert_eq!(Transport::default(), Transport::InProc);
    }

    #[test]
    fn registry_builds_registered_specs() {
        fn ident(record: &[u8], out: &mut dyn MapEmitter) {
            out.emit(record, &1u64.to_le_bytes());
        }
        let reg = JobRegistry::new();
        assert!(reg.build("wc").is_none());
        reg.register("wc", || {
            JobSpec::builder("wc")
                .map_fn(Arc::new(ident))
                .aggregate(Arc::new(SumAgg))
                .reducers(2)
                .build()
                .unwrap()
        });
        let spec = reg.build("wc").expect("registered");
        assert_eq!(spec.name, "wc");
        assert_eq!(reg.names(), vec!["wc".to_string()]);
    }
}
