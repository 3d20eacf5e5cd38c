//! What the harness asks of a workload, and what it gets back.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::probes::ProbeInput;
use crate::span::SpanLog;

/// Engine-side observation switches of one iteration. The untraced pass
/// runs with both off; the traced pass hands the engine an enabled
/// `Tracer` and a `MetricsRegistry`, which is what
/// `trace.overhead_ratio` prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Tracing off: the pass end-to-end numbers come from.
    Untraced,
    /// Tracer + registry on, harness spans recorded.
    Traced,
}

/// One timed iteration.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Wall time of the timed region.
    pub wall: Duration,
    /// Process user+sys CPU over the timed region.
    pub cpu: Duration,
    /// Records the iteration is credited with (the `records_per_s` and
    /// `cpu_s_per_mrec` denominator).
    pub records: u64,
    /// Time from start to the first answer a user could read.
    pub first_answer: Duration,
    /// Operations attempted (1 per batch iteration, tenants for serving).
    pub attempted: u64,
    /// Why each failed operation failed: an `Err`, a rejection, or an
    /// output that departs from the reference.
    pub failures: Vec<String>,
}

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One of the six workloads, set up and ready to iterate.
pub trait Workload {
    /// Fingerprint of the generated inputs.
    fn input_fingerprint(&self) -> u64;

    /// Fewest timed iterations a run may report on.
    fn min_iterations(&self) -> usize;

    /// Run the workload once over a fresh clone of its inputs (cloned
    /// outside the timed region), output discarded, group count checked.
    fn iterate(&mut self, pass: Pass, spans: &mut SpanLog) -> Iteration;

    /// One extra untimed iteration that collects the output and compares
    /// it byte-for-byte (sorted) with the reference.
    fn verify(&mut self) -> Result<(), String>;

    /// Input the layer probes run on: a sample of this workload's own
    /// records.
    fn probe_input(&self) -> ProbeInput;

    /// Per-layer metrics read off the traced pass (counters and phase
    /// times the public reports already return), given the probe results
    /// and the untraced pass's median CPU seconds per iteration.
    fn layer_metrics(&self, probes: &Metrics, untraced_cpu_s: f64) -> Metrics;
}
