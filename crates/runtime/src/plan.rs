//! Staged query plans: a DAG of MapReduce stages that all run at once,
//! each stage's final answers streaming into downstream map tasks while
//! upstream reducers are still running.
//!
//! Real analytical queries rarely fit one MapReduce job — the paper's
//! related work (Pig, Hive) compiles queries into job *DAGs*, and §IV's
//! architecture pipelines data "from mappers to reducers and between
//! jobs". [`Plan::linear`] covers the classic linear chain:
//!
//! * Stages are connected by **edges** carrying pairs: each final
//!   `(key, value)` of an upstream stage is one input pair of its
//!   downstream stages, batched into [`Split::from_segment`] splits of
//!   [`PUSH_RECORDS`] pairs (a pushed shuffle
//!   segment's size) and mapped through
//!   [`MapFn::map_pair`](crate::job::MapFn::map_pair) — never
//!   materialized or re-serialised in between (M3R's point,
//!   arXiv:1208.4168). A fan-out hands every downstream the same
//!   `Arc`-shared segment.
//! * Every edge is a bounded channel into the downstream stage's
//!   streamed split feed, and the downstream takes a split off it only
//!   when a map slot is free for it. A slow stage therefore stalls its
//!   upstream's reducers instead of queueing the whole edge, while
//!   downstream map and reduce work still overlaps the upstream stage.
//!
//! A downstream stage is usually a pair stage
//! ([`PlanBuilder::add_pair_stage`]): its [`PairMap`] is installed as the
//! job's map function when the stage is added, so the job the plan holds
//! is the job a TCP worker registers. A record stage downstream
//! ([`PlanBuilder::add_stage`], [`Plan::linear`]) sees each pair framed by
//! the edge codec, through `map_pair`'s default. The plan layer itself
//! never encodes or decodes a record.
//!
//! Early emissions are not forwarded across edges (they are
//! approximations of the finals); collect them from each stage's report
//! if needed.
//!
//! Plans also have **cache edges** against a job-wide
//! [`DatasetCache`]:
//! [`PlanBuilder::cache_output`] captures a stage's finals as a named,
//! partition-stable dataset, and [`PlanBuilder::cached_input`] feeds a
//! cached dataset into a stage as zero-copy map splits (no re-scan, no
//! input decode). When the dataset's partition count matches the
//! consuming stage's reducer count,
//! [`PlanBuilder::cached_input_aligned`] short-circuits the shuffle
//! entirely: each cached partition routes to its own reducer without
//! re-hashing a single key. [`crate::iterate::IterativePlan`] builds
//! multi-round loops on top of these edges.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, Sender};
use onepass_core::bytes_kv::SegmentBufBuilder;
use onepass_core::error::{Error, Result};
use onepass_core::obs::{names, Gauge};
use onepass_core::trace::Track;
use onepass_groupby::EmitKind;

use crate::cache::DatasetCache;
use crate::driver::Engine;
use crate::executor::{self, ExecParams, ReduceTap, TapFactory};
use crate::job::{pair_map_fn, CollectOutput, JobSpec, PairMap, PUSH_RECORDS};
use crate::map_task::Split;
use crate::report::{PlanReport, StageReport};
use crate::scheduler::SplitFeed;

/// Trace-track stride between stages, so concurrent stages of a plan get
/// disjoint map/reduce track ids in the flamegraph.
const TRACK_STRIDE: u64 = 1_000_000;

/// Identifies one stage of a [`Plan`], as returned by
/// [`PlanBuilder::add_stage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageId(pub(crate) usize);

impl StageId {
    /// The stage's index within its plan.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Bound of each edge channel, in splits. A full edge blocks the upstream
/// reducer's emission — the same backpressure push shuffling applies
/// within a job (§III-D), extended across stages.
const EDGE_DEPTH: usize = 16;

/// A cache edge feeding a stage from a named dataset.
pub(crate) struct CachedInput {
    pub(crate) name: String,
    /// Request the shuffle short-circuit: applied only when the cached
    /// partition count equals the stage's reducer count.
    pub(crate) aligned: bool,
}

/// One node of the DAG: a complete MapReduce job plus its cache edges.
pub(crate) struct Stage {
    pub(crate) job: JobSpec,
    /// Capture this stage's finals into the dataset cache under this
    /// name (partitioned by the stage's own partitioner/reducer count).
    pub(crate) cache_output: Option<String>,
    /// Datasets fed into this stage as cache-hit splits.
    pub(crate) cached_inputs: Vec<CachedInput>,
}

impl Stage {
    fn new(job: JobSpec) -> Self {
        Stage {
            job,
            cache_output: None,
            cached_inputs: Vec::new(),
        }
    }
}

/// Builds a [`Plan`] DAG. Stages are added first, then connected; the
/// DAG is validated by [`PlanBuilder::build`].
#[derive(Default)]
pub struct PlanBuilder {
    stages: Vec<Stage>,
    edges: Vec<(usize, usize)>,
}

impl PlanBuilder {
    /// Start an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a stage as its job stands: the map function reads raw records
    /// as a source stage, and each upstream pair framed as an edge record
    /// ([`crate::codec`]) downstream.
    pub fn add_stage(&mut self, job: JobSpec) -> StageId {
        self.stages.push(Stage::new(job));
        StageId(self.stages.len() - 1)
    }

    /// Add a stage whose map function is `pairs` (see [`PairMap`]),
    /// installed over the job's own `map_fn` through [`pair_map_fn`] here,
    /// at build time: [`Plan::jobs`] then yields the job as the plan runs
    /// it, which is what a TCP worker's registry must hold.
    pub fn add_pair_stage(&mut self, mut job: JobSpec, pairs: Arc<dyn PairMap>) -> StageId {
        job.map_fn = pair_map_fn(pairs);
        self.add_stage(job)
    }

    /// Feed `from`'s final answers into `to`'s input.
    pub fn connect(&mut self, from: StageId, to: StageId) -> &mut Self {
        self.edges.push((from.0, to.0));
        self
    }

    /// Capture `stage`'s finals into the run's
    /// [`DatasetCache`] under `name`,
    /// partitioned by the stage's own partitioner over its reducer
    /// count — so a successor round consuming the dataset with the same
    /// partitioner and reducer count gets partition-stable placement.
    /// Each reducer writes its own partition whatever the job's
    /// [`CollectOutput`].
    pub fn cache_output(&mut self, stage: StageId, name: &str) -> &mut Self {
        self.stages[stage.0].cache_output = Some(name.to_string());
        self
    }

    /// Feed the cached dataset `name` into `stage` as zero-copy map
    /// splits (each partition one split of framed pairs, mapped through
    /// [`MapFn::map_pair`](crate::job::MapFn::map_pair) — no re-scan,
    /// no input decode). Requires running the plan through
    /// [`Engine::run_plan_with_cache`].
    pub fn cached_input(&mut self, stage: StageId, name: &str) -> &mut Self {
        self.stages[stage.0].cached_inputs.push(CachedInput {
            name: name.to_string(),
            aligned: false,
        });
        self
    }

    /// Like [`cached_input`](PlanBuilder::cached_input), and
    /// additionally short-circuit the shuffle when the dataset's
    /// partition count equals `stage`'s reducer count: every emission
    /// from partition `p`'s split routes straight to reducer `p`,
    /// skipping the per-key partitioner hash. Correct only when the
    /// stage's map emits keys that stay in their input partition (e.g.
    /// re-emitting the same keys, as iterative state updates do) under
    /// the same partitioner that built the dataset — that contract is
    /// the caller's; on a partition-count mismatch the plan silently
    /// falls back to hashed routing.
    pub fn cached_input_aligned(&mut self, stage: StageId, name: &str) -> &mut Self {
        self.stages[stage.0].cached_inputs.push(CachedInput {
            name: name.to_string(),
            aligned: true,
        });
        self
    }

    /// Validate and freeze the DAG.
    ///
    /// Rejects: empty plans, edges to unknown stages, self-loops,
    /// duplicate edges, cycles, plans without exactly one source stage,
    /// and invalid per-stage job specs.
    pub fn build(self) -> Result<Plan> {
        Plan::from_parts(self.stages, self.edges)
    }
}

/// A validated DAG of MapReduce stages, run by [`Engine::run_plan`].
pub struct Plan {
    pub(crate) stages: Vec<Stage>,
    /// Stage indices in topological order (source first).
    pub(crate) order: Vec<usize>,
    /// Upstream stage indices per stage, in edge insertion order.
    pub(crate) incoming: Vec<Vec<usize>>,
    /// Downstream stage indices per stage, in edge insertion order.
    pub(crate) outgoing: Vec<Vec<usize>>,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field(
                "stages",
                &self.stages.iter().map(|s| &s.job.name).collect::<Vec<_>>(),
            )
            .field("order", &self.order)
            .field("incoming", &self.incoming)
            .finish()
    }
}

impl Plan {
    /// Start building a plan.
    pub fn builder() -> PlanBuilder {
        PlanBuilder::new()
    }

    /// A linear chain: each job's finals feed the next job's input.
    pub fn linear(jobs: Vec<JobSpec>) -> Result<Plan> {
        let mut b = Plan::builder();
        let ids: Vec<StageId> = jobs.into_iter().map(|j| b.add_stage(j)).collect();
        for pair in ids.windows(2) {
            b.connect(pair[0], pair[1]);
        }
        b.build()
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The stages' jobs as the plan runs them, in stage-id order — what to
    /// [`register_spec`](crate::transport::JobRegistry::register_spec) on
    /// the workers of a plan run over TCP.
    pub fn jobs(&self) -> impl Iterator<Item = &JobSpec> + '_ {
        self.stages.iter().map(|s| &s.job)
    }

    /// Whether any stage has a cache edge (input or output).
    pub fn uses_cache(&self) -> bool {
        self.stages
            .iter()
            .any(|s| s.cache_output.is_some() || !s.cached_inputs.is_empty())
    }

    /// The stage that consumes the plan's record input: the unique
    /// stage with neither incoming edges nor cached inputs, if any.
    /// Failing that, a unique stage with no incoming edges but *with*
    /// cached inputs also accepts records — that is the two-input
    /// shape (e.g. a hybrid-hash join probing records against a cached
    /// build side).
    fn record_source(&self) -> Option<usize> {
        let pure = (0..self.stages.len())
            .find(|&s| self.incoming[s].is_empty() && self.stages[s].cached_inputs.is_empty());
        pure.or_else(|| {
            let mut roots = (0..self.stages.len()).filter(|&s| self.incoming[s].is_empty());
            match (roots.next(), roots.next()) {
                (Some(s), None) => Some(s),
                _ => None,
            }
        })
    }

    fn from_parts(stages: Vec<Stage>, edges: Vec<(usize, usize)>) -> Result<Plan> {
        let n = stages.len();
        if n == 0 {
            return Err(Error::Config("plan must have at least one stage".into()));
        }
        let mut seen = std::collections::HashSet::new();
        let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut outgoing: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(from, to) in &edges {
            if from >= n || to >= n {
                return Err(Error::Config(format!(
                    "plan edge {from} -> {to} references an unknown stage (plan has {n})"
                )));
            }
            if from == to {
                return Err(Error::Config(format!(
                    "plan stage {from} ({}) cannot feed itself",
                    stages[from].job.name
                )));
            }
            if !seen.insert((from, to)) {
                return Err(Error::Config(format!("duplicate plan edge {from} -> {to}")));
            }
            outgoing[from].push(to);
            incoming[to].push(from);
        }

        // A stage fed only by cache edges is not a record source: cached
        // datasets replace its scan. At most one stage may read the
        // plan's record input, and a plan running purely off the cache
        // (zero record sources) is legal — `run_plan` then requires an
        // empty input.
        let sources = incoming
            .iter()
            .zip(&stages)
            .filter(|(inc, st)| inc.is_empty() && st.cached_inputs.is_empty())
            .count();
        let any_cache_inputs = stages.iter().any(|s| !s.cached_inputs.is_empty());
        if sources > 1 || (sources != 1 && !any_cache_inputs) {
            return Err(Error::Config(format!(
                "plan must have exactly one source stage (found {sources})"
            )));
        }

        // Kahn's algorithm: a complete ordering proves acyclicity.
        let mut indeg: Vec<usize> = incoming.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&s| indeg[s] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(s) = queue.pop() {
            order.push(s);
            for &d in &outgoing[s] {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    queue.push(d);
                }
            }
        }
        if order.len() != n {
            return Err(Error::Config("plan has a cycle".into()));
        }

        for stage in &stages {
            stage.job.validate()?;
        }

        Ok(Plan {
            stages,
            order,
            incoming,
            outgoing,
        })
    }
}

/// One end of an edge: the downstream stage's split feed.
type EdgeTx = Sender<Result<Split>>;

/// Streams one reducer's final answers into the stage's downstream split
/// feeds. Each reducer owns one over cloned senders, so the emission hot
/// path never takes a shared lock; a feed closes when the last sender of
/// it — reducers' and stage thread's — is gone.
struct EdgeWriter {
    /// The pairs of the split being cut, up to [`PUSH_RECORDS`].
    batch: SegmentBufBuilder,
    outs: Vec<EdgeTx>,
    /// `onepass_plan_edge_depth{stage}` — sampled after each send so a
    /// scraper sees how far ahead this stage runs of its consumers.
    depth: Gauge,
}

impl EdgeWriter {
    fn push(&mut self, key: &[u8], value: &[u8]) {
        self.batch.push(key, value);
        if self.batch.len() >= PUSH_RECORDS {
            self.flush();
        }
    }

    /// Fan the pairs batched so far out as one split, if there are any:
    /// every downstream gets the same two `Arc`s.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let split = Split::from_segment(std::mem::take(&mut self.batch).finish());
        for tx in &self.outs {
            // A send error means the downstream stage already hung up (it
            // failed); its own error surfaces when the stages are joined.
            let _ = tx.send(Ok(split.clone()));
        }
        let deepest = self.outs.iter().map(|tx| tx.len()).max().unwrap_or(0);
        self.depth.set(deepest as f64);
    }
}

/// A reducer's remainder goes out when its sink drops — inside the stage's
/// `execute` call, so before the stage thread lets go of its own senders.
impl Drop for EdgeWriter {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Engine {
    /// Run a multi-stage [`Plan`] over `input` (fed to the plan's single
    /// source stage). Returns the per-stage reports plus plan-level
    /// timings; all task spans and output timestamps are measured against
    /// the *plan* start, so time-to-first-answer is comparable across
    /// stages.
    pub fn run_plan(&self, plan: &Plan, input: Vec<Split>) -> Result<PlanReport> {
        self.run_plan_with_cache(plan, input, None)
    }

    /// [`run_plan`](Engine::run_plan) with a [`DatasetCache`] backing
    /// the plan's cache edges: stages marked
    /// [`cache_output`](PlanBuilder::cache_output) publish their finals
    /// as partition-stable datasets after the run, and stages with
    /// [`cached_input`](PlanBuilder::cached_input) edges read datasets
    /// as zero-copy cache-hit splits. Plans without cache edges ignore
    /// `cache` entirely.
    pub fn run_plan_with_cache(
        &self,
        plan: &Plan,
        input: Vec<Split>,
        cache: Option<&DatasetCache>,
    ) -> Result<PlanReport> {
        if plan.uses_cache() {
            edge_cache(cache)?;
        }
        if plan.record_source().is_none() && !input.is_empty() {
            return Err(Error::Config(
                "plan has no record source stage (all stages are cache-fed) but input is not \
                 empty"
                    .into(),
            ));
        }
        let clock = Instant::now();
        let stages = run_stages(self, plan, input, cache, clock)?;
        let first_final_at = stages
            .iter()
            .filter(|s| s.is_sink)
            .filter_map(|s| s.report.first_final_at)
            .min();
        let report = PlanReport {
            wall: clock.elapsed(),
            first_final_at,
            stages,
        };
        if let Some(cache) = cache {
            capture_cache_outputs(plan, &report, cache)?;
        }
        Ok(report)
    }
}

/// The cache a cache edge reads or writes; a plan with such an edge and no
/// cache fails with this error before any stage runs.
fn edge_cache(cache: Option<&DatasetCache>) -> Result<&DatasetCache> {
    cache.ok_or_else(|| {
        Error::Config(
            "plan has cache edges; run it through run_plan_with_cache with a DatasetCache".into(),
        )
    })
}

/// Publish every `cache_output` stage's dataset into the cache, once the
/// whole plan has succeeded. Each reducer already wrote its partition —
/// the keys the stage's partitioner routed to it — and key-sorted it on
/// its own thread ([`JobReport::partitions`](crate::JobReport)), so the
/// dataset's bytes are the same whatever the reduction order, and
/// replays and re-runs converge on identical cache content. Publishing
/// is `put`, which replaces a dataset atomically.
fn capture_cache_outputs(plan: &Plan, report: &PlanReport, cache: &DatasetCache) -> Result<()> {
    for (stage, sr) in plan.stages.iter().zip(&report.stages) {
        if let Some(name) = &stage.cache_output {
            cache.put(name, sr.report.partitions.clone())?;
        }
    }
    Ok(())
}

/// The cache-hit splits feeding stage `s`: one zero-copy split per
/// cached partition, partition-pinned when the aligned short-circuit
/// applies.
fn cached_splits(plan: &Plan, s: usize, cache: Option<&DatasetCache>) -> Result<Vec<Split>> {
    let stage = &plan.stages[s];
    let mut out = Vec::new();
    for ci in &stage.cached_inputs {
        let parts = edge_cache(cache)?.get(&ci.name)?.ok_or_else(|| {
            Error::InvalidState(format!(
                "plan stage {s} ({}) reads cached dataset '{}', which is not in the cache",
                stage.job.name, ci.name
            ))
        })?;
        let aligned_ok = ci.aligned && parts.len() == stage.job.reducers;
        for (p, seg) in parts.into_iter().enumerate() {
            let mut split = Split::from_segment(seg);
            if aligned_ok {
                split.aligned = Some(p as u32);
            }
            out.push(split);
        }
    }
    Ok(out)
}

/// Run every stage of `plan` at once, one thread each. Each non-source
/// stage consumes a bounded channel of splits; each stage with downstream
/// consumers taps its sinks' final emissions and streams them into those
/// channels as they happen.
fn run_stages(
    engine: &Engine,
    plan: &Plan,
    mut input: Vec<Split>,
    cache: Option<&DatasetCache>,
    clock: Instant,
) -> Result<Vec<StageReport>> {
    let n = plan.stages.len();
    let config = engine.config();
    let record_source = plan.record_source();

    // One pass builds every stage's feed and, with it, the sending ends of
    // its incoming edges: one bounded channel per stage that has upstreams,
    // a clone of its sender in each upstream's `outs` (fan-in), so the feed
    // closes when the last upstream is done with it. Cache-hit splits ride
    // the same channel, pushed by a feeder thread alongside live upstream
    // output.
    let mut feeds: Vec<SplitFeed> = Vec::with_capacity(n);
    let mut outs: Vec<Vec<EdgeTx>> = vec![Vec::new(); n];
    let mut cache_feeders: Vec<(EdgeTx, Vec<Split>)> = Vec::new();
    for s in 0..n {
        let cached = cached_splits(plan, s, cache)?;
        if plan.incoming[s].is_empty() {
            // The record source (whose records a two-input join probes
            // against cached inputs) or a purely cache-fed stage: the
            // whole feed is known up front.
            let mut fixed = if record_source == Some(s) {
                std::mem::take(&mut input)
            } else {
                Vec::new()
            };
            fixed.extend(cached);
            feeds.push(SplitFeed::Fixed(fixed));
        } else {
            let (tx, rx) = bounded(EDGE_DEPTH);
            for &u in &plan.incoming[s] {
                outs[u].push(tx.clone());
            }
            if !cached.is_empty() {
                cache_feeders.push((tx, cached));
            }
            feeds.push(SplitFeed::Streamed(rx));
        }
    }

    let results: Vec<Result<StageReport>> = crossbeam::thread::scope(|scope| {
        // Cache feeders block on the bounded edge like any upstream
        // producer; dropping their sender lets the feed close once the
        // live upstreams finish too.
        for (tx, splits) in cache_feeders {
            scope.spawn(move |_| {
                for split in splits {
                    // A send error means the consumer already failed; its
                    // own error surfaces through the stage join.
                    if tx.send(Ok(split)).is_err() {
                        break;
                    }
                }
            });
        }
        let mut handles = Vec::with_capacity(n);
        for (s, (feed, outs)) in feeds.into_iter().zip(outs).enumerate() {
            let tap = (!outs.is_empty()).then(|| {
                let outs = outs.clone();
                let depth = Gauge::of(
                    config.metrics.as_ref(),
                    names::PLAN_EDGE_DEPTH,
                    &[("stage", &plan.stages[s].job.name)],
                );
                Arc::new(move |_partition: usize| {
                    let mut edge = EdgeWriter {
                        batch: SegmentBufBuilder::new(),
                        outs: outs.clone(),
                        depth: depth.clone(),
                    };
                    Box::new(move |key: &[u8], value: &[u8], kind: EmitKind| {
                        if kind == EmitKind::Final {
                            edge.push(key, value);
                        }
                    }) as ReduceTap
                }) as TapFactory
            });
            handles.push(scope.spawn(move |_| {
                // A tapped stage streams its finals downstream and does not
                // also materialize them in its report, as the paper's
                // pipeline avoids materializing data between jobs (§IV). A
                // stage that caches its output has each reducer write its
                // own partition of the dataset instead
                // ([`JobReport::partitions`](crate::JobReport)), which the
                // capture publishes.
                let stage = &plan.stages[s];
                let mut job = stage.job.clone();
                if tap.is_some() {
                    job.collect_output = CollectOutput::Discard;
                }
                let mut st_trace = config.tracer.local(Track::new("stage", s as u64));
                st_trace.begin("stage", "plan");
                let res = executor::execute(ExecParams {
                    config,
                    job: &job,
                    feed,
                    clock,
                    tap,
                    partition_output: stage.cache_output.is_some(),
                    track_offset: s as u64 * TRACK_STRIDE,
                });
                st_trace.end("stage", "plan");
                // Every reducer's writer dropped (and flushed) inside
                // `execute`; what is left of the edge is this thread's `outs`.
                // Tell the consumers about a failure before hanging up, so
                // they never mistake a dead stage for a finished one.
                if let Err(e) = &res {
                    let name = &plan.stages[s].job.name;
                    let msg = format!("upstream stage {s} ({name}) failed: {e}");
                    for tx in &outs {
                        let _ = tx.send(Err(Error::InvalidState(msg.clone())));
                    }
                }
                res.map(|report| StageReport {
                    stage: s,
                    name: job.name,
                    is_sink: outs.is_empty(),
                    report,
                })
            }));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(Error::InvalidState("plan stage worker panicked".into()))
                })
            })
            .collect()
    })
    .map_err(|_| Error::InvalidState("plan stage worker panicked".into()))?;

    // Surface the topologically-first failure: downstream errors are
    // poisoned-edge echoes of the root cause.
    let mut rank = vec![0usize; n];
    for (i, &s) in plan.order.iter().enumerate() {
        rank[s] = i;
    }
    let mut reports = Vec::with_capacity(n);
    let mut failed: Vec<(usize, Error)> = Vec::new();
    for (s, res) in results.into_iter().enumerate() {
        match res {
            Ok(report) => reports.push(report),
            Err(e) => failed.push((rank[s], e)),
        }
    }
    match failed.into_iter().min_by_key(|(rank, _)| *rank) {
        Some((_, root)) => Err(root),
        None => Ok(reports),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::EngineConfig;
    use crate::job::{MapEmitter, ReduceBackend};
    use onepass_groupby::SumAgg;
    use std::collections::BTreeMap;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    fn word_map(record: &[u8], out: &mut dyn MapEmitter) {
        for w in record.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            out.emit(w, &1u64.to_le_bytes());
        }
    }

    fn wordcount(name: &str) -> JobSpec {
        JobSpec::builder(name)
            .map_fn(Arc::new(word_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(3)
            .preset_onepass()
            .build()
            .unwrap()
    }

    fn histogram_stage(name: &str) -> (JobSpec, Arc<dyn PairMap>) {
        let job = JobSpec::builder(name)
            .map_fn(Arc::new(word_map)) // replaced by `add_pair_stage`
            .aggregate(Arc::new(SumAgg))
            .reducers(2)
            .backend(ReduceBackend::IncHash { early_every: None })
            .build()
            .unwrap();
        let pairs: Arc<dyn PairMap> =
            Arc::new(|_key: &[u8], value: &[u8], out: &mut dyn MapEmitter| {
                out.emit(value, &1u64.to_le_bytes());
            });
        (job, pairs)
    }

    fn histogram_plan() -> Plan {
        let mut b = Plan::builder();
        let s1 = b.add_stage(wordcount("wordcount"));
        let (job, pairs) = histogram_stage("count-of-counts");
        let s2 = b.add_pair_stage(job, pairs);
        b.connect(s1, s2);
        b.build().unwrap()
    }

    fn input() -> Vec<Split> {
        // a:4, b:2, c:2, d:1 -> histogram {4:1, 2:2, 1:1}
        vec![Split::new(vec![
            b"a b a c".to_vec(),
            b"a d b c".to_vec(),
            b"a".to_vec(),
        ])]
    }

    fn hist_of(report: &PlanReport) -> BTreeMap<u64, u64> {
        report
            .sorted_final_outputs()
            .into_iter()
            .map(|(k, v)| {
                (
                    u64::from_le_bytes(k.as_slice().try_into().unwrap()),
                    u64::from_le_bytes(v.as_slice().try_into().unwrap()),
                )
            })
            .collect()
    }

    #[test]
    fn two_stage_plan_answers_the_histogram() {
        let report = Engine::new().run_plan(&histogram_plan(), input()).unwrap();
        let expected = BTreeMap::from([(4, 1), (2, 2), (1, 1)]);
        assert_eq!(hist_of(&report), expected);
        assert_eq!(report.stages.len(), 2);
        assert!(!report.stages[0].is_sink);
        assert!(report.stages[1].is_sink);
        assert!(report.first_final_at.is_some());
        assert_eq!(report.stages[0].report.groups_out, 4);
    }

    #[test]
    fn fan_out_feeds_both_downstream_stages() {
        let mut b = Plan::builder();
        let src = b.add_stage(wordcount("wordcount"));
        let (job1, pairs1) = histogram_stage("hist-a");
        let (job2, pairs2) = histogram_stage("hist-b");
        let d1 = b.add_pair_stage(job1, pairs1);
        let d2 = b.add_pair_stage(job2, pairs2);
        b.connect(src, d1);
        b.connect(src, d2);
        let plan = b.build().unwrap();

        let report = Engine::new().run_plan(&plan, input()).unwrap();
        // Both sinks compute the same histogram over the same edge data,
        // so the combined multiset holds every pair twice.
        let mut counts: BTreeMap<(Vec<u8>, Vec<u8>), usize> = BTreeMap::new();
        for kv in report.sorted_final_outputs() {
            *counts.entry(kv).or_default() += 1;
        }
        assert_eq!(counts.len(), 3);
        assert!(counts.values().all(|&c| c == 2));
    }

    /// A record stage downstream sees each upstream pair as the edge
    /// record it always saw, through `map_pair`'s default.
    #[test]
    fn record_stage_downstream_reads_edge_records() {
        fn hist_from_edge(record: &[u8], out: &mut dyn MapEmitter) {
            let (_, count) = crate::codec::decode_pair(record).expect("edge record");
            out.emit(count, &1u64.to_le_bytes());
        }
        let (mut hist, _) = histogram_stage("count-of-counts");
        hist.map_fn = Arc::new(hist_from_edge);
        let plan = Plan::linear(vec![wordcount("wordcount"), hist]).unwrap();
        let expected = BTreeMap::from([(4, 1), (2, 2), (1, 1)]);
        let report = Engine::new().run_plan(&plan, input()).unwrap();
        assert_eq!(hist_of(&report), expected);
    }

    /// A fan-out edge hands both downstream stages the same segment: two
    /// `Arc` clones, not a copy of the pairs.
    #[test]
    fn fan_out_splits_share_one_arena() {
        let (tx_a, rx_a) = bounded(4);
        let (tx_b, rx_b) = bounded(4);
        let mut edge = EdgeWriter {
            batch: SegmentBufBuilder::new(),
            outs: vec![tx_a, tx_b],
            depth: Gauge::detached(),
        };
        for _ in 0..=PUSH_RECORDS {
            edge.push(b"k", b"v");
        }
        drop(edge); // the odd pair goes out as a short split
        let pairs_of = |rx: &crossbeam::channel::Receiver<Result<Split>>| -> Vec<_> {
            rx.iter()
                .map(|split| split.unwrap().pairs.expect("an edge carries pairs"))
                .collect()
        };
        let (a, b) = (pairs_of(&rx_a), pairs_of(&rx_b));
        assert_eq!(
            a.iter().map(|p| p.len()).collect::<Vec<_>>(),
            [PUSH_RECORDS, 1]
        );
        assert_eq!(a.len(), b.len());
        for (a, b) in a.iter().zip(&b) {
            assert!(std::ptr::eq(a.key(0), b.key(0)), "one arena, shared");
        }
    }

    #[test]
    fn upstream_failure_propagates_to_the_plan_error() {
        // Map fn that panics on the marker word.
        fn bad_map(record: &[u8], out: &mut dyn MapEmitter) {
            if record == b"boom" {
                panic!("injected upstream failure");
            }
            word_map(record, out);
        }
        let stage1 = JobSpec::builder("upstream")
            .map_fn(Arc::new(bad_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(2)
            .build()
            .unwrap();
        let (job2, pairs2) = histogram_stage("downstream");
        let mut b = Plan::builder();
        let s1 = b.add_stage(stage1);
        let s2 = b.add_pair_stage(job2, pairs2);
        b.connect(s1, s2);
        let plan = b.build().unwrap();

        let splits = vec![Split::new(vec![b"a b".to_vec(), b"boom".to_vec()])];
        let err = Engine::new().run_plan(&plan, splits).unwrap_err();
        assert!(
            err.to_string().contains("injected upstream failure"),
            "the root cause must surface, got: {err}"
        );
    }

    /// Upstream of the edge tests: `records` key ranges, each counted by
    /// one reducer into `PUSH_RECORDS` finals, one edge split.
    fn key_ranges(records: usize) -> (JobSpec, Vec<Split>) {
        fn key_range(record: &[u8], out: &mut dyn MapEmitter) {
            let start = u64::from_le_bytes(record.try_into().unwrap());
            for k in start..start + PUSH_RECORDS as u64 {
                out.emit(&k.to_le_bytes(), &1u64.to_le_bytes());
            }
        }
        let job = JobSpec::builder("upstream")
            .map_fn(Arc::new(key_range))
            .aggregate(Arc::new(SumAgg))
            .reducers(1)
            .backend(ReduceBackend::IncHash { early_every: None })
            .build()
            .unwrap();
        let starts = (0..records).map(|i| ((i * PUSH_RECORDS) as u64).to_le_bytes().to_vec());
        (job, vec![Split::new(starts.collect())])
    }

    /// The key ranges' histogram stage, behind a pair function that calls
    /// `hold` on every pair first.
    fn held_plan(records: usize, hold: impl Fn() + Send + Sync + 'static) -> (Plan, Vec<Split>) {
        let (upstream, input) = key_ranges(records);
        let (job, pairs) = histogram_stage("held");
        let held: Arc<dyn PairMap> =
            Arc::new(move |key: &[u8], value: &[u8], out: &mut dyn MapEmitter| {
                hold();
                pairs.map_pair(key, value, out);
            });
        let mut b = Plan::builder();
        let s1 = b.add_stage(upstream);
        let s2 = b.add_pair_stage(job, held);
        b.connect(s1, s2);
        (b.build().unwrap(), input)
    }

    /// A sink that has not mapped a pair yet keeps all but
    /// `EDGE_DEPTH` + a map slot's worth of the edge out of its feed, so
    /// its upstream reducer cannot finish before the test lets the sink go.
    #[test]
    fn slow_downstream_holds_its_upstream_back() {
        const HOLD: Duration = Duration::from_secs(1);
        // (entered, released)
        let gate = Arc::new((Mutex::new((false, false)), Condvar::new()));
        let records = 4 * EDGE_DEPTH;
        let (plan, input) = held_plan(records, {
            let gate = Arc::clone(&gate);
            move || {
                let (state, cv) = &*gate;
                let mut st = state.lock().unwrap();
                st.0 = true;
                cv.notify_all();
                while !st.1 {
                    st = cv.wait(st).unwrap();
                }
            }
        });
        let engine = Engine::with_config(EngineConfig::builder().map_workers(2).build());
        let report = std::thread::scope(|scope| {
            let run = scope.spawn(|| engine.run_plan(&plan, input));
            let (state, cv) = &*gate;
            let mut st = cv.wait_while(state.lock().unwrap(), |st| !st.0).unwrap();
            drop(st);
            std::thread::sleep(HOLD);
            st = state.lock().unwrap();
            st.1 = true;
            cv.notify_all();
            drop(st);
            run.join().unwrap()
        })
        .unwrap();
        let upstream = report.stages[0].report.wall;
        assert!(
            upstream >= HOLD,
            "the upstream finished at {upstream:?}, inside the sink's {HOLD:?} hold"
        );
        let pairs = (records * PUSH_RECORDS) as u64;
        assert_eq!(hist_of(&report), BTreeMap::from([(1, pairs)]));
    }

    /// A sink that fails while its edge is full hangs up on the edge, so
    /// the blocked upstream finishes and the plan returns the sink's error.
    #[test]
    fn failed_downstream_releases_its_blocked_upstream() {
        const DEADLINE: Duration = Duration::from_secs(30);
        let metrics = onepass_core::obs::MetricsRegistry::new();
        let depth = metrics.gauge(names::PLAN_EDGE_DEPTH, &[("stage", "upstream")]);
        let (plan, input) = held_plan(4 * EDGE_DEPTH, move || {
            let since = Instant::now();
            while depth.value() < EDGE_DEPTH as f64 && since.elapsed() < DEADLINE {
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("injected downstream failure");
        });
        let engine = Engine::with_config(
            EngineConfig::builder()
                .map_workers(2)
                .metrics(metrics)
                .build(),
        );
        let (tx, rx) = crossbeam::channel::bounded(1);
        let run = std::thread::spawn(move || {
            let _ = tx.send(engine.run_plan(&plan, input));
        });
        let err = rx
            .recv_timeout(DEADLINE)
            .expect("the plan returns within its deadline")
            .unwrap_err();
        assert!(
            err.to_string().contains("injected downstream failure"),
            "the sink's error must surface, got: {err}"
        );
        run.join().unwrap();
    }

    #[test]
    fn plan_validation_rejects_bad_shapes() {
        // Empty plan.
        assert!(matches!(Plan::builder().build(), Err(Error::Config(_))));

        // Self-loop.
        let mut b = Plan::builder();
        let s = b.add_stage(wordcount("w"));
        b.connect(s, s);
        assert!(matches!(b.build(), Err(Error::Config(_))));

        // Duplicate edge.
        let mut b = Plan::builder();
        let s1 = b.add_stage(wordcount("w1"));
        let s2 = b.add_stage(wordcount("w2"));
        b.connect(s1, s2);
        b.connect(s1, s2);
        assert!(matches!(b.build(), Err(Error::Config(_))));

        // Two sources.
        let mut b = Plan::builder();
        let s1 = b.add_stage(wordcount("w1"));
        let s2 = b.add_stage(wordcount("w2"));
        let s3 = b.add_stage(wordcount("w3"));
        b.connect(s1, s3);
        b.connect(s2, s3);
        assert!(matches!(b.build(), Err(Error::Config(_))));

        // Cycle (no source at all reports the source-count error; a cycle
        // below a valid source reports the cycle).
        let mut b = Plan::builder();
        let s1 = b.add_stage(wordcount("w1"));
        let s2 = b.add_stage(wordcount("w2"));
        let s3 = b.add_stage(wordcount("w3"));
        b.connect(s1, s2);
        b.connect(s2, s3);
        b.connect(s3, s2);
        assert!(matches!(b.build(), Err(Error::Config(_))));
    }

    #[test]
    fn linear_matches_builder_topology() {
        let plan = Plan::linear(vec![wordcount("a"), wordcount("b"), wordcount("c")]).unwrap();
        assert_eq!(plan.stage_count(), 3);
        assert_eq!(plan.order, vec![0, 1, 2]);
        assert_eq!(plan.incoming, vec![vec![], vec![0], vec![1]]);
        assert_eq!(plan.jobs().nth(1).unwrap().name, "b");
    }
}
