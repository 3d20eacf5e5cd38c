//! Staged query plans: a DAG of MapReduce stages executed either as a
//! sequence of materialized jobs (barrier mode, classic Hadoop multi-job
//! behaviour) or fully pipelined, with each stage's final answers
//! streaming into downstream map tasks while upstream reducers are still
//! running.
//!
//! Real analytical queries rarely fit one MapReduce job — the paper's
//! related work (Pig, Hive) compiles queries into job *DAGs*, and §IV's
//! architecture pipelines data "from mappers to reducers and between
//! jobs". [`Plan::linear`] covers the classic linear chain:
//!
//! * Stages are connected by **edges** carrying the edge record codec
//!   ([`crate::codec::encode_pair`]): each final `(key, value)` of an
//!   upstream stage becomes one input record of its downstream stages.
//! * In [`PlanMode::Pipelined`] (the default) every stage runs
//!   concurrently; upstream finals are batched into [`Split`]s of
//!   [`PlanConfig::records_per_split`] records and pushed over a bounded
//!   channel into the downstream stage's streamed split feed. Downstream
//!   map and reduce work overlaps the upstream stage, so multi-stage
//!   time-to-first-answer drops without changing the final answer.
//! * In [`PlanMode::Barrier`] stages run one at a time in topological
//!   order, each consuming its predecessors' fully materialized output —
//!   the baseline the pipelined mode is measured against.
//!
//! Downstream stages usually want decoded pairs, not raw edge records:
//! [`PlanBuilder::add_pair_stage`] takes a [`PairMap`] and the plan wraps
//! it with the edge decoder. Malformed edge records are **counted per
//! stage** and fail the stage once they exceed
//! [`PlanConfig::max_decode_errors`] (default 0: any corruption is an
//! error, never a silent skip).
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam::channel::{bounded, Sender};
use onepass_core::error::{Error, Result};
use onepass_core::governor::{MemoryGovernor, MemoryPolicy};
use onepass_core::obs::{names, Gauge};
use onepass_core::trace::Track;
use onepass_groupby::EmitKind;

use crate::cache::DatasetCache;
use crate::codec::{decode_pair, encode_pair};
use crate::driver::Engine;
use crate::executor::{self, ExecParams, ReduceTap, TapFactory};
use crate::job::{CollectOutput, JobSpec, MapEmitter, MapFn};
use crate::map_task::Split;
use crate::report::{PlanReport, StageReport};
use crate::scheduler::SplitFeed;
use crate::shuffle::PressureGate;

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

/// How the stages of a plan are executed relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// All stages run concurrently; upstream finals stream into
    /// downstream split feeds as they are produced.
    #[default]
    Pipelined,
    /// Stages run one at a time in topological order, each consuming its
    /// predecessors' fully materialized output (classic Hadoop multi-job
    /// behaviour).
    Barrier,
}

impl PlanMode {
    /// Lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PlanMode::Pipelined => "pipelined",
            PlanMode::Barrier => "barrier",
        }
    }
}

/// Options for [`Engine::run_plan`].
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Pipelined (default) or barrier execution.
    pub mode: PlanMode,
    /// Records per inter-stage split. Smaller batches reach downstream
    /// maps sooner; larger ones amortize per-split scheduling. Default
    /// 4096 (the chain default).
    pub records_per_split: usize,
    /// Bound of each pipelined edge channel, in splits. A full edge
    /// blocks the upstream reducer's emission — the same backpressure
    /// push shuffling applies within a job (§III-D), extended across
    /// stages. Default 16.
    pub edge_depth: usize,
    /// Maximum malformed inter-stage records a stage may skip before it
    /// fails. Default 0: any corrupt edge record fails the stage rather
    /// than silently dropping data.
    pub max_decode_errors: u64,
}

impl PlanConfig {
    /// Defaults with the given execution mode.
    pub fn new(mode: PlanMode) -> Self {
        PlanConfig {
            mode,
            ..Default::default()
        }
    }
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            mode: PlanMode::default(),
            records_per_split: 4096,
            edge_depth: 16,
            max_decode_errors: 0,
        }
    }
}

/// A map function over decoded inter-stage pairs.
///
/// Stages added with [`PlanBuilder::add_pair_stage`] receive each edge
/// record already decoded through the chain codec, so workloads don't
/// hand-roll [`decode_pair`] calls (and can't silently ignore corrupt
/// records — the plan counts and bounds those centrally).
pub trait PairMap: Send + Sync {
    /// Process one decoded `(key, value)` pair.
    fn map_pair(&self, key: &[u8], value: &[u8], out: &mut dyn MapEmitter);
}

/// Blanket adapter so closures can serve as pair-map functions.
impl<F> PairMap for F
where
    F: Fn(&[u8], &[u8], &mut dyn MapEmitter) + Send + Sync,
{
    fn map_pair(&self, key: &[u8], value: &[u8], out: &mut dyn MapEmitter) {
        self(key, value, out)
    }
}

/// How a stage interprets its input records.
pub(crate) enum StageInput {
    /// The job's own map function sees raw records (source stages, or
    /// stages that do their own edge decoding, like legacy chains).
    Records,
    /// Records are decoded through the chain codec first and handed to
    /// this pair-map; the job's `map_fn` is replaced at run time.
    Pairs(Arc<dyn PairMap>),
}

/// A cache edge feeding a stage from a named dataset.
pub(crate) struct CachedInput {
    pub(crate) name: String,
    /// Request the shuffle short-circuit: applied only when the cached
    /// partition count equals the stage's reducer count.
    pub(crate) aligned: bool,
}

/// One node of the DAG: a complete MapReduce job plus its input codec
/// and cache edges.
pub(crate) struct Stage {
    pub(crate) job: JobSpec,
    pub(crate) input: StageInput,
    /// Capture this stage's finals into the dataset cache under this
    /// name (partitioned by the stage's own partitioner/reducer count).
    pub(crate) cache_output: Option<String>,
    /// Datasets fed into this stage as cache-hit splits.
    pub(crate) cached_inputs: Vec<CachedInput>,
}

impl Stage {
    fn new(job: JobSpec, input: StageInput) -> Self {
        Stage {
            job,
            input,
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

    /// Add a stage whose map function reads raw records (the plan's input
    /// for source stages, encoded edge records otherwise).
    pub fn add_stage(&mut self, job: JobSpec) -> StageId {
        self.stages.push(Stage::new(job, StageInput::Records));
        StageId(self.stages.len() - 1)
    }

    /// Add a stage whose records are decoded through the edge codec and
    /// handed to `pairs` (see [`PairMap`]). The job's own `map_fn` is
    /// ignored.
    pub fn add_pair_stage(&mut self, job: JobSpec, pairs: Arc<dyn PairMap>) -> StageId {
        self.stages.push(Stage::new(job, StageInput::Pairs(pairs)));
        StageId(self.stages.len() - 1)
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
    /// The stage must collect output.
    pub fn cache_output(&mut self, stage: StageId, name: &str) -> &mut Self {
        self.stages[stage.0].cache_output = Some(name.to_string());
        self
    }

    /// Feed the cached dataset `name` into `stage` as zero-copy map
    /// splits (each partition one split of framed pairs, mapped through
    /// [`MapFn::map_pair`] — no re-scan,
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
    /// stages that feed downstream stages without collecting output, and
    /// invalid per-stage job specs.
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

    /// A linear chain: each job's finals feed the next job's input (the
    /// classic materialize-then-re-split multi-job topology when run in
    /// [`PlanMode::Barrier`]).
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

    /// Name of a stage's job.
    pub fn stage_name(&self, stage: StageId) -> &str {
        &self.stages[stage.0].job.name
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

        for (i, stage) in stages.iter().enumerate() {
            if !outgoing[i].is_empty() && !stage.job.collect_output.is_collect() {
                return Err(Error::Config(format!(
                    "plan stage {i} ({}) must collect output to feed its downstream stages",
                    stage.job.name
                )));
            }
            if stage.cache_output.is_some() && !stage.job.collect_output.is_collect() {
                return Err(Error::Config(format!(
                    "plan stage {i} ({}) must collect output to cache it",
                    stage.job.name
                )));
            }
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

/// The runtime map function of a pair stage: decode the edge record, count
/// (and bound) corruption, delegate good pairs to the user's [`PairMap`].
struct DecodingMap {
    inner: Arc<dyn PairMap>,
    errors: Arc<AtomicU64>,
    max_errors: u64,
}

impl MapFn for DecodingMap {
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        match decode_pair(record) {
            Some((key, value)) => self.inner.map_pair(key, value, out),
            None => {
                let n = self.errors.fetch_add(1, Ordering::Relaxed) + 1;
                if n > self.max_errors {
                    // A panicking map function is a task failure: the
                    // scheduler applies the retry budget, and exhaustion
                    // fails the stage — corruption is never silent.
                    panic!(
                        "malformed inter-stage record ({n} decode errors exceed threshold {})",
                        self.max_errors
                    );
                }
            }
        }
    }
}

/// The job actually executed for a stage, plus its decode-error counter
/// (pair stages only). With `streams_output` (pipelined interior stages),
/// finals flow downstream through the edge writer only — the stage does
/// not also materialize them in its report, mirroring how the paper's
/// pipeline avoids materializing data between jobs (§IV).
fn effective_job(
    stage: &Stage,
    cfg: &PlanConfig,
    streams_output: bool,
) -> (JobSpec, Option<Arc<AtomicU64>>) {
    let mut job = stage.job.clone();
    if streams_output {
        job.collect_output = CollectOutput::Discard;
    }
    match &stage.input {
        StageInput::Records => (job, None),
        StageInput::Pairs(pairs) => {
            let errors = Arc::new(AtomicU64::new(0));
            job.map_fn = Arc::new(DecodingMap {
                inner: Arc::clone(pairs),
                errors: Arc::clone(&errors),
                max_errors: cfg.max_decode_errors,
            });
            (job, Some(errors))
        }
    }
}

/// Backstop threshold check after a stage completes (the in-task panic
/// already catches most overruns; this covers retried attempts that
/// accumulated skips without any single attempt overrunning).
fn check_decode_errors(stage: usize, name: &str, errors: u64, cfg: &PlanConfig) -> Result<()> {
    if errors > cfg.max_decode_errors {
        return Err(Error::InvalidState(format!(
            "plan stage {stage} ({name}) skipped {errors} malformed inter-stage records \
             (threshold {})",
            cfg.max_decode_errors
        )));
    }
    Ok(())
}

/// Batch encoded records into splits of `per_split` records.
fn split_records(records: Vec<Vec<u8>>, per_split: usize) -> Vec<Split> {
    let per = per_split.max(1);
    let mut splits = Vec::new();
    let mut it = records.into_iter();
    loop {
        let chunk: Vec<Vec<u8>> = it.by_ref().take(per).collect();
        if chunk.is_empty() {
            return splits;
        }
        splits.push(Split::new(chunk));
    }
}

/// Streams one stage's final answers into its downstream split feeds:
/// finals are encoded through the chain codec, batched into splits, and
/// fanned out to every outgoing edge channel.
struct EdgeWriter {
    per_split: usize,
    buf: Vec<Vec<u8>>,
    outs: Vec<Sender<Result<Split>>>,
    /// Gates edge sends on shared-governor memory pressure, exactly like
    /// map-side shuffle pushes within a job.
    gate: Option<PressureGate>,
    /// `onepass_plan_edge_depth{stage}` — sampled after each flush so a
    /// scraper sees how far ahead this stage runs of its consumers.
    depth: Gauge,
}

impl EdgeWriter {
    /// Append one already-encoded record. Encoding happens on the caller's
    /// side of the lock: concurrently-draining reducers would otherwise
    /// serialize on the allocation and copy, not just the buffer push.
    fn push(&mut self, record: Vec<u8>) {
        self.buf.push(record);
        if self.buf.len() >= self.per_split {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() || self.outs.is_empty() {
            return;
        }
        let split = Split::new(std::mem::take(&mut self.buf));
        let last = self.outs.len() - 1;
        for tx in &self.outs[..last] {
            if let Some(g) = &self.gate {
                g.admit(tx);
            }
            // A send error means the downstream stage already hung up
            // (it failed); its own error surfaces through the join below.
            let _ = tx.send(Ok(split.clone()));
        }
        let tx = &self.outs[last];
        if let Some(g) = &self.gate {
            g.admit(tx);
        }
        let _ = tx.send(Ok(split));
        let deepest = self.outs.iter().map(|tx| tx.len()).max().unwrap_or(0);
        self.depth.set(deepest as f64);
    }

    /// Flush the remainder and hang up, closing the downstream feeds.
    fn finish(&mut self) {
        self.flush();
        self.outs.clear();
    }

    /// Tell every downstream stage this stage failed, then hang up.
    fn poison(&mut self, msg: &str) {
        for tx in &self.outs {
            let _ = tx.send(Err(Error::InvalidState(msg.to_string())));
        }
        self.outs.clear();
    }
}

/// Per-reducer writers (owned by a [`TapFactory`]'s closures) flush their
/// remainder when the reducer's sink drops, inside the stage's execute
/// call — before the stage-level writer hangs up the feed. The
/// stage-level writer's buffer is empty (reducers never touch it), so
/// after an explicit `finish`/`poison` this is a no-op.
impl Drop for EdgeWriter {
    fn drop(&mut self) {
        self.flush();
    }
}

fn lock_writer(w: &Mutex<EdgeWriter>) -> std::sync::MutexGuard<'_, EdgeWriter> {
    // A poisoned lock means some emitting thread panicked mid-push; the
    // stage itself reports that failure, so it is safe to keep flushing
    // (worst case: a partial buffer the poisoned stage would discard).
    w.lock().unwrap_or_else(|p| p.into_inner())
}

impl Engine {
    /// Run a multi-stage [`Plan`] over `input` (fed to the plan's single
    /// source stage). Returns the per-stage reports plus plan-level
    /// timings; all task spans and output timestamps are measured against
    /// the *plan* start, so time-to-first-answer is comparable across
    /// modes.
    pub fn run_plan(
        &self,
        plan: &Plan,
        input: Vec<Split>,
        config: &PlanConfig,
    ) -> Result<PlanReport> {
        self.run_plan_with_cache(plan, input, config, None)
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
        config: &PlanConfig,
        cache: Option<&DatasetCache>,
    ) -> Result<PlanReport> {
        if plan.uses_cache() && cache.is_none() {
            return Err(Error::Config(
                "plan has cache edges; run it through run_plan_with_cache with a DatasetCache"
                    .into(),
            ));
        }
        if plan.record_source().is_none() && !input.is_empty() {
            return Err(Error::Config(
                "plan has no record source stage (all stages are cache-fed) but input is not \
                 empty"
                    .into(),
            ));
        }
        let clock = Instant::now();
        let report = match config.mode {
            PlanMode::Barrier => run_barrier(self, plan, input, config, clock, cache)?,
            PlanMode::Pipelined => run_pipelined(self, plan, input, config, clock, cache)?,
        };
        capture_cache_outputs(plan, &report, cache)?;
        Ok(report)
    }
}

/// Publish every `cache_output` stage's finals into the cache,
/// partitioned by the stage's own partitioner over its reducer count and
/// key-sorted within each partition — deterministic dataset bytes
/// regardless of reduction order, so replays and re-runs converge on
/// identical cache content.
fn capture_cache_outputs(
    plan: &Plan,
    report: &PlanReport,
    cache: Option<&DatasetCache>,
) -> Result<()> {
    for (s, stage) in plan.stages.iter().enumerate() {
        let name = match &stage.cache_output {
            Some(name) => name,
            None => continue,
        };
        let cache = cache.expect("checked in run_plan_with_cache");
        let job = &stage.job;
        let reducers = job.reducers.max(1);
        let sr = &report.stages[s];
        let parts = crate::cache::partition_pairs(
            sr.report
                .outputs
                .iter()
                .filter(|o| o.kind == EmitKind::Final)
                .map(|o| (o.key.as_slice(), o.value.as_slice())),
            reducers,
            |k| job.partitioner.partition(k, reducers),
        )?;
        let parts: Vec<_> = parts.into_iter().map(|p| p.sorted_by_key()).collect();
        cache.put(name, parts)?;
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
        let cache = cache.expect("checked in run_plan_with_cache");
        let parts = cache.get(&ci.name)?.ok_or_else(|| {
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

fn assemble(mode: PlanMode, clock: Instant, stages: Vec<StageReport>) -> PlanReport {
    let first_final_at = stages
        .iter()
        .filter(|s| s.is_sink)
        .filter_map(|s| s.report.first_final_at)
        .min();
    PlanReport {
        mode: mode.label(),
        wall: clock.elapsed(),
        first_final_at,
        stages,
    }
}

/// Barrier execution: stages run one at a time in topological order; each
/// stage's finals are materialized, re-encoded, and re-split before any
/// downstream stage starts.
fn run_barrier(
    engine: &Engine,
    plan: &Plan,
    input: Vec<Split>,
    cfg: &PlanConfig,
    clock: Instant,
    cache: Option<&DatasetCache>,
) -> Result<PlanReport> {
    let n = plan.stages.len();
    let tracer = &engine.config().tracer;
    let record_source = plan.record_source();
    let mut finals: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
    let mut stage_reports: Vec<Option<StageReport>> = (0..n).map(|_| None).collect();
    let mut input = Some(input);

    for &s in &plan.order {
        let stage = &plan.stages[s];
        let (job, errors) = effective_job(stage, cfg, false);
        let mut splits = if record_source == Some(s) {
            input.take().expect("one record source stage")
        } else if !plan.incoming[s].is_empty() {
            let mut records = Vec::new();
            for &u in &plan.incoming[s] {
                records.extend(finals[u].iter().cloned());
            }
            split_records(records, cfg.records_per_split)
        } else {
            Vec::new()
        };
        splits.extend(cached_splits(plan, s, cache)?);

        let mut st_trace = tracer.local(Track::new("stage", s as u64));
        st_trace.begin("stage", "plan");
        let res = executor::execute(ExecParams {
            config: engine.config(),
            job: &job,
            feed: SplitFeed::Fixed(splits),
            clock,
            tap: None,
            governor: None,
            track_offset: s as u64 * TRACK_STRIDE,
        });
        st_trace.end("stage", "plan");
        let decode_errors = errors.as_ref().map_or(0, |e| e.load(Ordering::Relaxed));
        if decode_errors > 0 {
            st_trace.instant(
                "decode_errors",
                "plan",
                &[("stage", s as f64), ("count", decode_errors as f64)],
            );
        }
        drop(st_trace);

        let report = res?;
        check_decode_errors(s, &stage.job.name, decode_errors, cfg)?;
        if !plan.outgoing[s].is_empty() {
            finals[s] = report
                .outputs
                .iter()
                .filter(|o| o.kind == EmitKind::Final)
                .map(|o| encode_pair(&o.key, &o.value))
                .collect();
        }
        stage_reports[s] = Some(StageReport {
            stage: s,
            name: stage.job.name.clone(),
            is_sink: plan.outgoing[s].is_empty(),
            decode_errors,
            report,
        });
    }

    Ok(assemble(
        PlanMode::Barrier,
        clock,
        stage_reports
            .into_iter()
            .map(|r| r.expect("every stage ran"))
            .collect(),
    ))
}

/// Pipelined execution: one thread per stage, all running concurrently.
/// Each non-source stage consumes a bounded channel of splits; each stage
/// with downstream consumers taps its sinks' final emissions and streams
/// them into those channels as they happen.
fn run_pipelined(
    engine: &Engine,
    plan: &Plan,
    input: Vec<Split>,
    cfg: &PlanConfig,
    clock: Instant,
    cache: Option<&DatasetCache>,
) -> Result<PlanReport> {
    let n = plan.stages.len();
    let config = engine.config();
    let tracer = &config.tracer;
    let record_source = plan.record_source();

    // Under adaptive memory policy, all concurrently-live stages share one
    // governed pool sized for the whole plan, so a memory-hungry stage
    // can borrow slack from (and shed back to) its neighbours. A cache
    // leased from a governor brings its own pool — reusing it puts the
    // rounds' reducers and the cache in one arbitration domain, which is
    // what lets reducer pressure evict cached datasets instead of
    // spilling live tables.
    let governor = match &config.memory_policy {
        MemoryPolicy::Static => None,
        MemoryPolicy::Adaptive { policy, high_water } => {
            match cache.and_then(|c| c.governor().cloned()) {
                Some(g) => Some(g),
                None => {
                    let pool = plan.stages.iter().fold(0usize, |acc, st| {
                        acc.saturating_add(
                            st.job
                                .reduce_budget_bytes
                                .saturating_mul(st.job.reducers.max(1)),
                        )
                    });
                    Some(MemoryGovernor::new(pool, Arc::clone(policy), *high_water))
                }
            }
        }
    };

    // A stage that caches its output must materialize it even when it
    // also streams downstream: the capture reads the stage report.
    let jobs: Vec<(JobSpec, Option<Arc<AtomicU64>>)> = plan
        .stages
        .iter()
        .enumerate()
        .map(|(s, stage)| {
            let streams = !plan.outgoing[s].is_empty() && stage.cache_output.is_none();
            effective_job(stage, cfg, streams)
        })
        .collect();

    // One bounded channel per non-source stage. Multiple upstreams of one
    // stage share the channel through cloned senders (fan-in); the feed
    // closes when the last upstream finishes and drops its clone.
    // Cache-hit splits ride the same channels: a feeder thread per
    // cache-fed streamed stage pushes them in alongside live upstream
    // output.
    let mut stage_tx: Vec<Option<Sender<Result<Split>>>> = (0..n).map(|_| None).collect();
    let mut feeds: Vec<Option<SplitFeed>> = (0..n).map(|_| None).collect();
    let mut cache_feeders: Vec<(Sender<Result<Split>>, Vec<Split>)> = Vec::new();
    let mut input = Some(input);
    for s in 0..n {
        if record_source == Some(s) {
            // A record source may *also* have cached inputs (the
            // two-input join shape): its feed is records plus cache.
            let mut fixed = input.take().expect("one record source stage");
            fixed.extend(cached_splits(plan, s, cache)?);
            feeds[s] = Some(SplitFeed::Fixed(fixed));
        } else if plan.incoming[s].is_empty() {
            // Fed purely by cache edges: the whole feed is known up front.
            feeds[s] = Some(SplitFeed::Fixed(cached_splits(plan, s, cache)?));
        } else {
            let (tx, rx) = bounded(cfg.edge_depth.max(1));
            let cached = cached_splits(plan, s, cache)?;
            if !cached.is_empty() {
                cache_feeders.push((tx.clone(), cached));
            }
            stage_tx[s] = Some(tx);
            feeds[s] = Some(SplitFeed::Streamed(rx));
        }
    }

    let mut writers: Vec<Option<Arc<Mutex<EdgeWriter>>>> = (0..n).map(|_| None).collect();
    let mut taps: Vec<Option<TapFactory>> = (0..n).map(|_| None).collect();
    for s in 0..n {
        if plan.outgoing[s].is_empty() {
            continue;
        }
        let outs: Vec<Sender<Result<Split>>> = plan.outgoing[s]
            .iter()
            .map(|&d| stage_tx[d].clone().expect("downstream stage has a channel"))
            .collect();
        let gate = governor
            .as_ref()
            .map(|g| PressureGate::new(g.clone(), cfg.edge_depth.max(1)));
        let depth = Gauge::of(
            config.metrics.as_ref(),
            names::PLAN_EDGE_DEPTH,
            &[("stage", &plan.stages[s].job.name)],
        );
        let writer = Arc::new(Mutex::new(EdgeWriter {
            per_split: cfg.records_per_split.max(1),
            buf: Vec::new(),
            outs,
            gate,
            depth,
        }));
        // Each reducer gets a private writer over cloned senders, so the
        // emission hot path never takes a shared lock: concurrently
        // draining reducers would serialize (and, on few cores, convoy)
        // on it. The factory snapshots the senders from the stage-level
        // writer at reducer start; per-reducer clones drop with the
        // reducer's sink, the stage-level set via `finish`/`poison`, and
        // the feed closes when the last of either is gone.
        let tap_writer = Arc::clone(&writer);
        let per_split = cfg.records_per_split.max(1);
        taps[s] = Some(Arc::new(move |_partition: usize| {
            let (outs, gate, depth) = {
                let w = lock_writer(&tap_writer);
                (w.outs.clone(), w.gate.clone(), w.depth.clone())
            };
            let mut edge = EdgeWriter {
                per_split,
                buf: Vec::new(),
                outs,
                gate,
                depth,
            };
            Box::new(move |key: &[u8], value: &[u8], kind: EmitKind| {
                if kind == EmitKind::Final {
                    edge.push(encode_pair(key, value));
                }
            }) as ReduceTap
        }) as TapFactory);
        writers[s] = Some(writer);
    }
    // Only the edge writers hold senders now: each downstream feed closes
    // exactly when all of its upstream stages have finished or failed.
    drop(stage_tx);

    let mut results: Vec<Option<Result<crate::report::JobReport>>> = (0..n).map(|_| None).collect();
    crossbeam::thread::scope(|scope| {
        // Cache feeders block on the bounded edge like any upstream
        // producer; dropping their sender clone lets the feed close once
        // the live upstreams finish too.
        for (tx, splits) in cache_feeders.drain(..) {
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
        for s in 0..n {
            let feed = feeds[s].take().expect("every stage has a feed");
            let job = &jobs[s].0;
            let tap = taps[s].clone();
            let governor = governor.clone();
            let writer = writers[s].clone();
            let name = plan.stages[s].job.name.clone();
            handles.push(scope.spawn(move |_| {
                let mut st_trace = tracer.local(Track::new("stage", s as u64));
                st_trace.begin("stage", "plan");
                let res = executor::execute(ExecParams {
                    config,
                    job,
                    feed,
                    clock,
                    tap,
                    governor,
                    track_offset: s as u64 * TRACK_STRIDE,
                });
                st_trace.end("stage", "plan");
                drop(st_trace);
                // Close (or poison) the downstream feeds *before* this
                // thread exits, so consumers never wait on a dead stage.
                if let Some(w) = &writer {
                    let mut w = lock_writer(w);
                    match &res {
                        Ok(_) => w.finish(),
                        Err(e) => w.poison(&format!("upstream stage {s} ({name}) failed: {e}")),
                    }
                }
                res
            }));
        }
        for (s, h) in handles.into_iter().enumerate() {
            results[s] = Some(h.join().expect("stage thread panicked"));
        }
    })
    .map_err(|_| Error::InvalidState("plan stage worker panicked".into()))?;

    // Surface the topologically-first failure: downstream errors are
    // poisoned-edge echoes of the root cause.
    for &s in &plan.order {
        let slot = results[s].as_ref().expect("every stage ran");
        if slot.is_err() {
            return Err(results[s].take().expect("present").unwrap_err());
        }
        let decode_errors = jobs[s].1.as_ref().map_or(0, |e| e.load(Ordering::Relaxed));
        check_decode_errors(s, &plan.stages[s].job.name, decode_errors, cfg)?;
    }

    let mut stage_reports = Vec::with_capacity(n);
    for s in 0..n {
        let report = results[s]
            .take()
            .expect("every stage ran")
            .expect("errors returned above");
        let decode_errors = jobs[s].1.as_ref().map_or(0, |e| e.load(Ordering::Relaxed));
        if decode_errors > 0 {
            let mut st_trace = tracer.local(Track::new("stage", s as u64));
            st_trace.instant(
                "decode_errors",
                "plan",
                &[("stage", s as f64), ("count", decode_errors as f64)],
            );
        }
        stage_reports.push(StageReport {
            stage: s,
            name: plan.stages[s].job.name.clone(),
            is_sink: plan.outgoing[s].is_empty(),
            decode_errors,
            report,
        });
    }

    Ok(assemble(PlanMode::Pipelined, clock, stage_reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::EngineConfig;
    use crate::job::{CollectOutput, MapEmitter, ReduceBackend};
    use onepass_groupby::SumAgg;
    use std::collections::BTreeMap;

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
            .map_fn(Arc::new(word_map)) // replaced by the pair decoder
            .aggregate(Arc::new(SumAgg))
            .reducers(2)
            .backend(ReduceBackend::IncHash { early: None })
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
    fn pipelined_and_barrier_agree_on_a_two_stage_plan() {
        let engine = Engine::new();
        let plan = histogram_plan();
        let expected = BTreeMap::from([(4, 1), (2, 2), (1, 1)]);

        let barrier = engine
            .run_plan(
                &plan,
                input(),
                &PlanConfig {
                    mode: PlanMode::Barrier,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(barrier.mode, "barrier");
        assert_eq!(hist_of(&barrier), expected);

        let pipelined = engine
            .run_plan(&plan, input(), &PlanConfig::default())
            .unwrap();
        assert_eq!(pipelined.mode, "pipelined");
        assert_eq!(hist_of(&pipelined), expected);
        assert_eq!(pipelined.stages.len(), 2);
        assert!(!pipelined.stages[0].is_sink);
        assert!(pipelined.stages[1].is_sink);
        assert!(pipelined.first_final_at.is_some());
        assert_eq!(pipelined.stages[0].report.groups_out, 4);
        assert_eq!(
            pipelined.sorted_final_outputs(),
            barrier.sorted_final_outputs()
        );
    }

    #[test]
    fn fan_out_feeds_both_downstream_stages() {
        for mode in [PlanMode::Pipelined, PlanMode::Barrier] {
            let mut b = Plan::builder();
            let src = b.add_stage(wordcount("wordcount"));
            let (job1, pairs1) = histogram_stage("hist-a");
            let (job2, pairs2) = histogram_stage("hist-b");
            let d1 = b.add_pair_stage(job1, pairs1);
            let d2 = b.add_pair_stage(job2, pairs2);
            b.connect(src, d1);
            b.connect(src, d2);
            let plan = b.build().unwrap();

            let report = Engine::new()
                .run_plan(
                    &plan,
                    input(),
                    &PlanConfig {
                        mode,
                        ..Default::default()
                    },
                )
                .unwrap();
            // Both sinks compute the same histogram over the same edge
            // data, so the combined multiset holds every pair twice.
            let mut counts: BTreeMap<(Vec<u8>, Vec<u8>), usize> = BTreeMap::new();
            for kv in report.sorted_final_outputs() {
                *counts.entry(kv).or_default() += 1;
            }
            assert_eq!(counts.len(), 3, "{mode:?}");
            assert!(counts.values().all(|&c| c == 2), "{mode:?}");
        }
    }

    #[test]
    fn malformed_edge_records_fail_the_stage_by_default() {
        let (job, pairs) = histogram_stage("decode");
        let mut b = Plan::builder();
        b.add_pair_stage(job, pairs);
        let plan = b.build().unwrap();

        // One well-formed record between two corrupt ones.
        let splits = vec![Split::new(vec![
            vec![200, 0, 0, 0, 1],
            encode_pair(b"k", &7u64.to_le_bytes()),
            b"xy".to_vec(),
        ])];
        let err = Engine::new()
            .run_plan(&plan, splits, &PlanConfig::default())
            .unwrap_err();
        assert!(
            err.to_string().contains("malformed inter-stage record"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn decode_error_threshold_allows_bounded_skips_and_reports_them() {
        let (job, pairs) = histogram_stage("decode");
        let mut b = Plan::builder();
        b.add_pair_stage(job, pairs);
        let plan = b.build().unwrap();

        let splits = vec![Split::new(vec![
            vec![200, 0, 0, 0, 1],
            encode_pair(b"k", &7u64.to_le_bytes()),
            b"xy".to_vec(),
        ])];
        let report = Engine::new()
            .run_plan(
                &plan,
                splits,
                &PlanConfig {
                    max_decode_errors: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(report.stages[0].decode_errors, 2);
        assert_eq!(report.stages[0].report.groups_out, 1);
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
        let err = Engine::new()
            .run_plan(&plan, splits, &PlanConfig::default())
            .unwrap_err();
        assert!(
            err.to_string().contains("injected upstream failure"),
            "the root cause must surface, got: {err}"
        );
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

        // Interior stage that discards output.
        let mut b = Plan::builder();
        let s1 = b.add_stage(
            JobSpec::builder("w1")
                .collect_mode(CollectOutput::Discard)
                .build()
                .unwrap(),
        );
        let s2 = b.add_stage(wordcount("w2"));
        b.connect(s1, s2);
        assert!(matches!(b.build(), Err(Error::Config(_))));
    }

    #[test]
    fn pipelined_plan_shares_one_governed_pool() {
        use onepass_core::governor::MemoryPolicy;
        let engine = Engine::with_config(
            EngineConfig::builder()
                .memory_policy(MemoryPolicy::adaptive())
                .build(),
        );
        let plan = histogram_plan();
        let report = engine
            .run_plan(&plan, input(), &PlanConfig::default())
            .unwrap();
        let expected = BTreeMap::from([(4, 1), (2, 2), (1, 1)]);
        assert_eq!(hist_of(&report), expected);
        // Every stage leased from the shared plan-wide pool (each stage
        // samples the pool's high-water mark when it finishes, so later
        // stages see an equal-or-higher value).
        let hw: Vec<u64> = report
            .stages
            .iter()
            .map(|s| s.report.mem_pool_high_water)
            .collect();
        assert!(hw.iter().all(|&h| h > 0), "{hw:?}");
        assert!(hw[1] >= hw[0], "{hw:?}");
    }

    #[test]
    fn linear_matches_builder_topology() {
        let plan = Plan::linear(vec![wordcount("a"), wordcount("b"), wordcount("c")]).unwrap();
        assert_eq!(plan.stage_count(), 3);
        assert_eq!(plan.order, vec![0, 1, 2]);
        assert_eq!(plan.incoming, vec![vec![], vec![0], vec![1]]);
        assert_eq!(plan.stage_name(StageId(1)), "b");
    }
}
