//! Job specification: the MapReduce programming model plus the execution
//! knobs the paper studies.

use std::num::NonZeroU64;
use std::sync::Arc;

use onepass_core::config::MIB;
use onepass_core::error::{Error, Result};
use onepass_core::hashlib::{fingerprint, MultiplyShift, SeededFamily};
use onepass_groupby::Aggregator;

/// Receives the key/value pairs a map function emits.
pub trait MapEmitter {
    /// Emit one intermediate pair.
    fn emit(&mut self, key: &[u8], value: &[u8]);
}

/// The user map function: transforms one input record into intermediate
/// key/value pairs (§II: "the map function transforms input data into
/// (key, value) pairs").
pub trait MapFn: Send + Sync {
    /// Process one input record.
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter);

    /// Process one `(key, value)` input pair — how every inter-stage
    /// record enters a stage: plan edges, cache edges and serving cascades
    /// all carry pairs. The default frames the pair through the edge codec
    /// and calls [`map`](MapFn::map), so a record-oriented map (a
    /// [`Plan::linear`](crate::plan::Plan::linear) stage) sees the edge
    /// record it always saw; pair stages ([`pair_map_fn`]) take the pair
    /// as it is.
    fn map_pair(&self, key: &[u8], value: &[u8], out: &mut dyn MapEmitter) {
        self.map(&crate::codec::encode_pair(key, value), out);
    }
}

/// Blanket adapter so closures can serve as map functions.
impl<F> MapFn for F
where
    F: Fn(&[u8], &mut dyn MapEmitter) + Send + Sync,
{
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        self(record, out)
    }
}

/// A map function over `(key, value)` pairs — the one inter-stage record
/// shape: what a plan edge, a cache edge and a serving cascade hand the
/// next stage. Install one into a job with [`pair_map_fn`] (which is what
/// [`PlanBuilder::add_pair_stage`](crate::plan::PlanBuilder::add_pair_stage)
/// does).
pub trait PairMap: Send + Sync {
    /// Process one `(key, value)` pair.
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

/// The one adapter from a [`PairMap`] to a [`MapFn`].
struct PairFn(Arc<dyn PairMap>);

impl MapFn for PairFn {
    /// Bytes reach a pair stage only from outside the process — plan
    /// input, or a `NewSplit` frame carrying a pair split as edge records —
    /// so one that does not decode is a failed task (the scheduler applies
    /// the retry budget; exhaustion fails the job), never a skipped record.
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        match crate::codec::decode_pair(record) {
            Some((key, value)) => self.0.map_pair(key, value, out),
            None => panic!(
                "malformed inter-stage record ({} bytes do not decode as a pair)",
                record.len()
            ),
        }
    }

    fn map_pair(&self, key: &[u8], value: &[u8], out: &mut dyn MapEmitter) {
        self.0.map_pair(key, value, out)
    }
}

/// `pairs` as a job's map function: [`MapFn::map_pair`] delegates, and
/// [`MapFn::map`] decodes an edge record ([`crate::codec`]) first, failing
/// the task on bytes that are not one. A job built this way is the same
/// job in a plan, in a worker's
/// [`JobRegistry`](crate::transport::JobRegistry) and in a serving cascade.
pub fn pair_map_fn(pairs: Arc<dyn PairMap>) -> Arc<dyn MapFn> {
    Arc::new(PairFn(pairs))
}

/// Assigns intermediate keys to reducer partitions.
pub trait Partitioner: Send + Sync {
    /// Partition index in `0..reducers` for `key`.
    fn partition(&self, key: &[u8], reducers: usize) -> usize;

    /// Partition a key whose [`onepass_core::hashlib::fingerprint`] is
    /// already in hand. Must agree with [`Partitioner::partition`] for
    /// every key; hash partitioners route straight from `fp` so callers
    /// that fingerprint anyway (the map-side combiner's fold) pay for one
    /// fingerprint per record, not two.
    fn partition_fp(&self, fp: u64, key: &[u8], reducers: usize) -> usize;
}

/// Default hash partitioner.
#[derive(Debug, Clone)]
pub struct HashPartitioner {
    hasher: MultiplyShift,
}

impl Default for HashPartitioner {
    fn default() -> Self {
        // A family member distinct from those used inside the group-by
        // operators, so partition and bucket decisions are independent.
        HashPartitioner {
            hasher: SeededFamily::default().member(7_777_777),
        }
    }
}

impl Partitioner for HashPartitioner {
    fn partition(&self, key: &[u8], reducers: usize) -> usize {
        self.hasher.bucket_fp(fingerprint(key), reducers)
    }

    fn partition_fp(&self, fp: u64, _key: &[u8], reducers: usize) -> usize {
        self.hasher.bucket_fp(fp, reducers)
    }
}

/// Map output buffer bytes per map task (Hadoop `io.sort.mb`): the
/// sort-spill flush bound, and the budget of a hash map side's combine
/// table.
pub const MAP_BUFFER_BYTES: usize = 16 * MIB as usize;

/// Records a map task emits between pushes when its backend
/// [`pushes`](ReduceBackend::pushes) (MapReduce Online's pipelined
/// batch). Plan edges cut their splits to the same size.
pub const PUSH_RECORDS: usize = 4096;

/// Whether final/early output pairs are collected into the report.
///
/// Replaces the old `collect_output: bool` knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectOutput {
    /// Keep the output pairs in [`crate::report::JobReport::outputs`].
    #[default]
    Collect,
    /// Drop pairs after counting them — for large-output benchmarks where
    /// only statistics matter.
    Discard,
}

impl CollectOutput {
    /// True when output pairs are retained.
    pub fn is_collect(self) -> bool {
        matches!(self, CollectOutput::Collect)
    }
}

/// The reduce-side group-by implementation (Table III's "Group By" row).
/// Table III couples each system's map side and shuffle to its group-by,
/// so the backend also decides those: [`sorts_map_output`] and
/// [`pushes`] are the two columns it implies.
///
/// [`sorts_map_output`]: ReduceBackend::sorts_map_output
/// [`pushes`]: ReduceBackend::pushes
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceBackend {
    /// Hadoop: buffer sorted segments, spill merged runs, multi-pass merge
    /// with factor F = [`DEFAULT_MERGE_FACTOR`], blocking final merge.
    /// `snapshots` adds MapReduce Online behaviour: emit approximate
    /// answers when [`HOP_SNAPSHOTS`] of map tasks have delivered (each
    /// snapshot re-reads all data — the "significant I/O overhead" of
    /// §III-D).
    ///
    /// [`DEFAULT_MERGE_FACTOR`]: onepass_core::config::DEFAULT_MERGE_FACTOR
    /// [`HOP_SNAPSHOTS`]: onepass_core::config::HOP_SNAPSHOTS
    SortMerge {
        /// Emit snapshot answers at [`HOP_SNAPSHOTS`](onepass_core::config::HOP_SNAPSHOTS).
        snapshots: bool,
    },
    /// §V technique 1: hybrid hash, eight buckets per recursion level.
    HybridHash,
    /// §V technique 2: incremental hash; optional early-emit period.
    /// The frequent-key operator with its hot-key gate off.
    IncHash {
        /// Publish a count state as an early answer each time it reaches
        /// a multiple of this; `None` never does.
        early_every: Option<NonZeroU64>,
    },
    /// §V technique 3: incremental hash + frequent-key residency.
    FreqHash,
}

impl ReduceBackend {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ReduceBackend::SortMerge { snapshots: false } => "sort-merge",
            ReduceBackend::SortMerge { snapshots: true } => "sort-merge+snapshots (HOP)",
            ReduceBackend::HybridHash => "hybrid-hash",
            ReduceBackend::IncHash { .. } => "incremental-hash",
            ReduceBackend::FreqHash => "frequent-hash",
        }
    }

    /// Does a map task sort its buffer on `(partition, key)` before it
    /// ships? Sort-merge reduces key-sorted segments (Hadoop and HOP sort
    /// on the map side). A hash backend needs no order: its map side
    /// scans the buffer once for partitioning, "and no effort is spent
    /// for grouping" (§V), and over a combinable aggregate it folds into
    /// the in-node combine table (`in_node.rs`). Either way a map side
    /// combines iff the aggregate is combinable.
    pub fn sorts_map_output(&self) -> bool {
        matches!(self, ReduceBackend::SortMerge { .. })
    }

    /// Does a map task push its output every [`PUSH_RECORDS`] records
    /// while it runs (MapReduce Online and the one-pass system), rather
    /// than leave reducers to fetch it once the task finished (Hadoop)?
    pub fn pushes(&self) -> bool {
        !matches!(self, ReduceBackend::SortMerge { snapshots: false })
    }
}

/// A complete MapReduce job specification.
#[derive(Clone)]
pub struct JobSpec {
    /// Job name for reports.
    pub name: String,
    /// The map function.
    pub map_fn: Arc<dyn MapFn>,
    /// The reduce aggregate; when it is combinable, also the map side's
    /// combine function.
    pub agg: Arc<dyn Aggregator>,
    /// Number of reduce tasks. Keys route to them by
    /// [`HashPartitioner::default`].
    pub reducers: usize,
    /// Reduce-side group-by backend; it also decides the map side and
    /// the shuffle (Table III).
    pub backend: ReduceBackend,
    /// Reduce memory budget bytes per reduce task.
    pub reduce_budget_bytes: usize,
    /// Collect final/early output pairs into the report (disable for
    /// large-output benchmarks where only statistics matter).
    pub collect_output: CollectOutput,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The job rows of the knob table; closures have nothing to print.
        let mut d = f.debug_struct("JobSpec");
        d.field("name", &self.name);
        for knob in crate::knobs::KNOBS {
            if let crate::knobs::Access::Job(get, _) = knob.access {
                d.field(knob.name, &format_args!("{}", get(self)));
            }
        }
        d.finish_non_exhaustive()
    }
}

impl JobSpec {
    /// Start building a job.
    pub fn builder(name: impl Into<String>) -> JobSpecBuilder {
        JobSpecBuilder::new(name)
    }

    /// True when map attempts may fold into a combine table instead of
    /// shipping their own segments: a hash map side over a combinable
    /// aggregate. Each map slot of such a job decides from the first keys
    /// it emits whether it does, and stops combining where most of them
    /// are distinct (`in_node.rs`).
    pub fn hash_combines(&self) -> bool {
        !self.backend.sorts_map_output() && self.agg.combinable()
    }

    /// Validate cross-field constraints.
    pub fn validate(&self) -> Result<()> {
        if self.reducers == 0 {
            return Err(Error::Config("reducers must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// Builder for [`JobSpec`] with paper-faithful defaults (Hadoop baseline).
pub struct JobSpecBuilder {
    spec: JobSpec,
}

impl JobSpecBuilder {
    /// New builder; defaults: Hadoop configuration (sort-merge reduce at
    /// F=10, so a sort-spill map side and pull shuffle; 4 reducers, 64 MiB
    /// reduce budget).
    pub fn new(name: impl Into<String>) -> Self {
        JobSpecBuilder {
            spec: JobSpec {
                name: name.into(),
                map_fn: Arc::new(identity_map),
                agg: Arc::new(onepass_groupby::CountAgg),
                reducers: 4,
                backend: ReduceBackend::SortMerge { snapshots: false },
                reduce_budget_bytes: 64 * MIB as usize,
                collect_output: CollectOutput::Collect,
            },
        }
    }

    /// Set the map function.
    pub fn map_fn(mut self, f: Arc<dyn MapFn>) -> Self {
        self.spec.map_fn = f;
        self
    }

    /// Set the reduce/combine aggregate.
    pub fn aggregate(mut self, a: Arc<dyn Aggregator>) -> Self {
        self.spec.agg = a;
        self
    }

    /// Set the number of reduce tasks.
    pub fn reducers(mut self, n: usize) -> Self {
        self.spec.reducers = n;
        self
    }

    /// Set the reduce backend.
    pub fn backend(mut self, b: ReduceBackend) -> Self {
        self.spec.backend = b;
        self
    }

    /// Set the per-reducer memory budget.
    pub fn reduce_budget_bytes(mut self, n: usize) -> Self {
        self.spec.reduce_budget_bytes = n;
        self
    }

    /// Set whether output pairs are collected into the report.
    pub fn collect_mode(mut self, mode: CollectOutput) -> Self {
        self.spec.collect_output = mode;
        self
    }

    /// Finish, validating the configuration.
    pub fn build(self) -> Result<JobSpec> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

/// Convenience presets matching the systems in Table III.
impl JobSpecBuilder {
    /// Stock Hadoop: sort-merge reduce, so a sort-spill map side and pull
    /// shuffle.
    pub fn preset_hadoop(self) -> Self {
        self.backend(ReduceBackend::SortMerge { snapshots: false })
    }

    /// MapReduce Online (HOP): sort-merge reduce with periodic snapshots
    /// at 25/50/75%, so a sort-spill map side and push shuffle.
    pub fn preset_hop(self) -> Self {
        self.backend(ReduceBackend::SortMerge { snapshots: true })
    }

    /// The paper's proposed system: frequent-key incremental hash, so a
    /// hash map side (combining when the aggregate is combinable) and
    /// push shuffle.
    pub fn preset_onepass(self) -> Self {
        self.backend(ReduceBackend::FreqHash)
    }
}

/// The identity map function: key = record, value = empty.
pub fn identity_map(record: &[u8], out: &mut dyn MapEmitter) {
    out.emit(record, b"");
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_groupby::{ListAgg, SumAgg};

    #[test]
    fn builder_defaults_are_hadoop() {
        let job = JobSpec::builder("t").build().unwrap();
        assert!(job.backend.sorts_map_output());
        assert!(!job.backend.pushes());
        assert!(matches!(job.backend, ReduceBackend::SortMerge { .. }));
        assert_eq!(job.backend.label(), "sort-merge");
    }

    #[test]
    fn hash_map_side_combines_iff_the_aggregate_is_combinable() {
        let job = JobSpec::builder("sessionize")
            .aggregate(Arc::new(ListAgg))
            .preset_onepass()
            .build()
            .unwrap();
        assert!(!job.backend.sorts_map_output());
        assert!(!job.hash_combines());

        let job = JobSpec::builder("count")
            .aggregate(Arc::new(SumAgg))
            .preset_onepass()
            .build()
            .unwrap();
        assert!(!job.backend.sorts_map_output());
        assert!(job.hash_combines());

        let hadoop = JobSpec::builder("count")
            .aggregate(Arc::new(SumAgg))
            .build()
            .unwrap();
        assert!(!hadoop.hash_combines(), "sort-spill combines key streaks");
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(JobSpec::builder("t").reducers(0).build().is_err());
    }

    #[test]
    fn partitioner_is_stable_and_in_range() {
        let p = HashPartitioner::default();
        for i in 0..1000u32 {
            let k = i.to_le_bytes();
            let a = p.partition(&k, 7);
            assert!(a < 7);
            assert_eq!(a, p.partition(&k, 7));
        }
    }

    #[test]
    fn typed_knobs_set_modes() {
        let typed = JobSpec::builder("t")
            .collect_mode(CollectOutput::Discard)
            .build()
            .unwrap();
        assert_eq!(typed.collect_output, CollectOutput::Discard);
        assert!(!typed.collect_output.is_collect());

        let defaults = JobSpec::builder("t").build().unwrap();
        assert!(defaults.collect_output.is_collect());
    }

    #[test]
    fn hop_preset_has_snapshots() {
        let job = JobSpec::builder("t").preset_hop().build().unwrap();
        assert_eq!(job.backend.label(), "sort-merge+snapshots (HOP)");
        assert!(job.backend.pushes());
    }

    /// Table III, one row per backend: whether the map side sorts,
    /// whether it pushes, and whether it folds into a combine table under
    /// a combinable (`SumAgg`) and a holistic (`ListAgg`) aggregate.
    #[test]
    fn the_backend_decides_the_map_side_and_the_shuffle() {
        let table = [
            (
                ReduceBackend::SortMerge { snapshots: false },
                (true, false),
                (false, false),
            ),
            (
                ReduceBackend::SortMerge { snapshots: true },
                (true, true),
                (false, false),
            ),
            (ReduceBackend::HybridHash, (false, true), (true, false)),
            (
                ReduceBackend::IncHash { early_every: None },
                (false, true),
                (true, false),
            ),
            (ReduceBackend::FreqHash, (false, true), (true, false)),
        ];
        for (backend, sorts_pushes, combines) in table {
            assert_eq!(
                (backend.sorts_map_output(), backend.pushes()),
                sorts_pushes,
                "{backend:?}"
            );
            let combines_under = |agg: Arc<dyn onepass_groupby::Aggregator>| {
                let job = JobSpec::builder("t").aggregate(agg).backend(backend);
                job.build().unwrap().hash_combines()
            };
            assert_eq!(
                (
                    combines_under(Arc::new(SumAgg)),
                    combines_under(Arc::new(ListAgg))
                ),
                combines,
                "{backend:?}"
            );
        }
    }

    /// Twenty fixed keys: lengths 0–31, every tail length, 4-byte user
    /// ids as the click workloads emit them.
    const PINNED_KEYS: [&[u8]; 20] = [
        b"",
        b"a",
        b"ab",
        b"u42",
        &[0, 0, 0, 0],
        &[1, 0, 0, 0],
        &[42, 0, 0, 0],
        &[0x2f, 0x75, 0, 0],
        &[0xff, 0xff, 0xff, 0xff],
        b"hello",
        b"user:7",
        b"/page/7",
        b"abcdefgh",
        b"abcdefghi",
        b"key0001234",
        b"sessionize!",
        b"0123456789abc",
        b"0123456789abcdef",
        b"0123456789abcdefg",
        b"the quick brown fox jumps over!",
    ];

    /// Their partitions of 2, 7 and 16 reducers, read off the engine
    /// before `fingerprint`'s tail was rewritten: every golden dump and
    /// wire frame follows from these, so a change of values fails here.
    const PINNED_PARTITIONS: [(usize, usize, usize); 20] = [
        (1, 5, 12),
        (1, 5, 12),
        (1, 5, 11),
        (0, 2, 6),
        (0, 0, 2),
        (1, 6, 14),
        (0, 3, 6),
        (1, 4, 9),
        (1, 4, 11),
        (1, 5, 12),
        (1, 3, 9),
        (0, 2, 5),
        (0, 2, 6),
        (1, 5, 12),
        (1, 4, 11),
        (1, 5, 13),
        (0, 0, 2),
        (0, 3, 6),
        (0, 0, 1),
        (0, 2, 6),
    ];

    #[test]
    fn hash_partitions_of_fixed_keys_are_pinned() {
        let p = HashPartitioner::default();
        for (key, want) in PINNED_KEYS.into_iter().zip(PINNED_PARTITIONS) {
            let fp = fingerprint(key);
            let of = |reducers| {
                assert_eq!(
                    p.partition(key, reducers),
                    p.partition_fp(fp, key, reducers)
                );
                p.partition_fp(fp, key, reducers)
            };
            assert_eq!((of(2), of(7), of(16)), want, "key {key:?}");
        }
    }
}
