//! Streaming query compilation: turn a [`JobSpec`] or a linear
//! [`Plan`] into a cascade of [`StreamSession`]s a tenant can
//! run over a live ingest stream.
//!
//! The batch engine runs a plan stage-by-stage over fixed splits; a
//! serving tenant instead keeps *stage 0* open against the shared ingest
//! stream and, at close, pours each stage's finals into the next stage's
//! session as pairs, through that stage's own
//! [`MapFn::map_pair`](crate::job::MapFn::map_pair) — the door a plan edge
//! enters the same job by. Because every aggregate in
//! the catalog is arrival-order-independent, the cascade's finals are
//! byte-identical to a batch `run`/`run_plan` of the same query over the
//! same records — the invariant the serving smoke test enforces.

use std::collections::BTreeMap;
use std::sync::Arc;

use onepass_core::error::{Error, Result};

use crate::job::JobSpec;
use crate::plan::Plan;
use crate::stream::{SessionOptions, StreamSession};

/// The ingest family a query not tagged otherwise consumes.
pub const DEFAULT_INGEST: &str = "default";

/// A query compiled for streaming execution: a linear chain of
/// incremental-backend jobs, each (after the first) fed the previous
/// stage's finals as pairs.
#[derive(Clone)]
pub struct StreamingQuery {
    /// Stage jobs, source first. Every backend must be incremental.
    pub stages: Vec<JobSpec>,
    /// Ingest family this query consumes (e.g. `"clicks"` vs `"docs"`):
    /// a server multiplexes several record streams and only feeds each
    /// session batches whose family matches.
    pub ingest: String,
}

impl std::fmt::Debug for StreamingQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingQuery")
            .field(
                "stages",
                &self.stages.iter().map(|j| &j.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl StreamingQuery {
    /// A single-stage query.
    pub fn single(job: JobSpec) -> StreamingQuery {
        StreamingQuery {
            stages: vec![job],
            ingest: DEFAULT_INGEST.to_string(),
        }
    }

    /// Tag the ingest family this query consumes.
    pub fn with_ingest(mut self, family: &str) -> StreamingQuery {
        self.ingest = family.to_string();
        self
    }

    /// Compile a *linear* plan (a chain — each stage feeds exactly the
    /// next) into a streaming cascade: walk the chain, clone the jobs. A
    /// stage's job is the job the plan runs, so whatever its `map_pair`
    /// does with an upstream final on a plan edge it does here.
    pub fn from_plan(plan: &Plan) -> Result<StreamingQuery> {
        let mut stages = Vec::with_capacity(plan.stage_count());
        // A validated plan's topological order starts at a stage with no
        // upstream; a chain has its stages in that order, each feeding
        // exactly the next.
        for (i, &at) in plan.order.iter().enumerate() {
            let job = &plan.stages[at].job;
            let feeds_next = match (plan.outgoing[at].as_slice(), plan.order.get(i + 1)) {
                ([], None) => true,
                ([to], Some(next)) => to == next,
                _ => false,
            };
            if !feeds_next {
                return Err(Error::Config(format!(
                    "stage {} does not feed exactly the next stage; streaming cascades must \
                     be one linear chain",
                    job.name
                )));
            }
            stages.push(job.clone());
        }
        Ok(StreamingQuery {
            stages,
            ingest: DEFAULT_INGEST.to_string(),
        })
    }

    /// Open one [`StreamSession`] per stage, all leasing from the options'
    /// governor (when set). Fails fast on blocking backends.
    pub fn open(&self, opts: &SessionOptions) -> Result<Vec<StreamSession>> {
        self.stages
            .iter()
            .map(|job| StreamSession::with_options(job.clone(), opts.clone()))
            .collect()
    }

    /// Total partitions across all stages — the number of leases a session
    /// running this query holds.
    pub fn total_partitions(&self) -> usize {
        self.stages.iter().map(|j| j.reducers).sum()
    }
}

/// A factory producing a fresh [`StreamingQuery`] per session.
pub type QueryFactory = Arc<dyn Fn() -> Result<StreamingQuery> + Send + Sync>;

/// Named queries a serving front-end admits tenants for.
///
/// Factories (not cached instances) because each session needs its own
/// `JobSpec` clones; the catalog itself is cheap to share.
#[derive(Clone, Default)]
pub struct QueryCatalog {
    factories: BTreeMap<String, QueryFactory>,
}

impl std::fmt::Debug for QueryCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCatalog")
            .field("queries", &self.names())
            .finish()
    }
}

impl QueryCatalog {
    /// An empty catalog.
    pub fn new() -> QueryCatalog {
        QueryCatalog::default()
    }

    /// Register `name`; replaces any previous registration.
    pub fn register(
        &mut self,
        name: &str,
        factory: impl Fn() -> Result<StreamingQuery> + Send + Sync + 'static,
    ) {
        self.factories.insert(name.to_string(), Arc::new(factory));
    }

    /// Build a fresh query instance for `name`.
    pub fn resolve(&self, name: &str) -> Result<StreamingQuery> {
        match self.factories.get(name) {
            Some(f) => f(),
            None => Err(self.unknown(name)),
        }
    }

    /// `name`'s rank among the registered names — a stable small integer
    /// per query (the server shards sessions by it).
    pub(crate) fn position(&self, name: &str) -> Result<usize> {
        self.factories
            .keys()
            .position(|k| k == name)
            .ok_or_else(|| self.unknown(name))
    }

    fn unknown(&self, name: &str) -> Error {
        Error::Config(format!(
            "unknown query {name:?} (catalog: {})",
            self.names().join(", ")
        ))
    }

    /// Registered query names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{identity_map, ReduceBackend};
    use crate::plan::PlanBuilder;
    use onepass_groupby::SumAgg;

    fn inc_job(name: &str) -> JobSpec {
        JobSpec::builder(name)
            .map_fn(Arc::new(identity_map))
            .aggregate(Arc::new(SumAgg))
            .reducers(1)
            .backend(ReduceBackend::IncHash { early_every: None })
            .build()
            .unwrap()
    }

    #[test]
    fn linear_plans_compile_whatever_their_stages_read() {
        let mut b = PlanBuilder::new();
        let s1 = b.add_stage(inc_job("a"));
        let s2 = b.add_pair_stage(
            inc_job("b"),
            Arc::new(|k: &[u8], v: &[u8], out: &mut dyn crate::job::MapEmitter| {
                out.emit(k, v);
            }),
        );
        b.connect(s1, s2);
        let q = StreamingQuery::from_plan(&b.build().unwrap()).unwrap();
        assert_eq!(q.stages.len(), 2);
        assert_eq!(q.total_partitions(), 2);

        // A record stage downstream is a cascade stage like any other.
        let plan = Plan::linear(vec![inc_job("a"), inc_job("b"), inc_job("c")]).unwrap();
        let q = StreamingQuery::from_plan(&plan).unwrap();
        let names: Vec<&str> = q.stages.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn plans_that_are_not_one_chain_are_rejected() {
        let mut b = PlanBuilder::new();
        let s1 = b.add_stage(inc_job("a"));
        let s2 = b.add_stage(inc_job("b"));
        let s3 = b.add_stage(inc_job("c"));
        b.connect(s1, s2);
        b.connect(s1, s3);
        let err = StreamingQuery::from_plan(&b.build().unwrap()).unwrap_err();
        assert!(err.to_string().contains("linear chain"), "{err}");
    }

    #[test]
    fn catalog_resolves_and_rejects() {
        let mut cat = QueryCatalog::new();
        cat.register("sum", || Ok(StreamingQuery::single(inc_job("sum"))));
        assert_eq!(cat.resolve("sum").unwrap().stages.len(), 1);
        assert!(cat.resolve("nope").is_err());
        assert_eq!(cat.position("sum").unwrap(), 0);
        assert!(cat.position("nope").is_err());
        assert_eq!(cat.names(), vec!["sum".to_string()]);
    }
}
