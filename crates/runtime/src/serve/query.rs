//! Streaming query compilation: turn a [`JobSpec`] or a linear
//! [`Plan`] into a cascade of [`StreamSession`]s a tenant can
//! run over a live ingest stream.
//!
//! The batch engine runs a plan stage-by-stage over fixed splits; a
//! serving tenant instead keeps *stage 0* open against the shared ingest
//! stream and, at close, pours each stage's finals through the connecting
//! [`PairMap`] into the next stage's session. Because every aggregate in
//! the catalog is arrival-order-independent, the cascade's finals are
//! byte-identical to a batch `run`/`run_plan` of the same query over the
//! same records — the invariant the serving smoke test enforces.

use std::collections::BTreeMap;
use std::sync::Arc;

use onepass_core::error::{Error, Result};

use crate::job::JobSpec;
use crate::plan::{PairMap, Plan, StageInput};
use crate::stream::{SessionOptions, StreamSession};

/// The ingest family a query not tagged otherwise consumes.
pub const DEFAULT_INGEST: &str = "default";

/// A query compiled for streaming execution: a linear chain of
/// incremental-backend jobs, each (after the first) fed by the previous
/// stage's finals through a [`PairMap`].
#[derive(Clone)]
pub struct StreamingQuery {
    /// Stage jobs, source first. Every backend must be incremental.
    pub stages: Vec<JobSpec>,
    /// `routes[i]` maps stage `i`'s finals into stage `i + 1`'s input;
    /// always `stages.len() - 1` entries.
    pub routes: Vec<Arc<dyn PairMap>>,
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
            routes: Vec::new(),
            ingest: DEFAULT_INGEST.to_string(),
        }
    }

    /// Tag the ingest family this query consumes.
    pub fn with_ingest(mut self, family: &str) -> StreamingQuery {
        self.ingest = family.to_string();
        self
    }

    /// Compile a *linear* plan (a chain — each stage feeds exactly the
    /// next) into a streaming cascade. Every non-source stage must be a
    /// pair stage: its input is the upstream finals, decoded, which is
    /// exactly what the cascade feeds it.
    pub fn from_plan(plan: &Plan) -> Result<StreamingQuery> {
        let n = plan.stage_count();
        let mut stages = Vec::with_capacity(n);
        let mut routes = Vec::with_capacity(n.saturating_sub(1));
        // Walk the chain from the single source.
        let mut at = plan
            .order
            .iter()
            .copied()
            .find(|&s| plan.incoming[s].is_empty())
            .expect("validated plan has a source");
        loop {
            let stage = &plan.stages[at];
            match (&stage.input, stages.is_empty()) {
                (StageInput::Records, true) => stages.push(stage.job.clone()),
                (StageInput::Pairs(route), false) => {
                    routes.push(Arc::clone(route));
                    stages.push(stage.job.clone());
                }
                (StageInput::Records, false) => {
                    return Err(Error::Config(format!(
                        "stage {} reads raw edge records; streaming cascades need pair stages",
                        stage.job.name
                    )));
                }
                (StageInput::Pairs(_), true) => {
                    return Err(Error::Config("source stage cannot be a pair stage".into()));
                }
            }
            match plan.outgoing[at].as_slice() {
                [] => break,
                [next] => at = *next,
                _ => {
                    return Err(Error::Config(format!(
                        "stage {} fans out; streaming cascades must be linear",
                        stage.job.name
                    )));
                }
            }
        }
        if stages.len() != n {
            return Err(Error::Config("plan is not a single linear chain".into()));
        }
        Ok(StreamingQuery {
            stages,
            routes,
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

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
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
            .backend(ReduceBackend::IncHash { early: None })
            .build()
            .unwrap()
    }

    #[test]
    fn linear_pair_plan_compiles() {
        let mut b = PlanBuilder::new();
        let s1 = b.add_stage(inc_job("a"));
        let route: Arc<dyn PairMap> =
            Arc::new(|k: &[u8], v: &[u8], out: &mut dyn crate::job::MapEmitter| {
                out.emit(k, v);
            });
        let s2 = b.add_pair_stage(inc_job("b"), route);
        b.connect(s1, s2);
        let plan = b.build().unwrap();
        let q = StreamingQuery::from_plan(&plan).unwrap();
        assert_eq!(q.stages.len(), 2);
        assert_eq!(q.routes.len(), 1);
        assert_eq!(q.total_partitions(), 2);
    }

    #[test]
    fn non_pair_downstream_stage_is_rejected() {
        let mut b = PlanBuilder::new();
        let s1 = b.add_stage(inc_job("a"));
        let s2 = b.add_stage(inc_job("b"));
        b.connect(s1, s2);
        let plan = b.build().unwrap();
        assert!(StreamingQuery::from_plan(&plan).is_err());
    }

    #[test]
    fn catalog_resolves_and_rejects() {
        let mut cat = QueryCatalog::new();
        cat.register("sum", || Ok(StreamingQuery::single(inc_job("sum"))));
        assert!(cat.contains("sum"));
        assert_eq!(cat.resolve("sum").unwrap().stages.len(), 1);
        assert!(cat.resolve("nope").is_err());
        assert_eq!(cat.position("sum").unwrap(), 0);
        assert!(cat.position("nope").is_err());
        assert_eq!(cat.names(), vec!["sum".to_string()]);
    }
}
