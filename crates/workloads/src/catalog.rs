//! The workload catalog: one row per workload name, and the only place
//! the names are spelled.
//!
//! A row says what the workload reads (its [`Input`] family), what it is
//! (its [`Shape`]: one job, a plan, or an iterative / two-input plan),
//! how the serving tier serves it ([`Served`]) and which simulator
//! profile models it. Every surface that takes a workload by name reads
//! this table: `onepass run|plan|sim|worker|serve|loadgen|workloads`, the
//! serving tier's [`standard_catalog`](crate::serving::standard_catalog)
//! and `exp_table1`. A new row reaches every surface its shape and
//! fields declare.
//!
//! A run of a row is the pair (row, [`Settings`]): [`run`] is the one
//! place a row's shape decides how it runs, and every caller (`onepass
//! run|plan`, the catalog walker) runs rows through it. [`registry`] is
//! the one set of jobs a worker serves.

use std::num::NonZeroU64;
use std::time::{Duration, Instant};

use onepass_core::error::{Error, Result};
use onepass_core::json::fmt_f64;
use onepass_runtime::cache::CacheStats;
use onepass_runtime::knobs::Settings;
use onepass_runtime::map_task::Split;
use onepass_runtime::serve::StreamingQuery;
use onepass_runtime::{
    CacheConfig, DatasetCache, Engine, JobRegistry, JobReport, JobSpecBuilder, Plan, PlanReport,
    ReduceBackend,
};
use onepass_simcluster::WorkloadProfile;

use crate::serving::{CatalogConfig, CLICKS_INGEST, DOCS_INGEST};
use crate::{
    inverted_index, join, kmeans, make_splits, page_frequency, pagerank, per_user_count,
    sessionization, top_k, ClickGen, ClickGenConfig, DocGen, DocGenConfig,
};

/// A record family, with the default generator every surface reads it
/// from — which is what makes a served tenant's answer comparable
/// byte-for-byte to a batch run over the same record count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// Text click records ([`ClickGen`], default config).
    Clicks,
    /// Text documents ([`DocGen`], default config).
    Docs,
}

impl Input {
    /// The records of this family a run over `n` records reads: `n`
    /// clicks, or one document per hundred.
    pub fn count(self, n: usize) -> usize {
        match self {
            Input::Clicks => n,
            Input::Docs => n / 100 + 1,
        }
    }

    /// The family's first `count` records.
    pub fn records(self, count: usize) -> Vec<Vec<u8>> {
        match self {
            Input::Clicks => ClickGen::new(ClickGenConfig::default()).text_records(count),
            Input::Docs => DocGen::new(DocGenConfig::default()).records(count),
        }
    }

    /// The map splits of a run over `n` records: [`count`](Input::count)
    /// records, `n/16 + 1` clicks or `n/1600 + 1` documents to a split.
    pub fn splits(self, n: usize) -> Vec<Split> {
        let per_split = match self {
            Input::Clicks => n / 16 + 1,
            Input::Docs => n / 1600 + 1,
        };
        make_splits(self.records(self.count(n)), per_split)
    }

    /// The serving tier's ingest tag for this family.
    pub fn ingest(self) -> &'static str {
        match self {
            Input::Clicks => CLICKS_INGEST,
            Input::Docs => DOCS_INGEST,
        }
    }
}

/// What a workload is, and so which commands run it.
#[derive(Clone, Copy)]
pub enum Shape {
    /// One job over the input (`onepass run`; registered on `onepass
    /// worker` under its job name).
    Job(Input, fn() -> JobSpecBuilder),
    /// A plan over the input, built from `(k, reducers)` (`onepass plan`).
    Plan(Input, fn(usize, usize) -> Result<Plan>),
    /// An iterative or two-input plan that generates its own input and
    /// runs through a dataset cache (`onepass plan`), given its reducers
    /// per round. Returns the rounds (plan runs) it took and its answer as
    /// `(key, value)` pairs, for `--dump-out`.
    Iterative(fn(&Engine, &DatasetCache, &Params, usize) -> Result<Iterated>),
}

/// What an iterative plan answers: the rounds it took and its pairs.
pub type Iterated = (usize, Pairs);

/// An answer as `(key, value)` pairs.
pub type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

/// How the serving tier serves a workload.
#[derive(Clone, Copy)]
pub enum Served {
    /// Not served.
    No,
    /// The row's own job or plan, on the one-pass preset. With `early`,
    /// stage 0 runs incremental hash and refreshes a hot group's early
    /// answer every [`CatalogConfig::early_every`] records.
    Shape {
        /// Whether the query surfaces periodic early answers.
        early: bool,
    },
    /// A single job other than the row's shape, over the given input.
    Job(Input, fn(&CatalogConfig) -> JobSpecBuilder),
}

/// What a [`run`] of a row reads besides its [`Settings`]: a job or plan
/// row's input splits, or an iterative row's input sizes and loop bounds.
pub struct Params {
    /// A job or plan row's input, cut into map splits; an iterative row
    /// generates its own input and reads none.
    pub splits: Vec<Split>,
    /// Records (graph nodes, points, clicks) an iterative row generates.
    pub records: usize,
    /// A plan's k: top-k's (the served k when `None`), or k-means'
    /// centroid count (3 when `None`).
    pub k: Option<usize>,
    /// Maximum rounds.
    pub rounds: usize,
    /// Stop once no value moves by more than this.
    pub eps: Option<u64>,
    /// Rows of a dimension table.
    pub users: usize,
}

impl Params {
    /// A run over `records`: a job or plan row reads [`Input::splits`] of
    /// them, an iterative row generates that many and runs at most ten
    /// rounds against the served join's dimension table.
    pub fn new(row: &Workload, records: usize) -> Params {
        let splits = row.reads().map_or_else(Vec::new, |i| i.splits(records));
        Params {
            splits,
            records,
            k: None,
            rounds: 10,
            eps: None,
            users: CatalogConfig::default().join_users,
        }
    }
}

/// Records to a split in an iterative row's rounds (the iterative plans'
/// `records_per_split`).
const ROUND_SPLIT: usize = 256;

/// What a [`run`] of a row answered.
pub enum Answer {
    /// A job row's report.
    Job(Box<JobReport>),
    /// A plan row's report.
    Plan(PlanReport),
    /// An iterative row's answer.
    Rounds {
        /// Rounds (plan runs) it took.
        rounds: usize,
        /// Its answer.
        pairs: Pairs,
        /// Wall time over all rounds.
        wall: Duration,
        /// Its dataset cache at the end.
        cache: CacheStats,
    },
}

impl Answer {
    /// The final answer, sorted: what `--dump-out` writes and what the
    /// catalog walker holds to a reference. A job that discarded its
    /// output has none.
    pub fn finals(&self) -> Pairs {
        let mut finals = match self {
            Answer::Job(report) => {
                let finals = report.final_pairs();
                finals.map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
            }
            Answer::Plan(report) => report.sorted_final_outputs(),
            Answer::Rounds { pairs, .. } => pairs.clone(),
        };
        finals.sort_unstable();
        finals
    }

    /// The run's `--report-jsonl` lines: the job's or plan's report, or
    /// one `{"type":"plan",…}` line of an iterative row's rounds and cache.
    pub fn to_jsonl(&self, row: &Workload) -> String {
        match self {
            Answer::Job(report) => report.to_jsonl(),
            Answer::Plan(report) => report.to_jsonl(),
            Answer::Rounds {
                rounds,
                wall,
                cache,
                ..
            } => format!(
                "{{\"type\":\"plan\",\"plan\":\"{}\",\"rounds\":{rounds},\"wall_s\":{},\
                 \"cache_resident_bytes\":{},\"cache_hits\":{},\"cache_evictions\":{},\
                 \"cache_reloads\":{}}}\n",
                row.name,
                fmt_f64(wall.as_secs_f64()),
                cache.resident_bytes,
                cache.hits,
                cache.evictions,
                cache.reloads,
            ),
        }
    }
}

/// Run `row` under `settings` over `params`. A job row runs
/// `settings.job`, which must be the row's job ([`Workload::job`] plus
/// knobs); a plan row builds its plan from `params.k` and
/// `settings.job.reducers`; an iterative row runs its rounds over a fresh
/// dataset cache reporting to the engine's tracer and metrics. The
/// engine runs as `settings.engine` says: in-proc or on TCP workers that
/// serve [`registry`], under its fault plan (see [`Workload::map_tasks`]).
pub fn run(row: &Workload, settings: Settings, params: Params) -> Result<Answer> {
    let Settings { job, engine } = settings;
    let (tracer, metrics) = (engine.tracer.clone(), engine.metrics.clone());
    let engine = Engine::with_config(engine);
    match row.shape {
        Shape::Job(..) => Ok(Answer::Job(Box::new(engine.run(&job, params.splits)?))),
        Shape::Plan(_, plan) => {
            let k = params.k.unwrap_or(CatalogConfig::default().k);
            let plan = plan(k, job.reducers)?;
            Ok(Answer::Plan(engine.run_plan(&plan, params.splits)?))
        }
        Shape::Iterative(rounds) => {
            let mut cache = DatasetCache::new(CacheConfig::default());
            if let Some(metrics) = &metrics {
                cache.attach_metrics(metrics);
            }
            cache.attach_tracer(&tracer);
            let started = Instant::now();
            let (rounds, pairs) = rounds(&engine, &cache, &params, job.reducers)?;
            Ok(Answer::Rounds {
                rounds,
                pairs,
                wall: started.elapsed(),
                cache: cache.stats(),
            })
        }
    }
}

/// Every job a worker serves: each job row's job and each plan row's
/// stage jobs (built with the served k and reducers). A worker rebuilds a
/// spec by name and sets the travelling knobs onto it, so one registry
/// serves every [`run`] of those rows. df-histogram's first stage is the
/// inverted-index row's job under the same name; its entry replaces the
/// job row's, which differs only in rows that do not travel.
pub fn registry() -> JobRegistry {
    let registry = JobRegistry::new();
    let served = CatalogConfig::default();
    for w in CATALOG {
        let jobs = match w.shape {
            Shape::Job(_, job) => vec![job().build().expect("a valid job")],
            Shape::Plan(_, plan) => {
                let plan = plan(served.k, served.reducers).expect("a valid plan");
                plan.jobs().cloned().collect()
            }
            Shape::Iterative(_) => Vec::new(),
        };
        jobs.into_iter().for_each(|job| registry.register_spec(job));
    }
    registry
}

/// One workload.
pub struct Workload {
    /// The name every surface takes it by.
    pub name: &'static str,
    /// One line for `onepass workloads`.
    pub about: &'static str,
    /// What it is.
    pub shape: Shape,
    /// How the serving tier serves it.
    pub served: Served,
    /// The simulator's profile of it at paper scale, for a Table I row.
    pub sim: Option<fn() -> WorkloadProfile>,
}

/// Every workload, in listing order.
pub const CATALOG: &[Workload] = &[
    Workload {
        name: "sessionization",
        about: "reorder click logs into user sessions (no combiner, heavy intermediate data)",
        shape: Shape::Job(Input::Clicks, sessionization::job),
        served: Served::Shape { early: false },
        sim: Some(WorkloadProfile::sessionization),
    },
    Workload {
        name: "page-frequency",
        about: "COUNT(*) GROUP BY url (combiner-friendly)",
        shape: Shape::Job(Input::Clicks, page_frequency::job),
        served: Served::Shape { early: true },
        sim: Some(WorkloadProfile::page_frequency),
    },
    Workload {
        name: "per-user-count",
        about: "COUNT(*) GROUP BY user",
        shape: Shape::Job(Input::Clicks, per_user_count::job),
        served: Served::Shape { early: true },
        sim: Some(WorkloadProfile::per_user_count),
    },
    Workload {
        name: "inverted-index",
        about: "word -> (doc, position) posting lists",
        shape: Shape::Job(Input::Docs, inverted_index::job),
        served: Served::Shape { early: false },
        sim: Some(WorkloadProfile::inverted_index),
    },
    Workload {
        name: "top-k",
        about: "per-URL counts, then the k most-clicked URLs",
        shape: Shape::Plan(Input::Clicks, top_k::plan),
        served: Served::Shape { early: true },
        sim: None,
    },
    Workload {
        name: "df-histogram",
        about: "inverted index, then a document-frequency histogram",
        shape: Shape::Plan(Input::Docs, |_k, reducers| {
            inverted_index::df_histogram_plan(reducers)
        }),
        served: Served::Shape { early: false },
        sim: None,
    },
    Workload {
        name: "pagerank",
        about: "PageRank rounds over a synthetic link graph, state cached between rounds",
        shape: Shape::Iterative(run_pagerank),
        served: Served::No,
        sim: None,
    },
    Workload {
        name: "kmeans",
        about: "k-means rounds over synthetic clustered points, points cached between rounds",
        shape: Shape::Iterative(run_kmeans),
        served: Served::No,
        sim: None,
    },
    // The one row with two definitions. `plan join` runs the cached
    // hybrid-hash join (`join::run_join`) over clicks it generates across
    // 2N users against N dimension rows, one sorted line per joined row.
    // The served query is the broadcast map-side `join::streaming_job`
    // over the served click stream, whose `ListAgg` keeps each user's rows
    // in arrival order: a batch run over several splits delivers them in
    // no fixed order, so it cannot reproduce the served dump, and no solo
    // `run`/`plan` reference exists for it. Served tenants are checked
    // against a solo session instead.
    Workload {
        name: "join",
        about: "clicks ⋈ users: cached hybrid-hash join (plan), broadcast map-side join (serve)",
        shape: Shape::Iterative(run_join),
        served: Served::Job(Input::Clicks, |c| join::streaming_job(c.join_users)),
        sim: None,
    },
];

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    CATALOG.iter().find(|w| w.name == name)
}

impl Workload {
    /// Whether the serving tier serves this workload.
    pub fn is_served(&self) -> bool {
        !matches!(self.served, Served::No)
    }

    /// The record family its job, plan or served query reads; `None` for
    /// an unserved plan that generates its own input.
    pub fn input(&self) -> Option<Input> {
        match self.served {
            Served::Job(input, _) => Some(input),
            _ => self.reads(),
        }
    }

    /// The record family a job or plan row reads; `None` for a row that
    /// generates its own input.
    pub fn reads(&self) -> Option<Input> {
        match self.shape {
            Shape::Job(input, _) | Shape::Plan(input, _) => Some(input),
            Shape::Iterative(_) => None,
        }
    }

    /// The job a run's [`Settings`] start from: a job row's job, or for
    /// any other row a placeholder whose reducer count its plan reads.
    pub fn job(&self) -> JobSpecBuilder {
        match self.shape {
            Shape::Job(_, job) => job(),
            _ => JobSpecBuilder::new("plan"),
        }
    }

    /// The map tasks a seeded `FaultPlan` draws its map kill from for a
    /// [`run`] over `params`: a job or plan row's splits, or the splits of
    /// an iterative row's generated records.
    pub fn map_tasks(&self, params: &Params) -> usize {
        match self.reads() {
            Some(_) => params.splits.len(),
            None => params.records.div_ceil(ROUND_SPLIT),
        }
    }

    /// The streaming query a tenant of this workload runs, tagged with
    /// its ingest family.
    pub fn query(&self, config: CatalogConfig) -> Result<StreamingQuery> {
        let single = |job: JobSpecBuilder| -> Result<StreamingQuery> {
            let job = job.reducers(config.reducers).preset_onepass().build()?;
            Ok(StreamingQuery::single(job))
        };
        let mut query = match (self.served, self.shape) {
            (Served::Job(_, job), _) => single(job(&config))?,
            (Served::Shape { .. }, Shape::Job(_, job)) => single(job())?,
            (Served::Shape { .. }, Shape::Plan(_, plan)) => {
                StreamingQuery::from_plan(&plan(config.k, config.reducers)?)?
            }
            _ => return Err(Error::Config(format!("{} is not served", self.name))),
        };
        // The backends produce byte-identical final answers (the catalog
        // walker, `tests/walk.rs`, pins that), so this changes when answers
        // surface, never what they say.
        let early_every = NonZeroU64::new(config.early_every);
        if matches!(self.served, Served::Shape { early: true }) && early_every.is_some() {
            query.stages[0].backend = ReduceBackend::IncHash { early_every };
        }
        let input = self.input().expect("a served row reads a record family");
        Ok(query.with_ingest(input.ingest()))
    }
}

/// Cached PageRank over a `records`-node graph: node → rank pairs.
fn run_pagerank(
    engine: &Engine,
    cache: &DatasetCache,
    n: &Params,
    reducers: usize,
) -> Result<Iterated> {
    let nodes = n.records.max(1);
    let graph = pagerank::graph_records(pagerank::GraphConfig {
        nodes,
        ..Default::default()
    });
    let cfg = pagerank::PageRankConfig {
        rounds: n.rounds,
        eps: n.eps,
        reducers,
        ..pagerank::PageRankConfig::new(nodes)
    };
    let (ranks, rounds) = pagerank::run_cached(engine, cache, &graph, &cfg)?;
    let pairs = ranks
        .iter()
        .map(|&(n, r)| (n.to_string().into_bytes(), r.to_le_bytes().to_vec()));
    Ok((rounds, pairs.collect()))
}

/// Cached k-means (k defaults to 3) over `records` points: `c<id>` →
/// coordinates pairs.
fn run_kmeans(
    engine: &Engine,
    cache: &DatasetCache,
    n: &Params,
    reducers: usize,
) -> Result<Iterated> {
    let k = n.k.unwrap_or(3);
    let points = kmeans::point_records(kmeans::PointsConfig {
        points: n.records.max(k),
        clusters: k,
        ..Default::default()
    });
    let cfg = kmeans::KMeansConfig {
        rounds: n.rounds,
        eps: n.eps.map(|e| e as i64).or(Some(0)),
        reducers,
        ..kmeans::KMeansConfig::new(k)
    };
    let (centroids, rounds) = kmeans::run_cached(engine, cache, &points, &cfg)?;
    let pairs = centroids.iter().map(|(cid, coords)| {
        let le = coords.iter().flat_map(|x| x.to_le_bytes()).collect();
        (format!("c{cid}").into_bytes(), le)
    });
    Ok((rounds, pairs.collect()))
}

/// The cached hybrid-hash clicks ⋈ users join in two plan runs (build,
/// probe): `records` clicks over twice `users` users (half miss the
/// dimension table), one uid → country + url pair per joined row.
fn run_join(
    engine: &Engine,
    cache: &DatasetCache,
    n: &Params,
    reducers: usize,
) -> Result<Iterated> {
    let mut gen = ClickGen::new(ClickGenConfig {
        users: n.users * 2,
        ..Default::default()
    });
    let clicks = gen.text_records(n.records);
    let users = join::user_records(n.users);
    let joined = join::run_join(engine, cache, &users, &clicks, reducers)?;
    let pairs = joined.iter().map(|(uid, cc, url)| {
        let value = [&cc[..], &url.to_le_bytes()].concat();
        (uid.to_string().into_bytes(), value)
    });
    Ok((2, pairs.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::standard_catalog;
    use onepass_runtime::{JobSpec, MapEmitter};

    #[test]
    fn names_are_unique() {
        for (i, w) in CATALOG.iter().enumerate() {
            assert!(CATALOG[..i].iter().all(|v| v.name != w.name), "{}", w.name);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
    }

    /// One registry entry serves the inverted-index row and df-histogram's
    /// first stage: the same job under one name, so whichever registers
    /// last maps and combines a document as the other would.
    #[test]
    fn df_histogram_stage_one_is_the_inverted_index_job() {
        let row = inverted_index::job().build().unwrap();
        let plan = inverted_index::df_histogram_plan(3).unwrap();
        let stage = plan.jobs().next().unwrap();
        assert_eq!(stage.name, row.name);
        let served = registry().build(&row.name).unwrap();
        struct Emitted(Pairs);
        impl MapEmitter for Emitted {
            fn emit(&mut self, key: &[u8], value: &[u8]) {
                self.0.push((key.to_vec(), value.to_vec()));
            }
        }
        let doc = &Input::Docs.records(1)[0];
        let map = |job: &JobSpec| {
            let mut out = Emitted(Vec::new());
            job.map_fn.map(doc, &mut out);
            out.0
        };
        assert!(!map(&row).is_empty());
        for job in [stage, &served] {
            assert_eq!(map(job), map(&row));
            assert_eq!(job.agg.combinable(), row.agg.combinable());
        }
    }

    #[test]
    fn standard_catalog_registers_all_queries_and_they_compile() {
        let cat = standard_catalog(CatalogConfig::default());
        assert_eq!(
            cat.names(),
            vec![
                "df-histogram",
                "inverted-index",
                "join",
                "page-frequency",
                "per-user-count",
                "sessionization",
                "top-k",
            ]
        );
        for name in cat.names() {
            cat.resolve(&name).unwrap();
        }
        // Multi-stage plans compile to cascades with routes.
        let topk = cat.resolve("top-k").unwrap();
        assert_eq!(topk.stages.len(), 2);
        assert_eq!(topk.ingest, CLICKS_INGEST);
        let dfh = cat.resolve("df-histogram").unwrap();
        assert_eq!(dfh.stages.len(), 2);
        assert_eq!(dfh.ingest, DOCS_INGEST);
    }
}
