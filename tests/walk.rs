//! One seeded walker holds every catalog row to a pure-Rust reference
//! across the knob table.
//!
//! A draw is a pure function of one seed. It picks a [`CATALOG`] row, one
//! value for each [`KNOBS`] row the row's shape takes, a split count (zero
//! splits: an empty input) and a venue: a transport and a fault. A job row
//! takes every knob row; a plan or iterative row takes `reducers` and the
//! engine's rows, as `onepass plan` does. A choice row's values are read
//! from its `syntax`, a numeric row's from [`NUMERIC`]. Job and plan rows
//! run in-proc or on two TCP loopback workers; iterative rows run in-proc.
//! The fault is none, a `FaultPlan::seeded` map and reduce kill (on TCP
//! the reduce kill alone: a remote map attempt runs no injected fault), or
//! (on TCP) a worker that dies after its first map. Every draw runs through
//! the runner `onepass run|plan` runs, `catalog::run`, and its TCP workers
//! serve what `onepass worker` serves, `catalog::registry()`.
//!
//! The draw's sorted final answer must equal the row's reference (with
//! `collect-output=discard`, its group count must), and a seeded kill
//! under `retries 1` must fail the run with the injected error. Each
//! shape's test runs a covering set, seeds picked greedily until every
//! pair of values its dimensions take meets in some draw, then
//! [`RANDOM_DRAWS`] more (or `WALK_DRAWS=<n>`). It asserts what the walk
//! reached and prints it (`cargo test --test walk -- --nocapture`). A
//! failing draw names its seed, and `WALK_SEED=<n> cargo test --test
//! walk` replays that draw alone.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

use onepass::prelude::*;
use onepass_core::error::Error;
use onepass_core::trace::TraceEvent;
use onepass_runtime::knobs::{self, Access, Knob, Settings, KNOBS};
use onepass_runtime::transport::worker::spawn_local;
use onepass_runtime::JobReport;
use onepass_workloads::catalog::{self, Answer, Input, Pairs, Params, Shape, CATALOG};
use onepass_workloads::clickgen::Click;
use onepass_workloads::docgen::parse_doc;
use onepass_workloads::sessionization::DEFAULT_GAP_S;
use onepass_workloads::{join, kmeans, make_splits, pagerank, top_k, CatalogConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The values a numeric knob row draws from. A numeric row missing here
/// fails every walk.
const NUMERIC: &[(&str, &[&str])] = &[
    ("reducers", &["1", "2", "3"]),
    ("budget-kb", &["2", "64", "65536"]),
    ("map-workers", &["1", "3"]),
    ("retries", &["1", "3"]),
];

/// How many splits a job or plan row's input is cut into; zero splits
/// hold no records, so the row runs over an empty input.
const SPLITS: &[&str] = &["1", "3", "6", "0"];

/// The pseudo-value a row shows with when its seeded kills fire (see
/// [`Draw::kills_fire`]): an empty input has no map task to kill.
const KILLS_FIRE: &str = "seeded-kills-fire";

/// Where a draw runs, and what kills what.
const VENUES: &[&str] = &[
    "in-proc",
    "in-proc+seeded-kill",
    "tcp",
    "tcp+seeded-kill",
    "tcp+worker-dies",
];

/// Records a job or plan row reads: clicks, or documents. Six splits of
/// either hold at least eight records each, so a seeded map kill, which
/// fires after at most seven, always fires in-proc.
const CLICKS: usize = 1_200;
const DOCS: usize = 48;

/// What an iterative row generates: nodes, points or clicks (over a third
/// as many users), and the rounds it runs.
const ITERATIVE_RECORDS: usize = 300;
const ROUNDS: usize = 3;

/// Seeds each walk considers per step of its covering set.
const CANDIDATES: u64 = 64;

/// Random draws past the covering sets (`WALK_DRAWS=<n>` asks for more):
/// seeds `FIRST_RANDOM..`, each walked by its shape's test.
const RANDOM_DRAWS: u64 = 24;
const FIRST_RANDOM: u64 = 1 << 32;

/// A draw that has not answered by now has hung.
const DRAW_TIMEOUT: Duration = Duration::from_secs(120);

/// One point of the space: a row, a value for each of its shape's
/// dimensions, and the seed of its fault plan.
#[derive(Clone)]
struct Draw {
    /// The seed it was drawn from; `None` for an explicit case.
    seed: Option<u64>,
    row: &'static str,
    values: Vec<(&'static str, String)>,
    fault_seed: u64,
}

/// The shape a row's test walks it under.
fn shape_of(row: &str) -> &'static str {
    match catalog::find(row).expect("a catalog row").shape {
        Shape::Job(..) => "job",
        Shape::Plan(..) => "plan",
        Shape::Iterative(_) => "iterative",
    }
}

/// A knob row's values: its choices, or its numeric set.
fn knob_values(k: &Knob) -> Vec<String> {
    if k.syntax.contains('|') {
        return k.syntax.split('|').map(String::from).collect();
    }
    let (_, values) = NUMERIC
        .iter()
        .find(|(name, _)| *name == k.name)
        .unwrap_or_else(|| panic!("knob row {} has no value set in NUMERIC", k.name));
    values.iter().map(|v| v.to_string()).collect()
}

/// The dimensions a shape's draws take: its knob rows, in table order,
/// then `splits` (rows that read records) and `venue`.
fn dims(shape: &str) -> Vec<(&'static str, Vec<String>)> {
    let takes =
        |k: &Knob| shape == "job" || k.name == "reducers" || matches!(k.access, Access::Engine(..));
    let mut dims: Vec<_> = KNOBS
        .iter()
        .filter(|k| takes(k))
        .map(|k| (k.name, knob_values(k)))
        .collect();
    let venues = if shape == "iterative" {
        &VENUES[..2]
    } else {
        dims.push(("splits", SPLITS.iter().map(|s| s.to_string()).collect()));
        VENUES
    };
    dims.push(("venue", venues.iter().map(|v| v.to_string()).collect()));
    dims
}

/// The draw seed `seed` names.
fn draw(seed: u64) -> Draw {
    let mut rng = StdRng::seed_from_u64(seed);
    let row = CATALOG[rng.gen_range(0..CATALOG.len())].name;
    let values = dims(shape_of(row))
        .into_iter()
        .map(|(name, values)| (name, values[rng.gen_range(0..values.len())].clone()))
        .collect();
    Draw {
        seed: Some(seed),
        row,
        values,
        fault_seed: rng.gen(),
    }
}

impl Draw {
    /// An explicit case: each dimension's first value, but `set`.
    fn fixed(row: &'static str, fault_seed: u64, set: &[(&str, &str)]) -> Draw {
        let mut values: Vec<_> = dims(shape_of(row))
            .into_iter()
            .map(|(name, values)| (name, values[0].clone()))
            .collect();
        for (name, value) in set {
            let slot = values.iter_mut().find(|(n, _)| n == name);
            slot.unwrap_or_else(|| panic!("{row} takes no {name}")).1 = value.to_string();
        }
        Draw {
            seed: None,
            row,
            values,
            fault_seed,
        }
    }

    fn get(&self, dim: &str) -> &str {
        let value = self.values.iter().find(|(name, _)| *name == dim);
        &value.unwrap_or_else(|| panic!("{self}: no {dim}")).1
    }

    fn num(&self, dim: &str) -> usize {
        self.get(dim).parse().expect("a number")
    }

    fn tcp(&self) -> bool {
        self.get("venue").starts_with("tcp")
    }

    fn seeded(&self) -> bool {
        self.get("venue").ends_with("seeded-kill")
    }

    /// A seeded kill with no retry left: the run must fail.
    fn must_fail(&self) -> bool {
        self.seeded() && self.get("retries") == "1"
    }

    /// A seeded kill in-proc over a non-empty input: its map and reduce
    /// kill both fire.
    fn kills_fire(&self) -> bool {
        let empty = self.values.iter().any(|(n, v)| *n == "splits" && v == "0");
        self.get("venue") == "in-proc+seeded-kill" && !empty
    }

    /// The pairs of values this draw shows to work together, and
    /// `(row, KILLS_FIRE)` if its kills fire. A draw that must fail shows
    /// only that a seeded kill under `retries 1` fails.
    fn pairs(&self) -> Vec<(String, String)> {
        if self.must_fail() {
            let venue = format!("venue={}", self.get("venue"));
            return vec![("retries=1".to_string(), venue)];
        }
        let cells: Vec<String> = std::iter::once(format!("row={}", self.row))
            .chain(self.values.iter().map(|(n, v)| format!("{n}={v}")))
            .collect();
        let mut pairs = Vec::new();
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                pairs.push((a.clone(), b.clone()));
            }
        }
        if self.kills_fire() {
            pairs.push((cells[0].clone(), KILLS_FIRE.to_string()));
        }
        pairs
    }

    /// The table's settings for this draw, over `job`.
    fn settings(&self, job: JobSpec) -> Settings {
        let mut s = Settings {
            job,
            engine: EngineConfig::default(),
        };
        for (name, value) in &self.values {
            if let Some(knob) = knobs::find(name) {
                knob.set(&mut s, value)
                    .unwrap_or_else(|e| panic!("{self}: {e}"));
            }
        }
        s.job.validate().unwrap_or_else(|e| panic!("{self}: {e}"));
        s
    }
}

impl fmt::Display for Draw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.seed {
            Some(seed) => write!(f, "WALK_SEED={seed}")?,
            None => write!(f, "explicit case")?,
        }
        write!(f, " [{}", self.row)?;
        for (name, value) in &self.values {
            write!(f, " {name}={value}")?;
        }
        write!(f, " fault-seed={}]", self.fault_seed)
    }
}

/// Every pair of values a shape's draws can show working together, and
/// each row with [`KILLS_FIRE`].
fn universe(shape: &str) -> BTreeSet<(String, String)> {
    let rows = CATALOG.iter().filter(|w| shape_of(w.name) == shape);
    let mut dims = dims(shape);
    dims.insert(0, ("row", rows.map(|w| w.name.to_string()).collect()));
    let mut pairs = BTreeSet::new();
    for (i, (a, av)) in dims.iter().enumerate() {
        for (b, bv) in &dims[i + 1..] {
            for x in av {
                for y in bv {
                    pairs.insert((format!("{a}={x}"), format!("{b}={y}")));
                }
            }
        }
    }
    for row in &dims[0].1 {
        pairs.insert((format!("row={row}"), KILLS_FIRE.to_string()));
    }
    pairs
}

/// Seeds whose draws cover `shape`'s universe: at each step, the seed
/// among the next [`CANDIDATES`] that covers most pairs not yet covered
/// (the lowest on a tie).
fn covering_set(shape: &str) -> Vec<u64> {
    let mut open = universe(shape);
    let mut seeds = Vec::new();
    let mut next = 0;
    while !open.is_empty() {
        assert!(next < 1 << 24, "{shape}: no draw covers {open:?}");
        let gain = |d: &Draw| d.pairs().iter().filter(|p| open.contains(*p)).count();
        let best = (next..next + CANDIDATES)
            .map(draw)
            .filter(|d| shape_of(d.row) == shape)
            .max_by_key(|d| (gain(d), Reverse(d.seed)));
        next += CANDIDATES;
        if let Some(d) = best.filter(|d| gain(d) > 0) {
            for p in d.pairs() {
                open.remove(&p);
            }
            seeds.extend(d.seed);
        }
    }
    seeds
}

/// What a draw's run did, read from its trace.
#[derive(Default)]
struct Outcome {
    map_kills: usize,
    reduce_kills: usize,
    retries: usize,
    worker_deaths: usize,
}

impl Outcome {
    fn of(events: &[TraceEvent]) -> Outcome {
        let mut o = Outcome::default();
        for e in events {
            let first = e.args.first().map(|(name, _)| *name);
            match (e.name, first) {
                ("task_failed", Some("task")) => o.map_kills += 1,
                ("task_failed", Some("partition")) => o.reduce_kills += 1,
                ("retry", _) => o.retries += 1,
                ("worker_dead", _) => o.worker_deaths += 1,
                _ => {}
            }
        }
        o
    }
}

/// A job or plan row's records, generated once.
fn row_records(input: Input) -> &'static [Vec<u8>] {
    static RECORDS: [OnceLock<Vec<Vec<u8>>>; 2] = [OnceLock::new(), OnceLock::new()];
    match input {
        Input::Clicks => RECORDS[0].get_or_init(|| input.records(CLICKS)),
        Input::Docs => RECORDS[1].get_or_init(|| input.records(DOCS)),
    }
}

/// The records a draw reads: none over zero splits.
fn draw_records(d: &Draw, input: Input) -> &'static [Vec<u8>] {
    match d.num("splits") {
        0 => &[],
        _ => row_records(input),
    }
}

/// A job or plan row's reference over `records`, computed once.
fn row_reference(row: &'static str, records: &'static [Vec<u8>]) -> Arc<(Pairs, u64)> {
    type References = BTreeMap<(&'static str, usize), Arc<(Pairs, u64)>>;
    static REFERENCES: Mutex<References> = Mutex::new(BTreeMap::new());
    let mut references = REFERENCES.lock().unwrap_or_else(PoisonError::into_inner);
    let computed = || Arc::new(reference(row, records));
    Arc::clone(
        references
            .entry((row, records.len()))
            .or_insert_with(computed),
    )
}

/// What a draw's run reads: its records over its split count, or an
/// iterative row's input sizes and loop bounds.
fn draw_params(d: &Draw, input: Option<Input>) -> Params {
    let splits = input.map_or_else(Vec::new, |input| {
        let records = draw_records(d, input);
        let per_split = records.len().div_ceil(d.num("splits").max(1)).max(1);
        make_splits(records.to_vec(), per_split)
    });
    Params {
        splits,
        records: ITERATIVE_RECORDS,
        k: None,
        rounds: ROUNDS,
        eps: None,
        users: ITERATIVE_RECORDS / 3,
    }
}

/// Run `d` through the catalog's runner and hold its answer to the
/// reference; panics naming the draw.
fn run(d: &Draw) -> Outcome {
    let row = catalog::find(d.row).expect("a catalog row");
    let reducers = d.num("reducers");
    let input = row.reads();
    let params = draw_params(d, input);
    let tracer = Tracer::enabled();
    let mut settings = d.settings(row.job().build().expect("a valid job"));
    settings.engine.tracer = tracer.clone();
    if d.seeded() {
        // Plan only what fires: remote map attempts run no injected fault.
        let maps = if d.tcp() { 0 } else { row.map_tasks(&params) };
        let plan = FaultPlan::seeded(d.fault_seed, maps, reducers);
        settings.engine.faults = plan.into_injector();
    }
    let mut workers = Vec::new();
    if d.tcp() {
        let dies = WorkerOptions {
            map_slots: 1,
            die_after_maps: d.get("venue").ends_with("worker-dies").then_some(1),
        };
        workers.push(spawn_local(catalog::registry(), dies).expect("spawn worker"));
        let healthy = WorkerOptions::default();
        workers.push(spawn_local(catalog::registry(), healthy).expect("spawn worker"));
        let addrs = workers.iter().map(|w| w.addr().to_string()).collect();
        settings.engine.transport = Transport::Tcp { workers: addrs };
    }

    let result = catalog::run(row, settings, params);
    for w in workers {
        w.shutdown();
    }
    let outcome = Outcome::of(&tracer.drain());

    if d.must_fail() {
        match result {
            Err(Error::Io(e)) if e.to_string().contains("injected fault") => return outcome,
            Err(e) => panic!("{d}: failed with {e:?}, not the injected fault"),
            Ok(_) => panic!("{d}: a seeded kill under retries 1 succeeded"),
        }
    }
    let answer = result.unwrap_or_else(|e| panic!("{d}: {e}"));
    let reference = || {
        let input = input.expect("a row that reads records");
        row_reference(d.row, draw_records(d, input))
    };
    match &answer {
        Answer::Job(report) => check_job(d, report, &reference(), &outcome),
        Answer::Plan(_) => check_pairs(d, answer.finals(), reference().0.clone()),
        Answer::Rounds { rounds, .. } => {
            let p = draw_params(d, None);
            let (want_rounds, want) = reference_iterative(d.row, &p, reducers);
            assert_eq!(*rounds, want_rounds, "{d}: rounds");
            check_pairs(d, answer.finals(), want);
        }
    }
    outcome
}

/// `got` sorted must be `want` sorted.
fn check_pairs(d: &Draw, mut got: Pairs, mut want: Pairs) {
    got.sort();
    want.sort();
    assert_eq!(got.len(), want.len(), "{d}: group count");
    let diff = got.iter().zip(&want).position(|(g, w)| g != w);
    assert!(
        diff.is_none(),
        "{d}: pair {diff:?} differs from the reference"
    );
}

/// A job's answer, its map output and task counts and, unless a worker
/// dies, its attempts against the trace. A seeded plan kills one reduce
/// and, in-proc, one map; every split holds more records than a map kill
/// waits for.
fn check_job(d: &Draw, report: &JobReport, (want, emitted): &(Pairs, u64), o: &Outcome) {
    assert_eq!(report.groups_out, want.len() as u64, "{d}: groups out");
    assert_eq!(report.map_output_records, *emitted, "{d}: map output");
    let tasks = (report.map_tasks, report.reduce_tasks);
    assert_eq!(tasks, (d.num("splits"), d.num("reducers")), "{d}: tasks");
    if d.get("collect-output") == "discard" {
        assert!(report.outputs.is_empty(), "{d}: discarded output kept");
    } else {
        let finals = report.outputs.iter().filter(|o| o.kind == EmitKind::Final);
        let got = finals.map(|o| (o.key.clone(), o.value.clone())).collect();
        check_pairs(d, got, want.clone());
    }
    // An empty input has no map task to kill, and a TCP plan holds none.
    let kills = usize::from(d.seeded());
    let map_kills = usize::from(d.seeded() && report.map_tasks > 0 && !d.tcp());
    if d.get("venue") == "tcp+worker-dies" {
        // A lost worker's maps re-run, however many it had taken.
        return;
    }
    assert_eq!(
        (o.map_kills, o.reduce_kills),
        (map_kills, kills),
        "{d}: kills"
    );
    let failed = map_kills + kills;
    assert_eq!(report.failed_attempts, failed, "{d}: failed attempts");
    assert_eq!(
        report.map_attempts,
        report.map_tasks + map_kills,
        "{d}: map attempts"
    );
    let reduces = report.reduce_tasks + kills;
    assert_eq!(report.reduce_attempts, reduces, "{d}: reduce attempts");
    assert_eq!(o.retries, failed, "{d}: retries");
}

/// Run `d` on its own thread, failing on a hang.
fn run_timed(d: Draw) -> Outcome {
    let (tx, rx) = channel();
    let shown = d.to_string();
    let handle = std::thread::spawn(move || {
        let outcome = run(&d);
        let _ = tx.send(());
        outcome
    });
    if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(DRAW_TIMEOUT) {
        panic!("{shown}: no answer after {DRAW_TIMEOUT:?}");
    }
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// `key` → count pairs, keys little-endian.
fn counts(keys: impl Iterator<Item = u32>) -> BTreeMap<Vec<u8>, u64> {
    let mut counts = BTreeMap::new();
    for k in keys {
        *counts.entry(k.to_le_bytes().to_vec()).or_default() += 1;
    }
    counts
}

fn le_counts(counts: BTreeMap<Vec<u8>, u64>) -> Pairs {
    let pairs = counts.into_iter();
    pairs.map(|(k, n)| (k, n.to_le_bytes().to_vec())).collect()
}

/// Each word's `(doc, position)` postings, in order.
fn postings(records: &[Vec<u8>]) -> BTreeMap<Vec<u8>, Vec<(u32, u32)>> {
    let mut index: BTreeMap<Vec<u8>, Vec<(u32, u32)>> = BTreeMap::new();
    for r in records {
        let (doc, words) = parse_doc(r).expect("a document");
        for (pos, w) in words.enumerate() {
            index.entry(w.to_vec()).or_default().push((doc, pos as u32));
        }
    }
    for list in index.values_mut() {
        list.sort_unstable();
    }
    index
}

/// A job or plan row's answer over `records`, computed without the
/// engine, and how many pairs its (first) map side emits.
fn reference(row: &str, records: &[Vec<u8>]) -> (Pairs, u64) {
    let clicks: Vec<Click> = records.iter().filter_map(|r| Click::from_text(r)).collect();
    let url_counts = || counts(clicks.iter().map(|c| c.url));
    let emitted = clicks.len() as u64;
    let pairs = match row {
        "sessionization" => {
            let mut users: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
            for c in &clicks {
                users.entry(c.user).or_default().push((c.ts, c.url));
            }
            let sessions = users.into_iter().map(|(user, mut clicks)| {
                clicks.sort_unstable();
                let mut out = Vec::new();
                for session in clicks.chunk_by(|a, b| b.0 - a.0 <= DEFAULT_GAP_S) {
                    out.extend_from_slice(&(session.len() as u32).to_le_bytes());
                    for (ts, url) in session {
                        out.extend_from_slice(&ts.to_le_bytes());
                        out.extend_from_slice(&url.to_le_bytes());
                    }
                }
                (user.to_le_bytes().to_vec(), out)
            });
            sessions.collect()
        }
        "page-frequency" => le_counts(url_counts()),
        "per-user-count" => le_counts(counts(clicks.iter().map(|c| c.user))),
        "top-k" => {
            let mut top: Vec<(u64, Vec<u8>)> =
                url_counts().into_iter().map(|(url, n)| (n, url)).collect();
            top.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            top.truncate(CatalogConfig::default().k);
            // Every URL routes to the top key: no URL, no group.
            if top.is_empty() {
                return (Vec::new(), emitted);
            }
            let mut value = Vec::new();
            for (n, url) in top {
                value.extend_from_slice(&n.to_le_bytes());
                value.extend_from_slice(&(url.len() as u32).to_le_bytes());
                value.extend_from_slice(&url);
            }
            vec![(top_k::TOP_KEY.to_vec(), value)]
        }
        "inverted-index" | "df-histogram" => {
            let index = postings(records);
            let emitted = index.values().map(|list| list.len() as u64).sum();
            if row == "df-histogram" {
                let dfs = index.values().map(|list| {
                    let docs: BTreeSet<u32> = list.iter().map(|&(doc, _)| doc).collect();
                    (docs.len() as u64).to_le_bytes().to_vec()
                });
                let mut hist = BTreeMap::new();
                for df in dfs {
                    *hist.entry(df).or_default() += 1;
                }
                return (le_counts(hist), emitted);
            }
            let lists = index.into_iter().map(|(word, list)| {
                let bytes = list
                    .iter()
                    .flat_map(|(doc, pos)| doc.to_le_bytes().into_iter().chain(pos.to_le_bytes()));
                (word, bytes.collect())
            });
            return (lists.collect(), emitted);
        }
        other => panic!("no reference for the catalog row {other}"),
    };
    (pairs, emitted)
}

/// An iterative row's rounds and answer under `p`, computed without the
/// engine, over the input its catalog entry generates.
fn reference_iterative(row: &str, p: &Params, reducers: usize) -> (usize, Pairs) {
    match row {
        "pagerank" => {
            let nodes = p.records.max(1);
            let config = pagerank::GraphConfig {
                nodes,
                ..Default::default()
            };
            let cfg = pagerank::PageRankConfig {
                rounds: p.rounds,
                eps: p.eps,
                reducers,
                ..pagerank::PageRankConfig::new(nodes)
            };
            let (ranks, rounds) = pagerank::reference(&pagerank::graph_records(config), &cfg);
            let pairs = ranks
                .iter()
                .map(|&(node, rank)| (node.to_string().into_bytes(), rank.to_le_bytes().to_vec()));
            (rounds, pairs.collect())
        }
        "kmeans" => {
            let k = p.k.unwrap_or(3);
            let points = kmeans::point_records(kmeans::PointsConfig {
                points: p.records.max(k),
                clusters: k,
                ..Default::default()
            });
            let cfg = kmeans::KMeansConfig {
                rounds: p.rounds,
                eps: p.eps.map(|e| e as i64).or(Some(0)),
                reducers,
                ..kmeans::KMeansConfig::new(k)
            };
            let (centroids, rounds) = kmeans::reference(&points, &cfg).expect("k-means");
            let pairs = centroids.into_iter().map(|(cid, coords)| {
                let le = coords.iter().flat_map(|x| x.to_le_bytes()).collect();
                (format!("c{cid}").into_bytes(), le)
            });
            (rounds, pairs.collect())
        }
        "join" => {
            let mut gen = onepass_workloads::ClickGen::new(onepass_workloads::ClickGenConfig {
                users: p.users * 2,
                ..Default::default()
            });
            let clicks = gen.text_records(p.records);
            let joined = join::reference_join(&join::user_records(p.users), &clicks);
            let pairs = joined.into_iter().map(|(uid, cc, url)| {
                (
                    uid.to_string().into_bytes(),
                    [cc, url.to_le_bytes().to_vec()].concat(),
                )
            });
            (2, pairs.collect())
        }
        other => panic!("no reference for the iterative row {other}"),
    }
}

/// What one row's draws did.
#[derive(Clone, Copy, Default)]
struct Tally {
    draws: usize,
    in_proc: usize,
    tcp: usize,
    /// Map and reduce kills that fired in seeded draws.
    map_kills: usize,
    reduce_kills: usize,
    worker_deaths: usize,
    /// Draws that had to fail, and did.
    must_fail: usize,
}

impl Tally {
    const COLUMNS: [&str; 7] = [
        "draws",
        "in-proc",
        "tcp",
        "map-kills",
        "reduce-kills",
        "worker-deaths",
        "must-fail",
    ];

    fn cells(&self) -> [usize; 7] {
        [
            self.draws,
            self.in_proc,
            self.tcp,
            self.map_kills,
            self.reduce_kills,
            self.worker_deaths,
            self.must_fail,
        ]
    }
}

/// What one shape's walk reached.
#[derive(Default)]
struct Coverage {
    draws: usize,
    /// `dim=value` → draws that took it.
    reached: BTreeMap<String, usize>,
    rows: BTreeMap<&'static str, Tally>,
    pairs: BTreeSet<(String, String)>,
}

impl Coverage {
    fn add(&mut self, d: &Draw, o: &Outcome) {
        self.draws += 1;
        for (name, value) in &d.values {
            *self.reached.entry(format!("{name}={value}")).or_default() += 1;
        }
        let t = self.rows.entry(d.row).or_default();
        t.draws += 1;
        if d.tcp() {
            t.tcp += 1;
        } else {
            t.in_proc += 1;
        }
        if d.seeded() {
            t.map_kills += o.map_kills;
            t.reduce_kills += o.reduce_kills;
        }
        t.worker_deaths += o.worker_deaths;
        t.must_fail += usize::from(d.must_fail());
        self.pairs.extend(d.pairs());
    }

    fn table(&self, shape: &str) -> String {
        let mut out = format!("\nwalk over the {shape} rows: {} draws\n", self.draws);
        out.push_str(&format!("  {:<16}", "row"));
        for column in Tally::COLUMNS {
            out.push_str(&format!(" {column:>13}"));
        }
        for (row, t) in &self.rows {
            out.push_str(&format!("\n  {row:<16}"));
            for cell in t.cells() {
                out.push_str(&format!(" {cell:>13}"));
            }
        }
        out.push('\n');
        for (dim, values) in dims(shape) {
            out.push_str(&format!("  {dim:<16}"));
            for v in values {
                let n = self.reached.get(&format!("{dim}={v}")).unwrap_or(&0);
                out.push_str(&format!(" {v}:{n}"));
            }
            out.push('\n');
        }
        out
    }

    /// Every value, row and pair reached; per row both transports (job
    /// and plan rows) and a seeded map and reduce kill; a worker death.
    fn assert_complete(&self, shape: &str) {
        for (dim, values) in dims(shape) {
            for v in values {
                let key = format!("{dim}={v}");
                assert!(self.reached.contains_key(&key), "{shape}: {key} unreached");
            }
        }
        let tcp = shape != "iterative";
        for w in CATALOG.iter().filter(|w| shape_of(w.name) == shape) {
            let t = self.rows.get(w.name).copied().unwrap_or_default();
            let transports = t.in_proc > 0 && (t.tcp > 0 || !tcp);
            assert!(transports, "{}: a transport unreached", w.name);
            let kills = t.map_kills > 0 && t.reduce_kills > 0;
            assert!(kills, "{}: no seeded map and reduce kill", w.name);
        }
        let deaths: usize = self.rows.values().map(|t| t.worker_deaths).sum();
        assert!(deaths > 0 || !tcp, "{shape}: no worker died");
        let missed: Vec<_> = universe(shape).difference(&self.pairs).cloned().collect();
        assert!(missed.is_empty(), "{shape}: pairs never met: {missed:?}");
    }
}

/// The number in environment variable `name`, if set.
fn env_num(name: &str) -> Option<u64> {
    let value = std::env::var(name).ok()?;
    Some(
        value
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} is a number")),
    )
}

fn replay_seed() -> Option<u64> {
    env_num("WALK_SEED")
}

/// Walk `shape`'s covering set and random draws, or only `WALK_SEED`'s
/// draw if it is of this shape.
fn walk(shape: &str) {
    if let Some(seed) = replay_seed() {
        let d = draw(seed);
        if shape_of(d.row) == shape {
            eprintln!("replaying {d}");
            run_timed(d);
        }
        return;
    }
    let random_draws = env_num("WALK_DRAWS").unwrap_or(RANDOM_DRAWS);
    let random = (FIRST_RANDOM..FIRST_RANDOM + random_draws).map(draw);
    let draws = covering_set(shape).into_iter().map(draw).chain(random);
    let mut coverage = Coverage::default();
    for d in draws.filter(|d| shape_of(d.row) == shape) {
        let outcome = run_timed(d.clone());
        coverage.add(&d, &outcome);
    }
    eprint!("{}", coverage.table(shape));
    coverage.assert_complete(shape);
}

#[test]
fn job_rows_match_their_references_across_the_knob_table() {
    walk("job");
}

#[test]
fn plan_rows_match_their_references_across_the_knob_table() {
    walk("plan");
}

#[test]
fn iterative_rows_match_their_references_across_the_knob_table() {
    walk("iterative");
}

/// Fault seeds under which a planned reduce kill once fired or not by
/// timing: each must fire both kills and answer exactly, on the one-pass
/// preset over six splits and three reducers, under both spill backends.
#[test]
fn fault_seeds_that_once_failed_fire_both_kills_and_answer_exactly() {
    if replay_seed().is_some() {
        return;
    }
    for fault_seed in [17, 27, 30, 36] {
        for spill in ["memory", "temp-files"] {
            run_timed(Draw::fixed(
                "page-frequency",
                fault_seed,
                &[
                    ("reducers", "3"),
                    ("backend", "freq-hash"),
                    ("budget-kb", "65536"),
                    ("map-workers", "3"),
                    ("spill", spill),
                    ("retries", "3"),
                    ("splits", "6"),
                    ("venue", "in-proc+seeded-kill"),
                ],
            ));
        }
    }
}
