//! `serve_200`: the in-process serving core under a closed-loop load
//! generator — one feeder that blocks on `Server::feed`'s backpressure
//! and one collector polling every tenant's event channel. A slow server
//! therefore receives its next batch later; there is no send schedule.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::TryRecvError;
use onepass_core::governor::policy_by_name;
use onepass_core::obs::MetricsRegistry;
use onepass_runtime::serve::{dump_final_answers, AdmissionCounters, QueryCatalog};
use onepass_runtime::stream::SessionOptions;
use onepass_runtime::{DlqConfig, ServeConfig, Server, TenantEvent, TenantHandle, TenantSession};
use onepass_workloads::serving::{ingest_family, CLICKS_INGEST, DOCS_INGEST};
use onepass_workloads::sessionization::SessionizeAgg;
use onepass_workloads::{standard_catalog, CatalogConfig, TenantSpec};

use crate::inputs::{self, Scale};
use crate::probes::{self, ProbeInput};
use crate::span::SpanLog;
use crate::stats::{jain, summarize};
use crate::sys;
use crate::workload::{Iteration, Metrics, Pass, Workload};

const TENANTS: usize = 200;
const CLICKS: usize = 5_000;
const BATCH: usize = 512;
const POOL_BYTES: usize = 64 << 20;
const SHARDS: usize = 2;

/// Batches a shard queues before `Server::feed` blocks. The whole feed is
/// 11 batches, so the default depth of 64 would swallow it at once and
/// the feeder would never wait on the server; at 2 it does.
const QUEUE_DEPTH: usize = 2;

/// Click sample for the layer probes: the workload's own generator run
/// on, because 5,000 records are too few to time a nanosecond-scale call.
const PROBE_CLICKS: usize = 200_000;

/// How long the collector sleeps when a sweep over every channel found
/// nothing; bounds the TTFA timestamp error.
const COLLECTOR_IDLE: Duration = Duration::from_micros(200);

/// The feed, the tenant population, and the references for both.
struct InputSet {
    clicks: Vec<Vec<u8>>,
    docs: Vec<Vec<u8>>,
    tenants: Vec<TenantSpec>,
    /// Solo-run dump of every query some tenant subscribes to.
    solo: BTreeMap<String, String>,
}

/// What the collector brings home for one tenant.
#[derive(Default)]
struct Outcome {
    ttfa: Option<Duration>,
    dump: Option<String>,
    records_in: u64,
    dlq_dead: u64,
    error: Option<String>,
}

/// Figures of the last traced iteration that only serving has.
struct Traced {
    subscribe_ms_per_tenant: f64,
    feed_blocked_frac: f64,
    counters: AdmissionCounters,
    dlq_dead: u64,
    ttfa_p50_s: f64,
    ttfa_p95_s: f64,
    jain: f64,
}

/// The serving workload, set up.
pub struct Serve {
    seed: u64,
    scale: Scale,
    catalog: QueryCatalog,
    input: InputSet,
    last: Option<Traced>,
}

/// A solo (ungoverned, unmultiplexed) run of `query` over `records`: the
/// reference every served tenant must match byte for byte.
fn solo_dump(catalog: &QueryCatalog, query: &str, records: &[Vec<u8>]) -> String {
    let compiled = catalog.resolve(query).expect("catalog query resolves");
    let mut session = TenantSession::open(
        "solo",
        query,
        &compiled,
        &SessionOptions::default(),
        DlqConfig::default(),
    )
    .expect("open solo session");
    for chunk in records.chunks(BATCH) {
        session.feed(chunk).expect("solo feed");
    }
    dump_final_answers(&session.close().expect("solo close").answers)
}

impl InputSet {
    fn generate(catalog: &QueryCatalog, seed: u64, scale: Scale) -> Self {
        let clicks = inputs::clicks(inputs::serve_click_config(seed), scale.of(CLICKS));
        let docs = inputs::docs(seed, clicks.len() / 100 + 1);
        let tenants = inputs::tenants(seed, TENANTS, &catalog.names());
        let mut solo = BTreeMap::new();
        for t in &tenants {
            solo.entry(t.query.clone()).or_insert_with(|| {
                let records = if ingest_family(&t.query) == DOCS_INGEST {
                    &docs
                } else {
                    &clicks
                };
                solo_dump(catalog, &t.query, records)
            });
        }
        InputSet {
            clicks,
            docs,
            tenants,
            solo,
        }
    }

    /// Feed clicks and documents interleaved in proportion, 512 records a
    /// batch. Returns the time spent inside `Server::feed`; every call's
    /// interval goes to `calls`.
    fn feed_all(
        &self,
        server: &Server,
        calls: &mut Vec<(Instant, Instant)>,
    ) -> Result<Duration, String> {
        let mut inside = Duration::ZERO;
        let mut feed = |family: &str, records: &[Vec<u8>]| {
            let batch = records.to_vec();
            let start = Instant::now();
            let r = server.feed(family, batch).map_err(|e| e.to_string());
            let end = Instant::now();
            inside += end - start;
            calls.push((start, end));
            r
        };
        let mut docs_fed = 0;
        for (i, chunk) in self.clicks.chunks(BATCH).enumerate() {
            feed(CLICKS_INGEST, chunk)?;
            let clicks_fed = ((i + 1) * BATCH).min(self.clicks.len());
            let due = self.docs.len() * clicks_fed / self.clicks.len();
            while docs_fed < due {
                let n = BATCH.min(due - docs_fed);
                feed(DOCS_INGEST, &self.docs[docs_fed..docs_fed + n])?;
                docs_fed += n;
            }
        }
        if docs_fed < self.docs.len() {
            feed(DOCS_INGEST, &self.docs[docs_fed..])?;
        }
        Ok(inside)
    }
}

impl Serve {
    /// Untimed set-up: generate the feed and the tenant population, run
    /// each subscribed query solo for the reference dumps.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let catalog = standard_catalog(CatalogConfig::default());
        let input = InputSet::generate(&catalog, seed, scale);
        Serve {
            seed,
            scale,
            catalog,
            input,
            last: None,
        }
    }

    fn start(&self, metrics: Option<MetricsRegistry>) -> Result<Server, String> {
        let mut config = ServeConfig {
            pool_bytes: POOL_BYTES,
            policy: policy_by_name("largest-consumer").expect("largest-consumer is registered"),
            shards: SHARDS,
            queue_depth: QUEUE_DEPTH,
            ..ServeConfig::default()
        };
        // One seat per tenant: fair share = 64 MiB / 200 = 328 KiB. With
        // the default 1024 seats the share is 64 KiB, every session sheds
        // all the time, and one iteration takes 13 s.
        config.admission.max_tenants = TENANTS;
        Server::start(config, self.catalog.clone(), metrics).map_err(|e| e.to_string())
    }
}

/// Sweep every open channel until each tenant has its final (or failed).
fn collect(handles: &[(TenantHandle, Instant)]) -> Vec<Outcome> {
    let mut outcomes: Vec<Outcome> = handles.iter().map(|_| Outcome::default()).collect();
    let mut open: Vec<usize> = (0..handles.len()).collect();
    while !open.is_empty() {
        let mut progressed = false;
        open.retain(|&i| {
            let (handle, subscribed) = &handles[i];
            let out = &mut outcomes[i];
            loop {
                match handle.events().try_recv() {
                    Ok(TenantEvent::Early(answers)) => {
                        progressed = true;
                        if out.ttfa.is_none() && !answers.is_empty() {
                            out.ttfa = Some(subscribed.elapsed());
                        }
                    }
                    Ok(TenantEvent::Final(close)) => {
                        progressed = true;
                        if out.ttfa.is_none() && !close.answers.is_empty() {
                            out.ttfa = Some(subscribed.elapsed());
                        }
                        out.dump = Some(dump_final_answers(&close.answers));
                        out.records_in = close.records_in;
                        out.dlq_dead = close.dlq_dead;
                        return false;
                    }
                    Ok(TenantEvent::Error(e)) => {
                        out.error = Some(e);
                        return false;
                    }
                    Err(TryRecvError::Disconnected) => {
                        out.error = Some("server went away before close".into());
                        return false;
                    }
                    Err(TryRecvError::Empty) => return true,
                }
            }
        });
        if !progressed {
            std::thread::sleep(COLLECTOR_IDLE);
        }
    }
    outcomes
}

impl Workload for Serve {
    fn input_fingerprint(&self) -> u64 {
        let set = &self.input;
        let tenants = set
            .tenants
            .iter()
            .flat_map(|t| [t.id.as_bytes(), t.query.as_bytes()]);
        inputs::fingerprint(
            set.clicks
                .iter()
                .chain(&set.docs)
                .map(Vec::as_slice)
                .chain(tenants),
        )
    }

    fn min_iterations(&self) -> usize {
        5
    }

    fn iterate(&mut self, pass: Pass, spans: &mut SpanLog) -> Iteration {
        let set = &self.input;
        let iteration = spans.begin("iteration");
        let registry = (pass == Pass::Traced).then(MetricsRegistry::new);
        let cpu0 = sys::process_cpu();
        let started = Instant::now();
        let mut failures = Vec::new();

        let id = spans.begin("Server::start");
        let server = self.start(registry);
        spans.end(id);
        let server = match server {
            Ok(s) => s,
            Err(e) => {
                spans.end(iteration);
                return Iteration {
                    wall: started.elapsed(),
                    cpu: sys::process_cpu().saturating_sub(cpu0),
                    records: 1,
                    first_answer: started.elapsed(),
                    attempted: TENANTS as u64,
                    failures: vec![format!("server start: {e}"); TENANTS],
                };
            }
        };

        let id = spans.begin("Server::subscribe");
        let t_subscribe = Instant::now();
        let mut handles = Vec::with_capacity(set.tenants.len());
        for spec in &set.tenants {
            match server.subscribe(&spec.id, &spec.query) {
                Ok(h) => handles.push((h, Instant::now())),
                Err(e) => failures.push(format!("{} rejected: {e}", spec.id)),
            }
        }
        let subscribe_wall = t_subscribe.elapsed();
        spans.end(id);

        // Closed loop: this thread feeds and blocks on backpressure; the
        // collector thread drains every tenant's events.
        let id = spans.begin("ingest");
        let t_ingest = Instant::now();
        let mut feed_calls = Vec::new();
        let (fed, feeder_wall, outcomes) = std::thread::scope(|s| {
            let collector = s.spawn(|| collect(&handles));
            let fed = set.feed_all(&server, &mut feed_calls);
            // Closing also unblocks the collector after a failed feed: a
            // closed server ends every tenant's channel.
            let closed = server.close().map_err(|e| e.to_string());
            let feeder_wall = t_ingest.elapsed();
            let fed = fed.and_then(|inside| closed.map(|()| inside));
            (
                fed,
                feeder_wall,
                collector.join().expect("collector thread"),
            )
        });
        let ingest_wall = t_ingest.elapsed();
        for (start, end) in feed_calls {
            spans.record("Server::feed", start, end);
        }
        spans.end(id);
        let cpu = sys::process_cpu().saturating_sub(cpu0);
        if let Err(e) = &fed {
            failures.push(format!("feed: {e}"));
        }

        let mut ttfas = Vec::with_capacity(outcomes.len());
        let mut tenant_records = 0u64;
        let mut dlq_dead = 0u64;
        for ((handle, _), out) in handles.iter().zip(&outcomes) {
            tenant_records += out.records_in;
            dlq_dead += out.dlq_dead;
            match (&out.error, &out.dump, out.ttfa) {
                (Some(e), _, _) => failures.push(format!("{} failed: {e}", handle.id)),
                (None, Some(dump), Some(ttfa)) if Some(dump) == set.solo.get(&handle.query) => {
                    ttfas.push(ttfa.as_secs_f64());
                }
                (None, Some(_), Some(_)) => failures.push(format!(
                    "{} ({}) differs from its solo run",
                    handle.id, handle.query
                )),
                _ => failures.push(format!("{} ({}) never answered", handle.id, handle.query)),
            }
        }
        // A failed tenant counts as missing every latency figure; with
        // none left, the whole ingest stands in.
        let (p50, tail) = if ttfas.is_empty() {
            (ingest_wall.as_secs_f64(), ingest_wall.as_secs_f64())
        } else {
            let s = summarize(&mut ttfas);
            (s.median, s.tail.map_or(s.median, |(_, v)| v))
        };
        if pass == Pass::Traced {
            self.last = Some(Traced {
                subscribe_ms_per_tenant: subscribe_wall.as_secs_f64() * 1e3 / TENANTS as f64,
                feed_blocked_frac: fed.as_ref().map_or(0.0, |inside| {
                    inside.as_secs_f64() / feeder_wall.as_secs_f64().max(f64::MIN_POSITIVE)
                }),
                counters: server.admission_counters(),
                dlq_dead,
                ttfa_p50_s: p50,
                ttfa_p95_s: tail,
                jain: jain(&ttfas),
            });
        }
        spans.end(iteration);
        Iteration {
            wall: ingest_wall,
            cpu,
            records: tenant_records.max(1),
            first_answer: Duration::from_secs_f64(p50),
            attempted: TENANTS as u64,
            failures,
        }
    }

    /// Every iteration already compares every tenant's finals with its
    /// query's solo run.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn probe_input(&self) -> ProbeInput {
        let clicks = inputs::clicks(
            inputs::serve_click_config(self.seed),
            self.scale.of(PROBE_CLICKS),
        );
        ProbeInput::from_clicks(
            clicks,
            probes::session_value,
            Arc::new(SessionizeAgg::default()),
        )
    }

    fn layer_metrics(&self, _probes: &Metrics, _untraced_cpu_s: f64) -> Metrics {
        let mut m = Metrics::new();
        let Some(t) = &self.last else {
            return m;
        };
        m.insert("serve.subscribe_ms_per_tenant", t.subscribe_ms_per_tenant);
        m.insert("serve.feed_blocked_frac", t.feed_blocked_frac);
        m.insert("serve.admitted", t.counters.admitted as f64);
        m.insert("serve.queued", t.counters.queued as f64);
        m.insert("serve.rejected", t.counters.rejected as f64);
        m.insert("serve.dlq_dead", t.dlq_dead as f64);
        m.insert("ttfa_p50_s", t.ttfa_p50_s);
        m.insert("ttfa_p95_s", t.ttfa_p95_s);
        m.insert("fairness_jain", t.jain);
        m
    }
}
