//! `pagerank_cached`: ten rounds through `pagerank::run_cached` with a
//! fresh `DatasetCache` per iteration, checked against
//! `pagerank::reference`.

use std::sync::Arc;

use onepass_core::metrics::Phase;
use onepass_core::obs::{MetricsRegistry, SampleValue};
use onepass_core::trace::Tracer;
use onepass_groupby::FirstAgg;
use onepass_runtime::cache::CacheStats;
use onepass_runtime::{CacheConfig, DatasetCache, Engine, EngineConfig};
use onepass_workloads::pagerank::{self, PageRankConfig, Ranks};

use crate::batch::PHASE_METRICS;
use crate::inputs::{self, Scale};
use crate::probes::ProbeInput;
use crate::span::SpanLog;
use crate::sys;
use crate::workload::{Iteration, Metrics, Pass, Workload};

/// 50k nodes make a ten-round iteration 0.5 s. At 100k it took 1.1 s, a
/// 16 s run held 13 of them, and few of those fell wholly inside a quiet
/// moment of the host: ten runs spread 17% where the 0.3 s batch
/// iterations spread 8%.
const NODES: usize = 50_000;
const MAX_OUT: usize = 4;
const ROUNDS: usize = 10;
const WORKERS: usize = 2;

/// Clicks generated for the parse probe only: this workload has no click
/// input, so that row is a host anchor here, not a cost of the workload.
const PROBE_CLICKS: usize = 200_000;

/// The PageRank workload, set up.
pub struct PageRank {
    seed: u64,
    scale: Scale,
    graph: Vec<Vec<u8>>,
    edges: u64,
    config: PageRankConfig,
    reference: Ranks,
    /// Cache counters and registry of the last traced iteration.
    traced: Option<(CacheStats, MetricsRegistry)>,
}

/// Destination ids of one `"<src>\t<dst>,<dst>,..."` line.
fn destinations(line: &[u8]) -> impl Iterator<Item = u32> + '_ {
    let tab = line.iter().position(|&b| b == b'\t').expect("src<TAB>dsts");
    line[tab + 1..].split(|&b| b == b',').map(|d| {
        std::str::from_utf8(d)
            .expect("ascii")
            .parse()
            .expect("node id")
    })
}

impl PageRank {
    /// Untimed set-up: generate the graph, compute the reference ranks.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let nodes = scale.of(NODES);
        let graph = inputs::graph(seed, nodes, MAX_OUT);
        let edges = graph.iter().map(|l| destinations(l).count() as u64).sum();
        let mut config = PageRankConfig::new(nodes);
        config.rounds = ROUNDS;
        config.reducers = WORKERS;
        let (reference, rounds) = pagerank::reference(&graph, &config);
        assert_eq!(
            rounds, ROUNDS,
            "no eps cutoff: the reference runs every round"
        );
        PageRank {
            seed,
            scale,
            graph,
            edges,
            config,
            reference,
            traced: None,
        }
    }

    fn check(&self, result: Result<(Ranks, usize), String>) -> Result<(), String> {
        let (ranks, rounds) = result?;
        if rounds != ROUNDS {
            return Err(format!("{rounds} rounds run, want {ROUNDS}"));
        }
        if ranks != self.reference {
            let at = ranks.iter().zip(&self.reference).position(|(a, b)| a != b);
            return Err(format!(
                "ranks differ from the reference (first at {at:?}, {} vs {} nodes)",
                ranks.len(),
                self.reference.len()
            ));
        }
        Ok(())
    }
}

impl Workload for PageRank {
    fn input_fingerprint(&self) -> u64 {
        inputs::fingerprint(self.graph.iter().map(Vec::as_slice))
    }

    fn min_iterations(&self) -> usize {
        5
    }

    fn iterate(&mut self, pass: Pass, spans: &mut SpanLog) -> Iteration {
        let iteration = spans.begin("iteration");
        let observed = (pass == Pass::Traced).then(|| (Tracer::enabled(), MetricsRegistry::new()));
        let mut engine = EngineConfig::builder().map_workers(WORKERS);
        let mut cache = DatasetCache::new(CacheConfig::default());
        if let Some((tracer, registry)) = &observed {
            engine = engine.tracer(tracer.clone()).metrics(registry.clone());
            cache.attach_metrics(registry);
            cache.attach_tracer(tracer);
        }
        let engine = Engine::with_config(engine.build());
        let id = spans.begin("pagerank.run_cached");
        let (result, wall, cpu) =
            sys::timed(|| pagerank::run_cached(&engine, &cache, &self.graph, &self.config));
        spans.end(id);
        if let Some((tracer, registry)) = observed {
            drop(tracer.drain());
            self.traced = Some((cache.stats(), registry));
        }
        let failures = self
            .check(result.map_err(|e| e.to_string()))
            .err()
            .into_iter()
            .collect();
        spans.end(iteration);
        Iteration {
            wall,
            cpu,
            records: self.edges * ROUNDS as u64,
            // The loop is blocking: the first ranks a caller can read are
            // the final ones.
            first_answer: wall,
            attempted: 1,
            failures,
        }
    }

    /// Every timed iteration already compares the full rank vector with
    /// the reference; nothing is discarded, so there is nothing more to
    /// collect.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn probe_input(&self) -> ProbeInput {
        let clicks = inputs::clicks(
            inputs::batch_click_config(self.seed),
            self.scale.of(PROBE_CLICKS),
        );
        // The cached per-node state as the rank rounds shuffle and cache
        // it: key node id, value `[u64 rank][u32 deg][u32 dst]*`.
        let state: Vec<([u8; 4], Vec<u8>)> = self
            .graph
            .iter()
            .enumerate()
            .map(|(node, line)| {
                let dsts: Vec<u32> = destinations(line).collect();
                let mut value = Vec::with_capacity(12 + dsts.len() * 4);
                value.extend_from_slice(&(pagerank::SCALE / self.graph.len() as u64).to_le_bytes());
                value.extend_from_slice(&(dsts.len() as u32).to_le_bytes());
                for d in dsts {
                    value.extend_from_slice(&d.to_le_bytes());
                }
                ((node as u32).to_le_bytes(), value)
            })
            .collect();
        let pairs = state.iter().map(|(k, v)| (&k[..], v.as_slice()));
        ProbeInput::new(clicks, pairs, Arc::new(FirstAgg))
    }

    fn layer_metrics(&self, _probes: &Metrics, _untraced_cpu_s: f64) -> Metrics {
        let mut m = Metrics::new();
        let Some((stats, registry)) = &self.traced else {
            return m;
        };
        m.insert("cache.hits", stats.hits as f64);
        m.insert("cache.evictions", stats.evictions as f64);
        m.insert("cache.reloads", stats.reloads as f64);
        m.insert(
            "cache.resident_mib",
            stats.resident_bytes as f64 / (1 << 20) as f64,
        );
        // `run_cached` returns ranks, not reports; the per-phase busy time
        // of its rounds is what the engine published to the registry.
        let snapshot = registry.snapshot();
        let records = (self.edges * ROUNDS as u64) as f64;
        let mut shuffled_bytes = 0u64;
        for sample in &snapshot.metrics {
            let SampleValue::Counter(v) = sample.value else {
                continue;
            };
            let label = |k: &str| {
                sample
                    .labels
                    .iter()
                    .find(|(key, _)| key == k)
                    .map(|(_, v)| v.as_str())
            };
            match sample.name.as_str() {
                "onepass_engine_phase_micros_total" => {
                    let phase = Phase::all()
                        .iter()
                        .position(|p| Some(p.label()) == label("phase"));
                    if let Some(i) = phase {
                        *m.entry(PHASE_METRICS[i]).or_insert(0.0) += v as f64 * 1e3 / records;
                    }
                }
                "onepass_engine_shuffle_bytes_total" => shuffled_bytes += v,
                _ => {}
            }
        }
        m.insert("shuffle.bytes_per_rec", shuffled_bytes as f64 / records);
        m
    }
}
