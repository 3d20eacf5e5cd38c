//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root is
//! the same table in the builder contract's form; a test keeps the two
//! in step.

/// Default `--seed` (README records a second seed the set was also run on).
pub const DEFAULT_SEED: u64 = 20_110_516;

/// Default `--seconds`, equal to `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 16;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The contract's spelling.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload of the set.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Fixed name; later issues cite it.
    pub name: &'static str,
    /// One line on why it is in the set.
    pub why: &'static str,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression; `None` for per-layer
    /// metrics, which have no bound.
    pub bound: Option<f64>,
}

/// The six workloads.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "sessionize_constrained",
        why: "paper headline: holistic reduce, no combiner, tight reduce budget; scatter, shuffle, FreqHash and framed spill do the work",
    },
    WorkloadSpec {
        name: "peruser_unconstrained",
        why: "~1% intermediate data: parse, fingerprint and the in-node combiner do everything; shuffle, group-by and spill changes must show no change",
    },
    WorkloadSpec {
        name: "sessionize_hadoop",
        why: "same input and budget on the sort-merge baseline (map sort, pull shuffle, multi-pass merge); the section-V margin is its ratio to sessionize_constrained",
    },
    WorkloadSpec {
        name: "sessionize_tcp2",
        why: "one-pass sessionization over two TCP loopback workers, ample memory: isolates wire encode/decode and socket copies from in-proc shuffle",
    },
    WorkloadSpec {
        name: "pagerank_cached",
        why: "ten cached rounds: plan edges, codec and DatasetCache get/put/zip-merge dominate; rounds after the first never parse text or spill",
    },
    WorkloadSpec {
        name: "serve_200",
        why: "closed-loop serving, 200 Zipf tenants on a 64 MiB pool: admission, leases and per-tenant fan-out; bypasses the batch scheduler",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them, none is ever zero.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("records_per_s", "rec/s", Higher, 0.25),
    e2e("cpu_s_per_mrec", "s/Mrec", Lower, 0.25),
    e2e("first_answer_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

/// Per-layer metrics of the traced pass. A metric that does not apply to
/// a workload reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("workloads.parse_click_ns_per_rec", "ns/rec", Lower),
    layer("hashlib.fingerprint_partition_ns_per_key", "ns/key", Lower),
    layer("bytes_kv.scatter_ns_per_rec", "ns/rec", Lower),
    layer("bytes_kv.scatter_bytes_per_rec", "B/rec", Lower),
    layer("bytes_kv.sort_partition_key_ns_per_rec", "ns/rec", Lower),
    layer("io.mem_write_ns_per_rec", "ns/rec", Lower),
    layer("io.mem_read_ns_per_rec", "ns/rec", Lower),
    layer("io.file_write_ns_per_rec", "ns/rec", Lower),
    layer("io.file_read_ns_per_rec", "ns/rec", Lower),
    layer("io.framed_bytes_per_rec", "B/rec", Lower),
    layer("groupby.inc_hash_fit_ns_per_rec", "ns/rec", Lower),
    layer("groupby.freq_hash_fit_ns_per_rec", "ns/rec", Lower),
    layer("groupby.hybrid_hash_fit_ns_per_rec", "ns/rec", Lower),
    layer("groupby.sortmerge_fit_ns_per_rec", "ns/rec", Lower),
    layer("groupby.inc_hash_tight_ns_per_rec", "ns/rec", Lower),
    layer("groupby.freq_hash_tight_ns_per_rec", "ns/rec", Lower),
    layer("groupby.hybrid_hash_tight_ns_per_rec", "ns/rec", Lower),
    layer("groupby.sortmerge_tight_ns_per_rec", "ns/rec", Lower),
    layer("groupby.inc_hash_tight_spill_bytes_per_rec", "B/rec", Lower),
    layer(
        "groupby.freq_hash_tight_spill_bytes_per_rec",
        "B/rec",
        Lower,
    ),
    layer(
        "groupby.hybrid_hash_tight_spill_bytes_per_rec",
        "B/rec",
        Lower,
    ),
    layer(
        "groupby.sortmerge_tight_spill_bytes_per_rec",
        "B/rec",
        Lower,
    ),
    layer("groupby.merge_f10_ns_per_rec", "ns/rec", Lower),
    layer("groupby.merge_f10_passes", "count", Lower),
    layer("sketch.space_saving_offer_ns_per_key", "ns/key", Lower),
    layer("sketch.misra_gries_offer_ns_per_key", "ns/key", Lower),
    layer("sketch.lossy_offer_ns_per_key", "ns/key", Lower),
    layer("shuffle.inproc_ns_per_rec", "ns/rec", Lower),
    layer("shuffle.bytes_per_rec", "B/rec", Lower),
    layer("shuffle.backpressure_stalls", "count", Lower),
    layer("shuffle.combine_ratio", "ratio", Lower),
    layer("transport.tcp_overhead_ns_per_rec", "ns/rec", Lower),
    layer("transport.wire_bytes_per_rec", "B/rec", Lower),
    layer("codec.encode_pair_ns_per_rec", "ns/rec", Lower),
    layer("codec.decode_pair_ns_per_rec", "ns/rec", Lower),
    layer("cache.put_ns_per_rec", "ns/rec", Lower),
    layer("cache.get_hit_ns_per_rec", "ns/rec", Lower),
    layer("cache.reload_ns_per_rec", "ns/rec", Lower),
    layer("cache.hits", "count", Higher),
    layer("cache.evictions", "count", Lower),
    layer("cache.reloads", "count", Lower),
    layer("cache.resident_mib", "MiB", Lower),
    layer("runtime.phase.read_ns_per_rec", "ns/rec", Lower),
    layer("runtime.phase.map_fn_ns_per_rec", "ns/rec", Lower),
    layer("runtime.phase.map_sort_ns_per_rec", "ns/rec", Lower),
    layer("runtime.phase.map_hash_ns_per_rec", "ns/rec", Lower),
    layer("runtime.phase.combine_ns_per_rec", "ns/rec", Lower),
    layer("runtime.phase.map_write_ns_per_rec", "ns/rec", Lower),
    layer("runtime.phase.shuffle_ns_per_rec", "ns/rec", Lower),
    layer("runtime.phase.merge_ns_per_rec", "ns/rec", Lower),
    layer("runtime.phase.reduce_group_ns_per_rec", "ns/rec", Lower),
    layer("runtime.phase.reduce_fn_ns_per_rec", "ns/rec", Lower),
    layer("runtime.phase.final_write_ns_per_rec", "ns/rec", Lower),
    layer("serve.subscribe_ms_per_tenant", "ms", Lower),
    layer("serve.feed_blocked_frac", "ratio", Lower),
    layer("serve.admitted", "count", Higher),
    layer("serve.queued", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.dlq_dead", "count", Lower),
    layer("ttfa_p50_s", "s", Lower),
    layer("ttfa_p95_s", "s", Lower),
    layer("fairness_jain", "ratio", Higher),
    layer("spill_bytes_per_rec", "B/rec", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("closure.explained_frac", "ratio", Higher),
    layer("closure.unexplained_ns_per_rec", "ns/rec", Lower),
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The contract's name rule: starts with a letter or digit, then letters,
/// digits, `_`, `.`, `-`; at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The contract's unit rule: letters, digits, `_`, `/`, `%`, `.`, `-`; at
/// most 16 characters.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check the tables against the contract's caps and charsets.
pub fn validate() -> Result<(), String> {
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err(format!(
            "{} workloads, contract allows 2..=8",
            WORKLOADS.len()
        ));
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        return Err(format!(
            "{} end-to-end metrics, contract allows 1..=16",
            END_TO_END.len()
        ));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        return Err(format!(
            "{} per-layer metrics, contract allows 1..=128",
            PER_LAYER.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for w in WORKLOADS {
        if !valid_name(w.name) || !seen.insert(w.name) {
            return Err(format!("bad or repeated workload name {:?}", w.name));
        }
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "workload {} needs a one-line why of ≤200 chars",
                w.name
            ));
        }
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        if !valid_name(m.name) || !seen.insert(m.name) {
            return Err(format!("bad or repeated metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("metric {} has bad unit {:?}", m.name, m.unit));
        }
    }
    for m in END_TO_END {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            other => {
                return Err(format!(
                    "metric {} has bound {other:?}, need (0, 0.25]",
                    m.name
                ))
            }
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower)
    {
        return Err("end-to-end metrics must include setup_s [s, lower]".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_core::json::Json;

    #[test]
    fn tables_meet_the_contract() {
        validate().unwrap();
    }

    #[test]
    fn name_and_unit_charsets() {
        for ok in [
            "setup_s",
            "runtime.phase.map_fn_ns_per_rec",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "ns/rec", "%", "s/Mrec"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "ns per rec", "µs", &"x".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    fn metric_rows(json: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} array"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` is this module's tables in the contract's form.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let json = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = json
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, want);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<_> = table
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.label().to_string(),
                        m.bound,
                    )
                })
                .collect();
            assert_eq!(metric_rows(&json, key), want, "{key}");
        }
    }
}
