//! Top-k page tracking — one of the "more complex tasks" the paper lists
//! as ongoing benchmark work ("we are extending our benchmark to ...
//! complex queries such as top-k", §III-A), and the §IV-3 open question
//! ("how to support the combine function for complex analytical tasks
//! such as top-k ... is an open question").
//!
//! [`plan`] answers it exactly with a two-stage query plan: stage 1
//! counts clicks per URL (the §II running example); stage 2 routes every
//! `(url, total)` pair to a single key and keeps the k largest with the
//! mergeable [`TopKAgg`]. Because each URL appears exactly once in stage
//! 2's input, truncating each partial state to k entries is lossless,
//! which makes [`TopKAgg`] a legal combine function — the §IV-3 question
//! answered for the exact case. Under
//! [`PlanMode::Pipelined`](onepass_runtime::PlanMode) stage 2 consumes
//! stage 1's finals while stage 1's reducers are still draining.

use std::sync::Arc;

use onepass_core::error::Result;
use onepass_groupby::{Aggregator, StateBuf, SumAgg};
use onepass_runtime::{JobSpec, MapEmitter, PairMap, Plan};

use crate::page_frequency::PageFreqMapText;

/// The single routing key stage 2 of the [`plan`] sends every
/// `(url, count)` pair to.
pub const TOP_KEY: &[u8] = b"top";

/// Exact top-k as a mergeable aggregate over per-URL totals.
///
/// Input values are `[u64 count LE][url bytes]` (as routed by the plan's
/// pair stage); states and final output are framed entry lists:
/// `[u64 count LE][u32 len LE][url bytes]` per entry, sorted by count
/// descending (ties by url ascending). Every state is truncated to k
/// entries, which is exact because each URL appears exactly once in the
/// stage's input: an entry dropped from a partial top-k can never belong
/// to the global top-k.
#[derive(Debug, Clone, Copy)]
pub struct TopKAgg {
    k: usize,
}

impl TopKAgg {
    /// Keep the `k` highest-count entries.
    pub fn new(k: usize) -> Self {
        TopKAgg { k: k.max(1) }
    }

    fn parse_value(value: &[u8]) -> (u64, Vec<u8>) {
        let count = u64::from_le_bytes(value[..8].try_into().expect("8-byte count prefix"));
        (count, value[8..].to_vec())
    }

    /// Decode a state or final output into `(count, url)` entries,
    /// descending by count.
    pub fn decode(buf: &[u8]) -> Vec<(u64, Vec<u8>)> {
        let mut entries = Vec::new();
        let mut i = 0;
        while i + 12 <= buf.len() {
            let count = u64::from_le_bytes(buf[i..i + 8].try_into().unwrap());
            let len = u32::from_le_bytes(buf[i + 8..i + 12].try_into().unwrap()) as usize;
            let end = (i + 12 + len).min(buf.len());
            entries.push((count, buf[i + 12..end].to_vec()));
            i = end;
        }
        entries
    }

    fn encode(entries: &[(u64, Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::with_capacity(entries.iter().map(|(_, u)| 12 + u.len()).sum());
        for (count, url) in entries {
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&(url.len() as u32).to_le_bytes());
            out.extend_from_slice(url);
        }
        out
    }

    fn prune(&self, entries: &mut Vec<(u64, Vec<u8>)>) {
        entries.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        entries.truncate(self.k);
    }
}

impl Aggregator for TopKAgg {
    fn init(&self, _key: &[u8], value: &[u8]) -> StateBuf {
        let (count, url) = Self::parse_value(value);
        Self::encode(&[(count, url)]).into()
    }

    fn update(&self, _key: &[u8], state: &mut StateBuf, value: &[u8]) {
        let mut entries = Self::decode(state);
        let (count, url) = Self::parse_value(value);
        entries.push((count, url));
        self.prune(&mut entries);
        *state = Self::encode(&entries).into();
    }

    fn merge(&self, _key: &[u8], state: &mut StateBuf, other: &[u8]) {
        let mut entries = Self::decode(state);
        entries.extend(Self::decode(other));
        self.prune(&mut entries);
        *state = Self::encode(&entries).into();
    }

    fn finish(&self, _key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        let mut entries = Self::decode(state);
        self.prune(&mut entries);
        out.extend_from_slice(&Self::encode(&entries));
    }

    fn combinable(&self) -> bool {
        true
    }
}

/// The exact two-stage top-k query plan over text click logs.
///
/// Stage 1 (`url-counts`): `(url, 1)` per click, summed per URL — the
/// paper's §II running example. Stage 2 (`top-k`): every `(url, total)`
/// pair routes to [`TOP_KEY`]; one reducer keeps the k largest via
/// [`TopKAgg`]. Both stages use the one-pass preset (hash map side, push
/// shuffle), so a pipelined run overlaps stage 2 with stage 1's reduce
/// drain.
pub fn plan(k: usize, count_reducers: usize) -> Result<Plan> {
    let count = JobSpec::builder("url-counts")
        .map_fn(Arc::new(PageFreqMapText))
        .aggregate(Arc::new(SumAgg))
        .reducers(count_reducers)
        .preset_onepass()
        .build()?;
    let select = JobSpec::builder("top-k")
        .aggregate(Arc::new(TopKAgg::new(k)))
        .reducers(1)
        .preset_onepass()
        .build()?;
    let route: Arc<dyn PairMap> = Arc::new(|url: &[u8], total: &[u8], out: &mut dyn MapEmitter| {
        let mut value = Vec::with_capacity(total.len() + url.len());
        value.extend_from_slice(total);
        value.extend_from_slice(url);
        out.emit(TOP_KEY, &value);
    });
    let mut b = Plan::builder();
    let s1 = b.add_stage(count);
    let s2 = b.add_pair_stage(select, route);
    b.connect(s1, s2);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clickgen::Click;
    use onepass_runtime::{Engine, PlanConfig, PlanMode};
    use std::collections::HashMap;

    /// Decode the [`plan`]'s single final output into `(url, count)`
    /// pairs, descending by count.
    fn decode_top_urls(out: &[u8]) -> Vec<(u32, u64)> {
        TopKAgg::decode(out)
            .into_iter()
            .map(|(count, url)| {
                let url = u32::from_le_bytes(url.as_slice().try_into().expect("4-byte url"));
                (url, count)
            })
            .collect()
    }

    #[test]
    fn top_k_agg_is_exact_under_truncated_merges() {
        let agg = TopKAgg::new(3);
        // Partition 100 distinct urls across two states.
        let value = |count: u64, url: u32| {
            let mut v = count.to_le_bytes().to_vec();
            v.extend_from_slice(&url.to_le_bytes());
            v
        };
        let mut a = agg.init(TOP_KEY, &value(50, 0));
        for u in 1..50u32 {
            agg.update(TOP_KEY, &mut a, &value(u as u64, u));
        }
        let mut b = agg.init(TOP_KEY, &value(49, 100));
        for u in 101..150u32 {
            agg.update(TOP_KEY, &mut b, &value(u as u64 - 100, u));
        }
        agg.merge(TOP_KEY, &mut a, &b);
        let mut out = Vec::new();
        agg.finish(TOP_KEY, &a, &mut out);
        let top = TopKAgg::decode(&out);
        let counts: Vec<u64> = top.iter().map(|&(c, _)| c).collect();
        assert_eq!(counts, vec![50, 49, 49]);
    }

    #[test]
    fn two_stage_plan_finds_exact_top_k() {
        let mut gen = crate::clickgen::ClickGen::new(crate::clickgen::ClickGenConfig {
            users: 50,
            urls: 200,
            ..Default::default()
        });
        let records = gen.text_records(4000);
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for r in &records {
            *truth.entry(Click::from_text(r).unwrap().url).or_default() += 1;
        }
        let mut truth_sorted: Vec<(u64, u32)> = truth.iter().map(|(&u, &c)| (c, u)).collect();
        truth_sorted.sort_unstable_by(|a, b| b.cmp(a));
        let expected_counts: Vec<u64> = truth_sorted.iter().take(5).map(|&(c, _)| c).collect();

        let splits = crate::make_splits(records, 256);
        let plan = plan(5, 3).unwrap();
        let engine = Engine::new();
        for mode in [PlanMode::Pipelined, PlanMode::Barrier] {
            let report = engine
                .run_plan(
                    &plan,
                    splits.clone(),
                    &PlanConfig {
                        mode,
                        records_per_split: 64,
                    },
                )
                .unwrap();
            let outs = report.sorted_final_outputs();
            assert_eq!(outs.len(), 1, "{mode:?}: one top-k answer");
            assert_eq!(outs[0].0, TOP_KEY);
            let top = decode_top_urls(&outs[0].1);
            assert_eq!(top.len(), 5, "{mode:?}");
            // Counts must be the true top-5 counts, and every returned
            // url's count must be its true total (ties at the boundary
            // make the url *set* ambiguous, never the counts).
            let counts: Vec<u64> = top.iter().map(|&(_, c)| c).collect();
            assert_eq!(counts, expected_counts, "{mode:?}");
            for &(url, count) in &top {
                assert_eq!(truth[&url], count, "{mode:?}: url {url}");
            }
        }
    }
}
