//! Multi-round iterative plans, in the Goodrich et al. round-complexity
//! framing (arXiv:1101.1902): an algorithm is a sequence of MapReduce
//! rounds, each round a [`Plan`] whose state rides the
//! [`DatasetCache`] between rounds instead of being re-scanned and
//! re-shuffled.
//!
//! The body closure builds the round's plan (typically: round 0 parses
//! raw input and caches the initial state; later rounds read the state
//! through [`PlanBuilder::cached_input`](crate::plan::PlanBuilder) and
//! overwrite it via
//! [`PlanBuilder::cache_output`](crate::plan::PlanBuilder)). Because
//! cache capture partitions by the producing stage's own partitioner
//! and reducer count, a body that keeps those stable gets
//! partition-stable placement: every round's cached partitions line up
//! with the next round's reducers, and with
//! `cached_input_aligned` the inter-round shuffle disappears.
//!
//! A killed or replayed round is safe to re-run: cache capture happens
//! once, after the round's plan (with all its task retries) succeeds,
//! and `put` replaces the dataset atomically — re-running round *k*
//! against round *k−1*'s state is idempotent.

use onepass_core::error::Result;

use crate::cache::DatasetCache;
use crate::driver::Engine;
use crate::map_task::Split;
use crate::plan::Plan;
use crate::report::PlanReport;

/// What a convergence check sees after each round, while the round's
/// report is still alive.
pub struct RoundContext<'a> {
    /// Round index, starting at 0.
    pub round: usize,
    /// The cache, holding every dataset the round published.
    pub cache: &'a DatasetCache,
    /// The round's full plan report.
    pub report: &'a PlanReport,
}

/// A loop driver re-running a plan body against a [`DatasetCache`].
///
/// ```no_run
/// # use onepass_runtime::prelude::*;
/// # use onepass_core::error::Result;
/// # fn round_plan(round: usize) -> Result<(Plan, Vec<Split>)> { unimplemented!() }
/// let engine = Engine::new();
/// let cache = DatasetCache::new(CacheConfig::default());
/// let mut iter = IterativePlan::new(|round, _cache| round_plan(round));
/// let rounds = iter
///     .run_until(&engine, &cache, 10, |ctx| Ok(ctx.round >= 9))
///     .unwrap();
/// ```
pub struct IterativePlan<F> {
    body: F,
}

impl<F> IterativePlan<F>
where
    F: FnMut(usize, &DatasetCache) -> Result<(Plan, Vec<Split>)>,
{
    /// A loop whose `body` builds each round's plan and record input
    /// (usually empty after round 0 — later rounds are cache-fed).
    pub fn new(body: F) -> Self {
        IterativePlan { body }
    }

    /// Run rounds until `converged` returns true or `max_rounds` rounds
    /// have run, whichever is first. Returns the number of rounds run;
    /// the convergence check runs after each round, so at least one
    /// round always executes (with `max_rounds > 0`). A finished round
    /// keeps nothing: its report drops once the check has seen it, and
    /// the cache holds the latest datasets.
    pub fn run_until<C>(
        &mut self,
        engine: &Engine,
        cache: &DatasetCache,
        max_rounds: usize,
        mut converged: C,
    ) -> Result<usize>
    where
        C: FnMut(&RoundContext<'_>) -> Result<bool>,
    {
        for round in 0..max_rounds {
            let (plan, input) = (self.body)(round, cache)?;
            let report = engine.run_plan_with_cache(&plan, input, Some(cache))?;
            if converged(&RoundContext {
                round,
                cache,
                report: &report,
            })? {
                return Ok(round + 1);
            }
        }
        Ok(max_rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::job::{JobSpec, MapEmitter};
    use onepass_groupby::SumAgg;
    use std::sync::Arc;

    /// Iterated doubling: round 0 parses `n` from text and caches it;
    /// each later round doubles every cached value. After r rounds the
    /// value is n * 2^r — exercises cache_output + cached_input_aligned
    /// round-tripping and the convergence cutoff.
    #[test]
    fn doubling_loop_converges_via_cache() {
        fn parse_map(record: &[u8], out: &mut dyn MapEmitter) {
            let n: u64 = std::str::from_utf8(record).unwrap().parse().unwrap();
            out.emit(b"x", &n.to_le_bytes());
        }
        fn double(key: &[u8], value: &[u8], out: &mut dyn MapEmitter) {
            let n = u64::from_le_bytes(value.try_into().unwrap());
            out.emit(key, &(n * 2).to_le_bytes());
        }

        let job = |name: &str, first: bool| -> JobSpec {
            let b = JobSpec::builder(name)
                .aggregate(Arc::new(SumAgg))
                .reducers(2)
                .preset_onepass();
            let b = if first {
                b.map_fn(Arc::new(parse_map))
            } else {
                b.map_fn(crate::job::pair_map_fn(Arc::new(double)))
            };
            b.build().unwrap()
        };

        let engine = Engine::new();
        let cache = DatasetCache::new(CacheConfig::default());
        let mut iter = IterativePlan::new(|round, _c| {
            let mut b = Plan::builder();
            if round == 0 {
                let s = b.add_stage(job("parse", true));
                b.cache_output(s, "state");
                Ok((b.build()?, vec![Split::new(vec![b"5".to_vec()])]))
            } else {
                let s = b.add_stage(job("double", false));
                b.cached_input_aligned(s, "state");
                b.cache_output(s, "state");
                Ok((b.build()?, Vec::new()))
            }
        });
        let rounds = iter
            .run_until(&engine, &cache, 10, |ctx| {
                // The check sees the whole round: the cache-output stage's
                // published partitions are still in its report.
                let stage = &ctx.report.stages[0];
                assert_eq!(stage.report.partitions.len(), 2);
                assert!(stage.report.partitions.iter().any(|p| !p.is_empty()));
                let state = ctx.cache.get("state").unwrap().unwrap();
                let v: u64 = state
                    .iter()
                    .flat_map(|p| {
                        p.iter()
                            .map(|(_, v)| u64::from_le_bytes(v.try_into().unwrap()))
                    })
                    .sum();
                Ok(v >= 40) // 5 -> 10 -> 20 -> 40: stops after round 3
            })
            .unwrap();
        assert_eq!(rounds, 4);
        let state = cache.get("state").unwrap().unwrap();
        let total: u64 = state
            .iter()
            .flat_map(|p| {
                p.iter()
                    .map(|(_, v)| u64::from_le_bytes(v.try_into().unwrap()))
            })
            .sum();
        assert_eq!(total, 40);
        assert!(cache.stats().hits > 0);
    }
}
