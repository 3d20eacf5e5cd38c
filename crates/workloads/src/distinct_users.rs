//! Distinct users per URL — `COUNT(DISTINCT user) GROUP BY url` with an
//! approximate (HyperLogLog) per-key state.
//!
//! This is the workload family the paper's §IV proposal (ii) covers:
//! "extends the hash framework with incremental computation, where the
//! computation can be either exact or approximate". The exact state is a
//! user set (linear in distinct users per url); the approximate state is
//! a fixed-size, mergeable HLL — making the aggregate combinable and
//! keeping incremental-hash states small.

use std::sync::Arc;

use onepass_groupby::DistinctAgg;
use onepass_runtime::{JobSpec, JobSpecBuilder, MapEmitter, MapFn};

use crate::clickgen::Click;

/// Map function: emit `(url, user)` from text click logs.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistinctUsersMap;

impl MapFn for DistinctUsersMap {
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        if let Some(c) = Click::from_text(record) {
            out.emit(&c.url.to_le_bytes(), &c.user.to_le_bytes());
        }
    }
}

/// Job builder preset: approximate distinct-users-per-url. `precision`
/// sets the HLL size/accuracy trade-off (state = `1 + 2^p` bytes;
/// p = 12 ⇒ ~1.6% standard error).
pub fn job(precision: u8) -> JobSpecBuilder {
    JobSpec::builder("distinct-users-per-url")
        .map_fn(Arc::new(DistinctUsersMap))
        .aggregate(Arc::new(DistinctAgg { precision }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_groupby::EmitKind;
    use onepass_runtime::Engine;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn estimates_track_exact_distinct_counts() {
        let mut gen = crate::clickgen::ClickGen::new(crate::clickgen::ClickGenConfig {
            users: 3_000,
            urls: 40,
            url_skew: 0.8,
            ..Default::default()
        });
        let records = gen.text_records(60_000);
        // Exact distinct users per url.
        let mut truth: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for r in &records {
            let c = Click::from_text(r).unwrap();
            truth.entry(c.url).or_default().insert(c.user);
        }

        let job = job(12).reducers(3).preset_onepass().build().unwrap();
        let report = Engine::new()
            .run(&job, crate::make_splits(records, 4000))
            .unwrap();

        let mut checked = 0;
        for o in report.outputs.iter().filter(|o| o.kind == EmitKind::Final) {
            let url = u32::from_le_bytes(o.key.as_slice().try_into().unwrap());
            let est = DistinctAgg::decode_estimate(&o.value);
            let exact = truth[&url].len() as f64;
            let err = (est as f64 - exact).abs() / exact.max(1.0);
            assert!(
                err < 0.12,
                "url {url}: estimate {est} vs exact {exact} (err {err:.3})"
            );
            checked += 1;
        }
        assert_eq!(checked, truth.len(), "every url must be answered");
        // The whole point: combined HLL states shuffle instead of raw
        // user ids, so the intermediate volume shrinks relative to a
        // na\u{ef}ve (url,user) shuffle whenever states are smaller than the
        // per-split (url,user) pair volume.
        assert!(report.shuffled_records < report.map_output_records);
    }
}
