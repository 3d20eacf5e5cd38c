//! Page-frequency counting: `SELECT COUNT(*) FROM visits GROUP BY url`
//! — the paper's running example (§II) and Table I column 2.
//!
//! Map emits `(url, 1)`; the SUM combiner collapses intermediate data by
//! nearly three orders of magnitude (508 GB → 1.8 GB in Table I), making
//! this the best case for map-side combining.

use std::sync::Arc;

use onepass_groupby::SumAgg;
use onepass_runtime::{JobSpec, JobSpecBuilder, MapEmitter, MapFn};

use crate::clickgen::Click;

/// Map function over text click logs: emit `(url, 1)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageFreqMapText;

impl MapFn for PageFreqMapText {
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        if let Some(c) = Click::from_text(record) {
            out.emit(&c.url.to_le_bytes(), &1u64.to_le_bytes());
        }
    }
}

/// Job builder preset: page-frequency over text click logs (a sum, so the
/// map side combines).
pub fn job() -> JobSpecBuilder {
    JobSpec::builder("page-frequency")
        .map_fn(Arc::new(PageFreqMapText))
        .aggregate(Arc::new(SumAgg))
}

/// Decode a final count value.
pub fn decode_count(v: &[u8]) -> u64 {
    u64::from_le_bytes(v.try_into().expect("8-byte count"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_runtime::Engine;

    #[test]
    fn counts_urls_end_to_end() {
        let mut gen = crate::clickgen::ClickGen::new(crate::clickgen::ClickGenConfig {
            users: 20,
            urls: 10,
            ..Default::default()
        });
        let records = gen.text_records(500);
        // Ground truth.
        let mut truth = std::collections::HashMap::new();
        for r in &records {
            let c = Click::from_text(r).unwrap();
            *truth.entry(c.url).or_insert(0u64) += 1;
        }
        let splits = crate::make_splits(records, 50);
        let job = job().reducers(3).preset_hadoop().build().unwrap();
        let report = Engine::new().run(&job, splits).unwrap();
        let mut got = std::collections::HashMap::new();
        for o in &report.outputs {
            let url = u32::from_le_bytes(o.key.as_slice().try_into().unwrap());
            got.insert(url, decode_count(&o.value));
        }
        assert_eq!(got.len(), truth.len());
        for (url, n) in truth {
            assert_eq!(got[&url], n, "url {url}");
        }
        // The combiner must have collapsed the shuffle volume.
        assert!(report.shuffled_records < report.map_output_records);
    }
}
