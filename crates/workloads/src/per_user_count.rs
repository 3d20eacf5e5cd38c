//! Per-user click counting — Table I column 3 and the second workload of
//! Table II's CPU-split measurement ("the map function simply emits pairs
//! in the form of (user id, 1), and up to 48% of CPU cycles were consumed
//! by sorting these pairs").

use std::sync::Arc;

use onepass_groupby::SumAgg;
use onepass_runtime::{JobSpec, JobSpecBuilder, MapEmitter, MapFn};

use crate::clickgen::Click;

/// Map function over text click logs: emit `(user, 1)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerUserMapText;

impl MapFn for PerUserMapText {
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        if let Some(c) = Click::from_text(record) {
            out.emit(&c.user.to_le_bytes(), &1u64.to_le_bytes());
        }
    }
}

/// Job builder preset: per-user counting over text logs (a sum, so the
/// map side combines).
pub fn job() -> JobSpecBuilder {
    JobSpec::builder("per-user-count")
        .map_fn(Arc::new(PerUserMapText))
        .aggregate(Arc::new(SumAgg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_runtime::{Engine, ReduceBackend};

    #[test]
    fn counts_users_with_hash_backend() {
        let mut gen = crate::clickgen::ClickGen::new(Default::default());
        let records = gen.text_records(400);
        let mut truth = std::collections::HashMap::new();
        for r in &records {
            let c = Click::from_text(r).unwrap();
            *truth.entry(c.user).or_insert(0u64) += 1;
        }
        let splits = crate::make_splits(records, 64);
        let job = job().reducers(2).preset_onepass().build().unwrap();
        assert!(matches!(job.backend, ReduceBackend::FreqHash));
        let report = Engine::new().run(&job, splits).unwrap();
        let mut total = 0u64;
        for o in report
            .outputs
            .iter()
            .filter(|o| o.kind == onepass_groupby::EmitKind::Final)
        {
            total += crate::page_frequency::decode_count(&o.value);
        }
        assert_eq!(total, 400);
        assert_eq!(
            report.groups_out as usize,
            truth.len(),
            "one final answer per user"
        );
    }
}
