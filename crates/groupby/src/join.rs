//! Equi-join as a group-by aggregate — the two-input stage type.
//!
//! A hash equi-join *is* a group-by on the join key: tag each input
//! record with its side, group by key, and emit the cross product of
//! the two sides per group. Encoding the side in the value
//! ([`TAG_BUILD`] / [`TAG_PROBE`], see [`encode_tagged`]) lets the join
//! ride every existing [`GroupBy`](crate::GroupBy) backend unchanged —
//! in particular Shapiro's hybrid hash
//! ([`HybridHashGrouper`](crate::HybridHashGrouper)), the classic join
//! algorithm the backend was named for: the build side's resident
//! bucket stays in memory, overflow buckets spill and recurse, and the
//! probe side streams through.
//!
//! [`JoinAgg`] is holistic (state linear in group size, like
//! [`ListAgg`]) but still *mergeable*: partial states
//! concatenate, and [`JoinAgg::finish`] sorts both sides before taking
//! the cross product, so output bytes are independent of arrival and
//! merge order — the determinism contract the plan-equivalence suite
//! relies on.

use crate::aggregate::{frames, push_frame, Aggregator, ListAgg};
use crate::state::StateBuf;

/// Value tag for the build (dimension) side of a join.
pub const TAG_BUILD: u8 = 0;
/// Value tag for the probe (fact) side of a join.
pub const TAG_PROBE: u8 = 1;

/// Prefix `payload` with its side tag: `[u8 tag][payload]`.
pub fn encode_tagged(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(1 + payload.len());
    v.push(tag);
    v.extend_from_slice(payload);
    v
}

/// Split a tagged value back into `(tag, payload)`; `None` if empty.
pub fn decode_tagged(value: &[u8]) -> Option<(u8, &[u8])> {
    value.split_first().map(|(&t, rest)| (t, rest))
}

/// Inner equi-join per key group.
///
/// Input values are tagged ([`encode_tagged`]); state is a framed list
/// of tagged values (`[u32 len][tag+payload]`…, concatenation-mergeable);
/// the final output is the per-key cross product as framed
/// `(build, probe)` pairs — decode with [`JoinAgg::decode_joined`].
/// Keys with only one side present produce an empty output (inner-join
/// semantics).
#[derive(Debug, Default, Clone, Copy)]
pub struct JoinAgg;

impl JoinAgg {
    /// Decode a final output into `(build, probe)` payload pairs.
    pub fn decode_joined(out: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let entries: Vec<&[u8]> = frames(out).collect();
        entries
            .chunks_exact(2)
            .map(|p| (p[0].to_vec(), p[1].to_vec()))
            .collect()
    }
}

impl Aggregator for JoinAgg {
    // The state is a `ListAgg` list of tagged values.
    fn init(&self, key: &[u8], value: &[u8]) -> StateBuf {
        ListAgg.init(key, value)
    }

    fn update(&self, key: &[u8], state: &mut StateBuf, value: &[u8]) {
        ListAgg.update(key, state, value)
    }

    fn merge(&self, key: &[u8], state: &mut StateBuf, other: &[u8]) {
        ListAgg.merge(key, state, other)
    }

    fn finish(&self, _key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        let mut build = Vec::new();
        let mut probe = Vec::new();
        for entry in frames(state) {
            match decode_tagged(entry) {
                Some((TAG_BUILD, payload)) => build.push(payload),
                Some((TAG_PROBE, payload)) => probe.push(payload),
                _ => {}
            }
        }
        build.sort_unstable();
        probe.sort_unstable();
        for b in &build {
            for p in &probe {
                push_frame(out, b);
                push_frame(out, p);
            }
        }
    }

    fn combinable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::run_op;
    use crate::HybridHashGrouper;
    use onepass_core::io::SharedMemStore;
    use onepass_core::memory::MemoryBudget;
    use std::sync::Arc;

    fn tagged_records() -> Vec<(Vec<u8>, Vec<u8>)> {
        vec![
            (b"k1".to_vec(), encode_tagged(TAG_BUILD, b"dim-a")),
            (b"k1".to_vec(), encode_tagged(TAG_PROBE, b"f1")),
            (b"k1".to_vec(), encode_tagged(TAG_PROBE, b"f2")),
            (b"k2".to_vec(), encode_tagged(TAG_PROBE, b"orphan")),
            (b"k3".to_vec(), encode_tagged(TAG_BUILD, b"dim-b")),
        ]
    }

    #[test]
    fn cross_product_per_key_through_hybrid_hash() {
        let mut op = HybridHashGrouper::new(
            Arc::new(SharedMemStore::new()),
            MemoryBudget::new(1 << 20),
            4,
            Arc::new(JoinAgg),
        )
        .unwrap();
        let records = tagged_records();
        let (out, _, _) = run_op(
            &mut op,
            records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        );
        let k1 = JoinAgg::decode_joined(&out[b"k1".as_slice()]);
        assert_eq!(
            k1,
            vec![
                (b"dim-a".to_vec(), b"f1".to_vec()),
                (b"dim-a".to_vec(), b"f2".to_vec()),
            ]
        );
        // One-sided keys join to nothing.
        assert!(JoinAgg::decode_joined(&out[b"k2".as_slice()]).is_empty());
        assert!(JoinAgg::decode_joined(&out[b"k3".as_slice()]).is_empty());
    }

    #[test]
    fn finish_is_order_insensitive() {
        let agg = JoinAgg;
        let values = [
            encode_tagged(TAG_PROBE, b"p2"),
            encode_tagged(TAG_BUILD, b"b1"),
            encode_tagged(TAG_PROBE, b"p1"),
            encode_tagged(TAG_BUILD, b"b2"),
        ];
        let fold = |order: &[usize]| {
            let mut state = agg.init(b"k", &values[order[0]]);
            for &i in &order[1..] {
                agg.update(b"k", &mut state, &values[i]);
            }
            let mut out = Vec::new();
            agg.finish(b"k", &state, &mut out);
            out
        };
        let a = fold(&[0, 1, 2, 3]);
        let b = fold(&[3, 2, 1, 0]);
        assert_eq!(a, b);
        assert_eq!(JoinAgg::decode_joined(&a).len(), 4);
    }

    #[test]
    fn partial_states_merge_like_one_state() {
        let agg = JoinAgg;
        let mut a = agg.init(b"k", &encode_tagged(TAG_BUILD, b"b"));
        let s = agg.init(b"k", &encode_tagged(TAG_PROBE, b"p1"));
        let mut one = a.clone();
        agg.update(b"k", &mut one, &encode_tagged(TAG_PROBE, b"p1"));
        agg.merge(b"k", &mut a, &s);
        let (mut merged, mut folded) = (Vec::new(), Vec::new());
        agg.finish(b"k", &a, &mut merged);
        agg.finish(b"k", &one, &mut folded);
        assert_eq!(merged, folded);
    }
}
