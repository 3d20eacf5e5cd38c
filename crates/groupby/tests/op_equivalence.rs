//! Property tests: every group-by operator computes the same exact
//! grouping as a reference in-memory implementation, regardless of memory
//! budget (i.e. spilling/recursion/eviction never lose or duplicate data).

use std::collections::BTreeMap;
use std::sync::Arc;

use onepass_core::io::{SharedMemStore, SpillStore};
use onepass_core::memory::MemoryBudget;
use onepass_groupby::{
    Aggregator, CountAgg, EmitKind, FreqHashGrouper, GroupBy, HybridHashGrouper, IncHashGrouper,
    ListAgg, SortMergeGrouper, SumAgg, VecSink,
};
use proptest::prelude::*;

type Records = Vec<(Vec<u8>, Vec<u8>)>;

fn skewed_stream() -> impl Strategy<Value = Records> {
    prop::collection::vec(
        (0u32..64, 0u64..1000).prop_map(|(k, v)| {
            // Square-down so low key ids dominate (Zipf-ish skew).
            let key = format!("k{}", k * k / 24).into_bytes();
            (key, v.to_le_bytes().to_vec())
        }),
        0..400,
    )
}

fn finals(sink: &VecSink) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut out = BTreeMap::new();
    for (k, v, kind) in &sink.emitted {
        if *kind == EmitKind::Final {
            let dup = out.insert(k.clone(), v.clone());
            assert!(dup.is_none(), "duplicate final for {k:?}");
        }
    }
    out
}

fn run(mut op: Box<dyn GroupBy>, recs: &Records) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut sink = VecSink::default();
    let batch = onepass_core::SegmentBuf::from_pairs(recs.iter().map(|(k, v)| (&k[..], &v[..])));
    op.push_batch(&batch, &mut sink).unwrap();
    op.finish(&mut sink).unwrap();
    finals(&sink)
}

fn reference(agg: &dyn Aggregator, recs: &Records) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut states: BTreeMap<Vec<u8>, onepass_groupby::StateBuf> = BTreeMap::new();
    for (k, v) in recs {
        match states.get_mut(k) {
            Some(s) => agg.update(k, s, v),
            None => {
                states.insert(k.clone(), agg.init(k, v));
            }
        }
    }
    states
        .into_iter()
        .map(|(k, s)| {
            let mut out = Vec::new();
            agg.finish(&k, &s, &mut out);
            (k, out)
        })
        .collect()
}

fn all_ops(budget_bytes: usize) -> Vec<(&'static str, Box<dyn GroupBy>)> {
    let mk_budget = || MemoryBudget::new(budget_bytes);
    vec![
        (
            "sort-merge",
            Box::new(
                SortMergeGrouper::new(
                    Arc::new(SharedMemStore::new()),
                    mk_budget(),
                    4,
                    Arc::new(SumAgg),
                )
                .unwrap(),
            ) as Box<dyn GroupBy>,
        ),
        (
            "hybrid-hash",
            Box::new(
                HybridHashGrouper::new(
                    Arc::new(SharedMemStore::new()),
                    mk_budget(),
                    4,
                    Arc::new(SumAgg),
                )
                .unwrap(),
            ),
        ),
        (
            "inc-hash",
            Box::new(IncHashGrouper::new(
                Arc::new(SharedMemStore::new()),
                mk_budget(),
                Arc::new(SumAgg),
            )),
        ),
        (
            "freq-hash",
            Box::new(FreqHashGrouper::new(
                Arc::new(SharedMemStore::new()),
                mk_budget(),
                Arc::new(SumAgg),
            )),
        ),
    ]
}

/// How a batch sequence reaches the operator.
#[derive(Debug, Clone, Copy)]
enum Intake {
    /// Every batch key-sorted and pushed through `push_sorted`.
    Sorted,
    /// Every batch in arrival order through `push_batch`.
    Unsorted,
    /// Alternating, starting with `push_sorted`.
    Mixed,
}

/// Feed `recs` to `op` in `batch_len`-record batches as `intake` says.
fn run_batched(
    mut op: Box<dyn GroupBy>,
    recs: &Records,
    batch_len: usize,
    intake: Intake,
) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut sink = VecSink::default();
    for (i, chunk) in recs.chunks(batch_len).enumerate() {
        let batch =
            onepass_core::SegmentBuf::from_pairs(chunk.iter().map(|(k, v)| (&k[..], &v[..])));
        let sorted = match intake {
            Intake::Sorted => true,
            Intake::Unsorted => false,
            Intake::Mixed => i % 2 == 0,
        };
        if sorted {
            op.push_sorted(&batch.sorted_by_key(), &mut sink).unwrap();
        } else {
            op.push_batch(&batch, &mut sink).unwrap();
        }
    }
    op.finish(&mut sink).unwrap();
    finals(&sink)
}

fn early(sink: &VecSink) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut out = BTreeMap::new();
    for (k, v, kind) in &sink.emitted {
        if *kind == EmitKind::Early {
            let dup = out.insert(k.clone(), v.clone());
            assert!(dup.is_none(), "one snapshot emitted {k:?} twice");
        }
    }
    out
}

/// `snapshot` on the sort-merge operator: Early output is the aggregate of
/// the prefix pushed so far, costs a re-read once a run is on disk, and
/// leaves the final answer alone.
#[test]
fn sortmerge_snapshot_is_prefix_aggregate_and_nondestructive() {
    let recs: Records = (0u64..600)
        .map(|i| {
            (
                format!("k{:02}", (i * 7) % 45).into_bytes(),
                i.to_le_bytes().to_vec(),
            )
        })
        .collect();
    let batches: Vec<onepass_core::SegmentBuf> = recs
        .chunks(100)
        .map(|c| onepass_core::SegmentBuf::from_pairs(c.iter().map(|(k, v)| (&k[..], &v[..]))))
        .collect();
    let expect = reference(&SumAgg, &recs);

    for budget in [1 << 20, 2500] {
        let store = SharedMemStore::new();
        let mut op = SortMergeGrouper::new(
            Arc::new(store.clone()),
            MemoryBudget::new(budget),
            3,
            Arc::new(SumAgg),
        )
        .unwrap();
        let mut sink = VecSink::default();
        for (i, batch) in batches.iter().enumerate() {
            op.push_batch(batch, &mut sink).unwrap();
            assert!(sink.emitted.is_empty(), "sort-merge is blocking");
            let read_before = store.stats().bytes_read;
            let spilled = store.stats().runs_created > 0;
            let mut snap = VecSink::default();
            op.snapshot(&mut snap).unwrap();
            assert_eq!(snap.final_count(), 0);
            let prefix: Records = recs[..(i + 1) * 100].to_vec();
            assert_eq!(early(&snap), reference(&SumAgg, &prefix), "snapshot {i}");
            let reread = store.stats().bytes_read - read_before;
            assert_eq!(
                reread > 0,
                spilled,
                "snapshot {i}: re-read iff a run exists"
            );
        }
        let stats = op.finish(&mut sink).unwrap();
        assert_eq!(finals(&sink), expect, "budget {budget}");
        assert_eq!(stats.spills > 0, budget == 2500);
        assert_eq!(stats.early_emits, 45 * batches.len() as u64);
    }

    // Hash operators publish early answers on their own: no-op default.
    for (name, mut op) in all_ops(1 << 20).into_iter().skip(1) {
        let mut sink = VecSink::default();
        op.push_batch(&batches[0], &mut sink).unwrap();
        op.snapshot(&mut sink).unwrap();
        assert!(sink.emitted.is_empty(), "{name} snapshot must be a no-op");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sorted_unsorted_and_mixed_intake_match_reference(
        recs in skewed_stream(),
        batch_len in 1usize..90,
        budget_kb in 1usize..24,
        fit in 0u8..2,
    ) {
        // A key-sorted batch is a hint, never a different answer: every
        // operator (sort-merge buffers it as-is, the hash operators take
        // the `push_batch` default) must agree with the reference whether
        // its input arrives sorted, unsorted or interleaved, fitting in
        // memory or spilling.
        let expect = reference(&SumAgg, &recs);
        let budget = if fit == 1 { 1 << 20 } else { budget_kb * 256 };
        for intake in [Intake::Sorted, Intake::Unsorted, Intake::Mixed] {
            for (name, op) in all_ops(budget) {
                let got = run_batched(op, &recs, batch_len, intake);
                prop_assert_eq!(&got, &expect, "{} diverged under {:?}", name, intake);
            }
        }
    }

    #[test]
    fn inc_hash_without_a_policy_never_answers_early(
        recs in skewed_stream(),
        batch_len in 1usize..90,
        budget_kb in 1usize..24,
    ) {
        // Table III's capability row and the serving tier's tenant ≡ solo
        // event streams both read "no policy, no Early": the gate-off mode
        // publishes no hot-key answers, during input or at `finish`,
        // however much it spills.
        let mut op = IncHashGrouper::new(
            Arc::new(SharedMemStore::new()),
            MemoryBudget::new(budget_kb * 256),
            Arc::new(SumAgg),
        );
        let mut sink = VecSink::default();
        for chunk in recs.chunks(batch_len) {
            let batch =
                onepass_core::SegmentBuf::from_pairs(chunk.iter().map(|(k, v)| (&k[..], &v[..])));
            op.push_batch(&batch, &mut sink).unwrap();
            prop_assert!(sink.emitted.is_empty(), "output before finish");
        }
        let stats = op.finish(&mut sink).unwrap();
        prop_assert_eq!((sink.early_count(), stats.early_emits), (0, 0));
        prop_assert_eq!(finals(&sink), reference(&SumAgg, &recs));
    }

    #[test]
    fn all_operators_match_reference_sum(recs in skewed_stream(), budget_kb in 1usize..24) {
        let expect = reference(&SumAgg, &recs);
        for (name, op) in all_ops(budget_kb * 256) {
            let got = run(op, &recs);
            prop_assert_eq!(&got, &expect, "{} diverged from reference", name);
        }
    }

    #[test]
    fn count_agg_multiset_preserved(recs in skewed_stream(), budget_kb in 1usize..16) {
        // With CountAgg the sum over all groups must equal the record count
        // for every operator — no record lost or double-counted.
        let n = recs.len() as u64;
        for (name, op) in [("sort-merge", Box::new(SortMergeGrouper::new(
                Arc::new(SharedMemStore::new()),
                MemoryBudget::new(budget_kb * 256), 3, Arc::new(CountAgg)).unwrap()) as Box<dyn GroupBy>),
            ("hybrid-hash", Box::new(HybridHashGrouper::new(
                Arc::new(SharedMemStore::new()),
                MemoryBudget::new(budget_kb * 256), 5, Arc::new(CountAgg)).unwrap())),
            ("inc-hash", Box::new(IncHashGrouper::new(
                Arc::new(SharedMemStore::new()),
                MemoryBudget::new(budget_kb * 256), Arc::new(CountAgg)))),
            ("freq-hash", Box::new(FreqHashGrouper::new(
                Arc::new(SharedMemStore::new()),
                MemoryBudget::new(budget_kb * 256), Arc::new(CountAgg))))] {
            let got = run(op, &recs);
            let total: u64 = got
                .values()
                .map(|v| u64::from_le_bytes(v.as_slice().try_into().unwrap()))
                .sum();
            prop_assert_eq!(total, n, "{} lost or duplicated records", name);
        }
    }

    #[test]
    fn list_agg_preserves_value_multiset(recs in skewed_stream(), budget_kb in 2usize..16) {
        // ListAgg groups must contain exactly the values pushed, as a
        // multiset per key (element order across spills is unspecified).
        let mut expect: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
        for (k, v) in &recs {
            expect.entry(k.clone()).or_default().push(v.clone());
        }
        for e in expect.values_mut() {
            e.sort();
        }
        for (name, op) in [("sort-merge", Box::new(SortMergeGrouper::new(
                Arc::new(SharedMemStore::new()),
                MemoryBudget::new(budget_kb * 512), 3, Arc::new(ListAgg)).unwrap()) as Box<dyn GroupBy>),
            ("hybrid-hash", Box::new(HybridHashGrouper::new(
                Arc::new(SharedMemStore::new()),
                MemoryBudget::new(budget_kb * 512), 4, Arc::new(ListAgg)).unwrap())),
            ("inc-hash", Box::new(IncHashGrouper::new(
                Arc::new(SharedMemStore::new()),
                MemoryBudget::new(budget_kb * 512), Arc::new(ListAgg)))),
            ("freq-hash", Box::new(FreqHashGrouper::new(
                Arc::new(SharedMemStore::new()),
                MemoryBudget::new(budget_kb * 512), Arc::new(ListAgg))))] {
            let got = run(op, &recs);
            let got_decoded: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = got
                .into_iter()
                .map(|(k, v)| {
                    let mut items = ListAgg::decode(&v);
                    items.sort();
                    (k, items)
                })
                .collect();
            prop_assert_eq!(&got_decoded, &expect, "{} corrupted a value list", name);
        }
    }
}
