//! `FreqHashGrouper::shed` correctness: shedding mid-stream at arbitrary
//! points must free budget bytes AND leave final output byte-identical to
//! an unshed run — with the hot-key gate on and off. The nasty cases are
//! re-admission after a shed (a shed key's records keep arriving), which
//! must not produce duplicate Final emissions.

use std::collections::BTreeMap;
use std::sync::Arc;

use onepass_core::io::SharedMemStore;
use onepass_core::memory::MemoryBudget;
use onepass_groupby::{CountAgg, EmitKind, FreqHashGrouper, GroupBy, IncHashGrouper, VecSink};

fn records(n: u32, distinct: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|i| {
            (
                format!("key{:05}", i.wrapping_mul(2_654_435_761) % distinct).into_bytes(),
                format!("v{i}").into_bytes(),
            )
        })
        .collect()
}

fn truth(recs: &[(Vec<u8>, Vec<u8>)]) -> BTreeMap<Vec<u8>, u64> {
    let mut t: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for (k, _) in recs {
        *t.entry(k.clone()).or_default() += 1;
    }
    t
}

/// Push `recs` in batches of `every` records, shedding `target` bytes at
/// each batch boundary, then finish. Asserts no duplicate finals and
/// exact counts; returns the finals as emitted.
fn run_with_sheds(
    op: &mut FreqHashGrouper,
    recs: &[(Vec<u8>, Vec<u8>)],
    every: usize,
    target: usize,
) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut sink = VecSink::default();
    let mut shed_calls = 0u32;
    let mut shed_freed = 0usize;
    for chunk in recs.chunks(every) {
        let batch =
            onepass_core::SegmentBuf::from_pairs(chunk.iter().map(|(k, v)| (&k[..], &v[..])));
        op.push_batch(&batch, &mut sink).unwrap();
        shed_freed += op.shed(target).unwrap();
        shed_calls += 1;
    }
    op.finish(&mut sink).unwrap();
    assert!(shed_calls > 0);
    assert!(
        shed_freed > 0,
        "{}: repeated sheds never freed anything",
        op.name()
    );

    let mut out: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for (k, v, kind) in &sink.emitted {
        if *kind == EmitKind::Final {
            let prev = out.insert(k.clone(), v.clone());
            assert!(
                prev.is_none(),
                "{}: duplicate Final for key {:?} after shed",
                op.name(),
                String::from_utf8_lossy(k)
            );
        }
    }
    let want = truth(recs);
    assert_eq!(out.len(), want.len(), "{}: group count mismatch", op.name());
    for (k, c) in want {
        assert_eq!(
            out[&k],
            c.to_le_bytes(),
            "{}: count mismatch for {:?}",
            op.name(),
            String::from_utf8_lossy(&k)
        );
    }
    out
}

#[test]
fn inc_hash_shed_is_correct() {
    // Ample budget: every shed key is re-admitted; it comes back
    // incomplete, so it is not emitted twice.
    let store = SharedMemStore::new();
    let budget = MemoryBudget::new(1 << 16);
    let mut g = IncHashGrouper::new(Arc::new(store), budget.clone(), Arc::new(CountAgg));
    run_with_sheds(&mut g, &records(3000, 250), 400, 1 << 12);
    assert_eq!(budget.used(), 0);
}

#[test]
fn inc_hash_shed_under_pressure_is_correct() {
    let store = SharedMemStore::new();
    let budget = MemoryBudget::new(1800);
    let mut g = IncHashGrouper::new(Arc::new(store), budget.clone(), Arc::new(CountAgg));
    run_with_sheds(&mut g, &records(2500, 300), 300, 600);
    assert_eq!(budget.used(), 0);
}

#[test]
fn freq_hash_shed_is_correct() {
    let store = SharedMemStore::new();
    let budget = MemoryBudget::new(1 << 14);
    let mut g = FreqHashGrouper::new(Arc::new(store), budget.clone(), Arc::new(CountAgg));
    run_with_sheds(&mut g, &records(4000, 500), 600, 1 << 12);
    assert_eq!(budget.used(), 0);
}

#[test]
fn both_incremental_spellings_agree_after_interleaved_sheds() {
    // Gate on or off, ample budget or tight, small sheds or ones that
    // empty the table: a shed is a reordering, so the finals are the same
    // bytes.
    let recs = records(4000, 500);
    for limit in [1800, 1 << 14, 1 << 20] {
        for (every, target) in [(150, 300), (600, 1 << 12), (1000, 1 << 20)] {
            let budget = MemoryBudget::new(limit);
            let mut freq = FreqHashGrouper::new(
                Arc::new(SharedMemStore::new()),
                budget.clone(),
                Arc::new(CountAgg),
            );
            let gate_on = run_with_sheds(&mut freq, &recs, every, target);
            let mut inc = IncHashGrouper::new(
                Arc::new(SharedMemStore::new()),
                budget.clone(),
                Arc::new(CountAgg),
            );
            let gate_off = run_with_sheds(&mut inc, &recs, every, target);
            assert_eq!(
                gate_on, gate_off,
                "limit {limit}, shed {target} per {every}"
            );
            assert_eq!(budget.used(), 0);
        }
    }
}

#[test]
fn shed_with_no_state_frees_nothing() {
    let store = SharedMemStore::new();
    let mut g = IncHashGrouper::new(
        Arc::new(store),
        MemoryBudget::new(1 << 16),
        Arc::new(CountAgg),
    );
    assert_eq!(g.shed(4096).unwrap(), 0);
}
