//! Property tests for the core substrates: KvBuf ordering invariants,
//! spill-run roundtrips over arbitrary byte records, and budget safety.

use onepass_core::bytes_kv::{KvBuf, SegmentBuf};
use onepass_core::io::{read_all, SharedMemStore, SpillStore};
use onepass_core::memory::MemoryBudget;
use proptest::prelude::*;

type Rec = (u8, Vec<u8>, Vec<u8>); // (partition, key, value)

fn recs() -> impl Strategy<Value = Vec<Rec>> {
    prop::collection::vec(
        (
            0u8..8,
            prop::collection::vec(any::<u8>(), 0..20),
            prop::collection::vec(any::<u8>(), 0..30),
        ),
        0..200,
    )
}

/// The bytes keys of the key-sort property are made of: both ends of the
/// byte range and both sides of the sign bit.
const ALPHABET: [u8; 5] = [0x00, 0x01, 0x7f, 0x80, 0xff];

/// A key of 0–12 bytes over [`ALPHABET`]: a prefix of one of three fixed
/// stems with at most one byte changed, so keys are often prefixes of one
/// another or share their first eight bytes and differ after them.
fn sort_key() -> impl Strategy<Value = Vec<u8>> {
    (0usize..3, 0usize..=12, 0usize..12, 0usize..6).prop_map(|(stem, len, at, byte)| {
        let mut key: Vec<u8> = (0..len)
            .map(|i| ALPHABET[(stem * 7 + i * (stem + 1)) % ALPHABET.len()])
            .collect();
        if at < len && byte < ALPHABET.len() {
            key[at] = ALPHABET[byte];
        }
        key
    })
}

fn fill(records: &[Rec]) -> KvBuf {
    let mut buf = KvBuf::new();
    for (p, k, v) in records {
        buf.push(*p as u32, k, v);
    }
    buf
}

proptest! {
    #[test]
    fn sort_by_partition_key_is_ordered_and_content_preserving(records in recs()) {
        let mut buf = fill(&records);
        let fp = buf.unordered_fingerprint();
        buf.sort_by_partition_key();
        prop_assert_eq!(buf.unordered_fingerprint(), fp);
        for i in 1..buf.len() {
            let a = (buf.partition(i - 1), buf.key(i - 1));
            let b = (buf.partition(i), buf.key(i));
            prop_assert!(a <= b, "entries out of order at {i}");
        }
        // Ranges exactly tile the buffer and respect partitions.
        let ranges = buf.partition_ranges(8);
        let mut covered = 0;
        for (p, range) in ranges.iter().enumerate() {
            for i in range.clone() {
                prop_assert_eq!(buf.partition(i) as usize, p);
                covered += 1;
            }
        }
        prop_assert_eq!(covered, buf.len());
    }

    #[test]
    fn the_key_sort_orders_as_slices_do_and_keeps_ties_in_arrival_order(
        keys in prop::collection::vec((0u32..4, sort_key()), 0..300),
        cut in (0usize..300, 0usize..300),
    ) {
        // `KvBuf`, with partitions: values carry the arrival index.
        let mut buf = KvBuf::new();
        for (i, (p, k)) in keys.iter().enumerate() {
            buf.push(*p, k, &(i as u32).to_le_bytes());
        }
        buf.sort_by_partition_key();
        let got: Vec<(u32, &[u8], &[u8])> = buf.iter().collect();
        let mut arrivals: Vec<u32> = (0..keys.len() as u32).collect();
        // A stable sort: equal (partition, key) stay in arrival order.
        arrivals.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        let want: Vec<(u32, &[u8], [u8; 4])> = arrivals
            .iter()
            .map(|&i| (keys[i as usize].0, keys[i as usize].1.as_slice(), i.to_le_bytes()))
            .collect();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!((g.0, g.1, g.2), (w.0, w.1, &w.2[..]));
        }

        // `SegmentBuf`, whole and a sub-range: key order, then entry order.
        let values: Vec<[u8; 4]> = (0..keys.len() as u32).map(u32::to_le_bytes).collect();
        let seg = SegmentBuf::from_pairs(keys.iter().zip(&values).map(|((_, k), v)| (&k[..], &v[..])));
        let (lo, hi) = (cut.0.min(cut.1).min(keys.len()), cut.0.max(cut.1).min(keys.len()));
        for (range, sorted) in [(0..keys.len(), seg.sorted_by_key()), (lo..hi, seg.sorted_range_by_key(lo..hi))] {
            let mut want: Vec<(&[u8], &[u8])> = range.map(|i| seg.get(i)).collect();
            want.sort_by(|a, b| a.0.cmp(b.0));
            prop_assert_eq!(sorted.iter().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn group_by_partition_is_stable_and_content_preserving(records in recs()) {
        let mut buf = fill(&records);
        let fp = buf.unordered_fingerprint();
        buf.group_by_partition(8);
        prop_assert_eq!(buf.unordered_fingerprint(), fp);
        // Clustered by partition.
        for i in 1..buf.len() {
            prop_assert!(buf.partition(i - 1) <= buf.partition(i));
        }
        // Stable: within a partition, original relative order holds.
        let expected: Vec<(&Vec<u8>, &Vec<u8>)> = {
            let mut per: Vec<Vec<(&Vec<u8>, &Vec<u8>)>> = vec![Vec::new(); 8];
            for (p, k, v) in &records {
                per[*p as usize].push((k, v));
            }
            per.into_iter().flatten().collect()
        };
        for (i, (k, v)) in expected.iter().enumerate() {
            prop_assert_eq!(buf.key(i), k.as_slice());
            prop_assert_eq!(buf.value(i), v.as_slice());
        }
    }

    #[test]
    fn run_roundtrip_preserves_arbitrary_bytes(records in recs()) {
        let store = SharedMemStore::new();
        let mut w = store.begin_run().unwrap();
        for (_, k, v) in &records {
            w.write_record(k, v).unwrap();
        }
        let meta = w.finish().unwrap();
        prop_assert_eq!(meta.records, records.len() as u64);
        let mut r = store.open_run(meta.id).unwrap();
        let got = read_all(r.as_mut()).unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> =
            records.iter().map(|(_, k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, expect);
        // Byte accounting symmetric.
        let st = store.stats();
        prop_assert_eq!(st.bytes_written, st.bytes_read);
    }

    #[test]
    fn budget_grant_release_sequences_never_go_negative(
        ops in prop::collection::vec((any::<bool>(), 1usize..100), 0..100)
    ) {
        let budget = MemoryBudget::new(1000);
        let mut held: Vec<usize> = Vec::new();
        for (grant, amount) in ops {
            if grant {
                if budget.try_grant(amount) {
                    held.push(amount);
                }
                prop_assert!(budget.used() <= 1000);
            } else if let Some(a) = held.pop() {
                budget.release(a);
            }
        }
        let total: usize = held.iter().sum();
        prop_assert_eq!(budget.used(), total);
        prop_assert!(budget.high_water() <= 1000);
    }
}
