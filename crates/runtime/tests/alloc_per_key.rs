//! Heap allocations per key on the per-key state path, counted.
//!
//! A global allocator that counts the allocations (and reallocations) of
//! the thread that asked it to: fold 50,000 distinct keys with 8-byte
//! `SumAgg` values through the map-side combiner's table, then push and
//! finish them through the frequent-key group-by. A state that small lives
//! in its table slot, so what is left is the tables' own doubling — a few
//! dozen allocations for the whole run, against one per key (or more) when
//! every state was a `Vec<u8>`. Then finish a sort-merge group-by that
//! has spilled them: its final merge folds each key's states straight
//! from the run batches, where a group used to be a key `Vec`, a values
//! `Vec` and a `Vec` per value. Last, the size of what is asked for: a
//! spill-run header claiming 8 GiB is refused before anything is sized
//! by it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use onepass_core::error::Error;
use onepass_core::io::{FileSpillStore, RunReader, SharedMemStore, SpillStore};
use onepass_core::memory::MemoryBudget;
use onepass_core::{KvBuf, SegmentBuf};
use onepass_groupby::sink::CountingSink;
use onepass_groupby::{FreqHashGrouper, GroupBy, SortMergeGrouper, SumAgg};
use onepass_runtime::WorkerCombiner;

const KEYS: usize = 50_000;

/// Fewer than one allocation per this many keys.
const KEYS_PER_ALLOCATION: usize = 100;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting on the threads that switched it on.
struct Counting;

fn note(size: usize) {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counting touches only const-initialised thread locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread made while `f` ran.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCATIONS.get() - before
}

/// The largest single allocation this thread asked for while `f` ran.
fn largest_allocation_during(f: impl FnOnce()) -> usize {
    LARGEST.set(0);
    allocations_during(f);
    LARGEST.get()
}

fn key(i: usize) -> [u8; 8] {
    (i as u64 * 0x9e37_79b9).to_le_bytes()
}

fn assert_few(what: &str, allocations: u64) {
    assert!(
        (allocations as usize) * KEYS_PER_ALLOCATION < KEYS,
        "{what}: {allocations} allocations for {KEYS} keys"
    );
}

#[test]
fn the_combiner_folds_new_keys_without_allocating_per_key() {
    let mut buf = KvBuf::new();
    for i in 0..KEYS {
        buf.push(0, &key(i), &1u64.to_le_bytes());
    }
    let mut combiner = WorkerCombiner::new(4, MemoryBudget::unlimited());
    let n = allocations_during(|| combiner.fold_task(0, 0, &buf, &SumAgg));
    assert_few("fold_task", n);
}

#[test]
fn the_frequent_key_table_holds_and_finishes_keys_without_allocating_per_key() {
    let keys: Vec<[u8; 8]> = (0..KEYS).map(key).collect();
    let one = 1u64.to_le_bytes();
    let batch = SegmentBuf::from_pairs(keys.iter().map(|k| (&k[..], &one[..])));
    let mut op = FreqHashGrouper::new(
        Arc::new(SharedMemStore::new()),
        MemoryBudget::unlimited(),
        Arc::new(SumAgg),
    );
    let mut sink = CountingSink::default();
    let n = allocations_during(|| {
        op.push_batch(&batch, &mut sink).unwrap();
        op.finish(&mut sink).unwrap();
    });
    assert_eq!(sink.final_ as usize, KEYS);
    assert_few("push_batch + finish", n);
}

#[test]
fn a_spilled_sort_merge_finishes_keys_without_allocating_per_key() {
    let one = 1u64.to_le_bytes();
    let mut op = SortMergeGrouper::new(
        Arc::new(SharedMemStore::new()),
        MemoryBudget::new(256 << 10),
        10,
        Arc::new(SumAgg),
    )
    .unwrap();
    let mut sink = CountingSink::default();
    // Not counted: batches of 1,000 keys, spilling as the budget fills.
    let keys: Vec<[u8; 8]> = (0..KEYS).map(key).collect();
    for chunk in keys.chunks(1000) {
        let batch = SegmentBuf::from_pairs(chunk.iter().map(|k| (&k[..], &one[..])));
        op.push_batch(&batch, &mut sink).unwrap();
    }
    let n = allocations_during(|| {
        let stats = op.finish(&mut sink).unwrap();
        assert!(stats.spills > 1, "the keys went through runs");
    });
    assert_eq!(sink.final_ as usize, KEYS);
    assert_few("sort-merge finish", n);
}

#[test]
fn a_run_header_claiming_8_gib_is_refused_before_anything_is_sized_by_it() {
    let dir = std::env::temp_dir().join(format!("onepass-alloc-per-key-{}", std::process::id()));
    let store = FileSpillStore::new(&dir).unwrap();
    let mut w = store.begin_run().unwrap();
    w.write_record(b"key", b"value").unwrap();
    let meta = w.finish().unwrap();
    // Rewrite the header: 4 GiB - 1 of key and as much again of value.
    let path = dir.join(format!("run-{}.bin", meta.id.0));
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[..8].copy_from_slice(&[0xff; 8]);
    std::fs::write(&path, &bytes).unwrap();
    let corrupt = |r: &mut dyn RunReader, batch: Option<usize>| {
        let err = match batch {
            None => r.next_record().map(|_| ()),
            Some(max_bytes) => r.read_batch(max_bytes).map(|_| ()),
        };
        assert!(matches!(err, Err(Error::Corrupt(_))), "{err:?}");
    };
    for batch in [None, Some(0), Some(1 << 20), Some(usize::MAX)] {
        let mut r = store.open_run(meta.id).unwrap();
        let largest = largest_allocation_during(|| corrupt(r.as_mut(), batch));
        assert!(largest < 1 << 17, "{batch:?}: a {largest}-byte allocation");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
