//! Heap allocations per key on the per-key state path, counted.
//!
//! A global allocator that counts the allocations (and reallocations) of
//! the thread that asked it to: fold 50,000 distinct keys with 8-byte
//! `SumAgg` values through the map-side combiner's table, then push and
//! finish them through the frequent-key group-by. A state that small lives
//! in its table slot, so what is left is the tables' own doubling — a few
//! dozen allocations for the whole run, against one per key (or more) when
//! every state was a `Vec<u8>`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use onepass_core::io::SharedMemStore;
use onepass_core::memory::MemoryBudget;
use onepass_core::{KvBuf, SegmentBuf};
use onepass_groupby::sink::CountingSink;
use onepass_groupby::{FreqHashGrouper, GroupBy, SumAgg};
use onepass_runtime::job::HashPartitioner;
use onepass_runtime::WorkerCombiner;

const KEYS: usize = 50_000;

/// Fewer than one allocation per this many keys.
const KEYS_PER_ALLOCATION: usize = 100;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting on the threads that switched it on.
struct Counting;

fn note() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counting touches only const-initialised thread locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
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
    let partitioner = HashPartitioner::default();
    let n = allocations_during(|| combiner.fold_task(0, 0, &buf, &partitioner, &SumAgg));
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
