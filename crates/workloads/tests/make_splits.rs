//! `make_splits` packs each split into one arena, allocating per split
//! and not per record, and never frees its input's record index as one
//! block; a split's clone shares every payload instead of copying it.
//!
//! A global allocator records the largest block the calling thread frees
//! while it cuts splits. glibc raises its dynamic mmap threshold (and
//! every arena's trim threshold with it) to the size of the largest
//! mmapped block a program frees, so a cut that freed a million records'
//! 24 MB index would leave every arena keeping up to 48 MB of freed
//! memory for the rest of the process. The cut frees the input's records
//! one by one and no arena at all, so the largest block it may free is
//! one split's share of the input's record index.
//!
//! The same allocator counts the blocks a cut and a clone allocate: a
//! few per split for the cut, and none for a clone of a raw or a pair
//! split.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use onepass_core::SegmentBuf;
use onepass_runtime::map_task::Split;
use onepass_workloads::make_splits;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LARGEST_FREE: Cell<usize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Note one allocation, if this thread switched counting on.
fn count_allocation() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

/// The system allocator, noting allocations and frees on the threads
/// that switched it on.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only const-initialised thread
// locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // `try_with`: a free during thread teardown must not panic.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = LARGEST_FREE.try_with(|m| m.set(m.get().max(layout.size())));
            }
        });
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `len` distinct records, record `i` spelling `i`.
fn records(len: usize) -> Vec<Vec<u8>> {
    (0..len).map(|i| i.to_string().into_bytes()).collect()
}

/// `f()`, and the blocks this thread allocated while it ran.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// Cut `len` records into `per_split`-record splits, returning the split
/// sizes and the largest block freed while cutting. Checks that the
/// records come out in input order, and that the cut allocated a few
/// blocks per split — never one per record.
fn cut(len: usize, per_split: usize) -> (Vec<usize>, usize) {
    let input = records(len);
    LARGEST_FREE.with(|m| m.set(0));
    let (splits, blocks) = allocations(|| make_splits(input, per_split));
    let largest = LARGEST_FREE.with(Cell::get);
    // An arena, its `Arc` and one shrink of the input's index per split,
    // and the list of splits.
    assert!(
        blocks <= 3 * splits.len() + 1,
        "{blocks} allocations cutting {} splits",
        splits.len()
    );
    let flat: Vec<&[u8]> = splits.iter().flat_map(|s| s.records.iter()).collect();
    assert_eq!(flat.len(), len);
    for (i, r) in flat.into_iter().enumerate() {
        assert_eq!(r, i.to_string().as_bytes(), "record {i} out of order");
    }
    (splits.iter().map(|s| s.records.len()).collect(), largest)
}

/// One split's record index: the bound on any block the cut may free.
fn index_bytes(per_split: usize) -> usize {
    per_split * size_of::<Vec<u8>>()
}

#[test]
fn an_exact_multiple_frees_no_block_larger_than_a_split() {
    let (sizes, largest) = cut(100_000, 20_000);
    assert_eq!(sizes, vec![20_000; 5]);
    assert!(
        largest <= index_bytes(20_000),
        "freed a {largest}-byte block cutting 20k-record splits"
    );
}

#[test]
fn the_remainder_split_comes_last() {
    let (sizes, largest) = cut(100_007, 20_000);
    assert_eq!(sizes, vec![20_000, 20_000, 20_000, 20_000, 20_000, 7]);
    assert!(
        largest <= index_bytes(20_000),
        "freed a {largest}-byte block"
    );
}

#[test]
fn a_split_as_large_as_the_input_takes_it_whole() {
    for per_split in [100_000, 250_000] {
        let (sizes, largest) = cut(100_000, per_split);
        assert_eq!(sizes, vec![100_000]);
        assert!(
            largest <= index_bytes(per_split),
            "freed a {largest}-byte block"
        );
    }
}

#[test]
fn empty_input_has_no_splits() {
    let (sizes, largest) = cut(0, 20_000);
    assert!(sizes.is_empty());
    assert_eq!(largest, 0);
}

#[test]
fn a_cloned_split_allocates_nothing_and_shares_its_records() {
    let input = records(20_000);
    let pairs = Split::from_segment(SegmentBuf::from_pairs(
        input.iter().map(|r| (r.as_slice(), r.as_slice())),
    ));
    let raw = Split::new(input);
    for (name, split) in [("raw", raw), ("pair", pairs)] {
        let (clone, blocks) = allocations(|| split.clone());
        assert_eq!(
            blocks, 0,
            "cloning a {name} split allocated {blocks} blocks"
        );
        assert!(
            Arc::ptr_eq(clone.records.arena(), split.records.arena()),
            "a {name} split's clone copied its records"
        );
        assert_eq!(clone.record_count(), 20_000, "{name}");
        assert_eq!(clone.bytes(), split.bytes(), "{name}");
    }
}
