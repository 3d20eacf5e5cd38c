//! An iterative loop holds one round: live heap bytes, counted.
//!
//! A global allocator that counts the bytes live across every thread and
//! their high-water mark. Cached PageRank over a 20,000-node graph runs
//! 3 rounds, then 24. Every round after the first publishes its new
//! ranks to the cache and merges them into the resident state, which the
//! next round supersedes; if a finished round's report (and with it the
//! partitions its stages published) outlived the round, the live heap
//! would climb with every round. It must not: the 24-round high-water
//! stays within 1.25× of the 3-round one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use onepass_runtime::{CacheConfig, DatasetCache, Engine, EngineConfig};
use onepass_workloads::pagerank::{self, graph_records, GraphConfig, PageRankConfig};

const NODES: usize = 20_000;

/// The long loop's high-water over the short loop's, at most.
const GROWTH: f64 = 1.25;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes on every thread.
struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `rounds` cached PageRank rounds over `graph`; the live heap's
/// high-water above what was live before the run, in bytes.
fn high_water(graph: &[Vec<u8>], rounds: usize) -> usize {
    let mut config = PageRankConfig::new(NODES);
    config.rounds = rounds;
    config.reducers = 2;
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    {
        let engine = Engine::with_config(EngineConfig::builder().map_workers(2).build());
        let cache = DatasetCache::new(CacheConfig::default());
        let (ranks, ran) = pagerank::run_cached(&engine, &cache, graph, &config).unwrap();
        assert_eq!(ran, rounds);
        assert_eq!(ranks.len(), NODES);
    }
    PEAK.load(Ordering::Relaxed) - before
}

#[test]
fn a_finished_round_keeps_nothing() {
    let graph = graph_records(GraphConfig {
        nodes: NODES,
        max_out: 4,
        seed: 7,
    });
    let short = high_water(&graph, 3);
    let long = high_water(&graph, 24);
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    eprintln!(
        "live-heap high-water: 3 rounds {:.1} MiB, 24 rounds {:.1} MiB",
        mib(short),
        mib(long)
    );
    assert!(
        long as f64 <= short as f64 * GROWTH,
        "24 rounds peaked at {:.1} MiB of live heap, 3 rounds at {:.1} MiB: \
         more than {GROWTH}× — a finished round outlives its round",
        mib(long),
        mib(short)
    );
}
