//! Space-Saving (Metwally, Agrawal, El Abbadi 2005).
//!
//! Keeps exactly `k` counters. A new key arriving while the summary is full
//! evicts the key with the *minimum* count and inherits that count (+1),
//! recording the inherited amount as the estimate's `error`.
//!
//! Guarantees, for a stream of length `N`:
//! * every estimate is an upper bound: `true ≤ est`;
//! * the over-count is bounded: `est − error ≤ true`;
//! * `min_count ≤ N / k`, so every key with `true > N/k` is tracked.
//!
//! Implementation note: the canonical "stream summary" structure is a
//! doubly linked list of count buckets. We use the equivalent but simpler
//! hash-map-plus-lazy-min-heap formulation: each increment pushes a fresh
//! `(count, seq, key)` heap entry, and eviction pops entries until one
//! matches the map's current count for its key. Amortized O(log k) per
//! update; stale entries are bounded by the number of updates between
//! evictions and are drained as they surface.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::{sort_items, FrequentItems, HeavyHitter};

#[derive(Debug, Clone, Copy)]
struct Counter {
    count: u64,
    error: u64,
}

/// The Space-Saving summary. See module docs for guarantees.
///
/// ```
/// use onepass_sketch::{FrequentItems, SpaceSaving};
///
/// let mut sketch = SpaceSaving::new(4);
/// for _ in 0..100 { sketch.offer(b"hot"); }
/// for i in 0..50u32 { sketch.offer(&i.to_le_bytes()); }
///
/// let top = sketch.items();
/// assert_eq!(top[0].key, b"hot");          // heavy key always tracked
/// assert!(top[0].count >= 100);            // estimates are upper bounds
/// assert!(top[0].count - top[0].error <= 100);
/// ```
#[derive(Debug)]
pub struct SpaceSaving {
    capacity: usize,
    counters: HashMap<Vec<u8>, Counter>,
    /// Min-heap of (count, seq, key); entries may be stale.
    heap: BinaryHeap<Reverse<(u64, u64, Vec<u8>)>>,
    seq: u64,
    processed: u64,
}

impl SpaceSaving {
    /// Create a summary with `capacity` counters (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "SpaceSaving needs at least one counter");
        SpaceSaving {
            capacity,
            counters: HashMap::with_capacity(capacity + 1),
            heap: BinaryHeap::with_capacity(capacity * 2),
            seq: 0,
            processed: 0,
        }
    }

    /// Current minimum tracked count (0 when not yet full). This is the
    /// maximum possible count of any *untracked* key.
    pub fn min_count(&self) -> u64 {
        if self.counters.len() < self.capacity {
            return 0;
        }
        // O(k) scan; only called at summary-inspection points, not on the
        // per-record update path.
        self.counters.values().map(|c| c.count).min().unwrap_or(0)
    }

    fn push_heap(&mut self, key: &[u8], count: u64) {
        self.seq += 1;
        self.heap.push(Reverse((count, self.seq, key.to_vec())));
    }

    /// Pop heap entries until the top reflects a live (key, count) pair,
    /// then remove and return that key and its counter.
    fn evict_min(&mut self) -> (Vec<u8>, Counter) {
        loop {
            let Reverse((count, _, key)) = self
                .heap
                .pop()
                .expect("heap cannot be empty while counters are full");
            match self.counters.get(&key) {
                Some(c) if c.count == count => {
                    let c = *c;
                    self.counters.remove(&key);
                    return (key, c);
                }
                _ => continue, // stale entry
            }
        }
    }
}

impl FrequentItems for SpaceSaving {
    fn offer_n(&mut self, key: &[u8], n: u64) {
        if n == 0 {
            return;
        }
        self.processed += n;
        if let Some(c) = self.counters.get_mut(key) {
            c.count += n;
            let count = c.count;
            self.push_heap(key, count);
        } else if self.counters.len() < self.capacity {
            self.counters
                .insert(key.to_vec(), Counter { count: n, error: 0 });
            self.push_heap(key, n);
        } else {
            let (_, min) = self.evict_min();
            let count = min.count + n;
            self.counters.insert(
                key.to_vec(),
                Counter {
                    count,
                    error: min.count,
                },
            );
            self.push_heap(key, count);
        }
    }

    fn estimate(&self, key: &[u8]) -> Option<HeavyHitter> {
        self.counters.get(key).map(|c| HeavyHitter {
            key: key.to_vec(),
            count: c.count,
            error: c.error,
        })
    }

    fn items(&self) -> Vec<HeavyHitter> {
        sort_items(
            self.counters
                .iter()
                .map(|(k, c)| HeavyHitter {
                    key: k.clone(),
                    count: c.count,
                    error: c.error,
                })
                .collect(),
        )
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_exact_counts_below_capacity() {
        let mut ss = SpaceSaving::new(10);
        for _ in 0..5 {
            ss.offer(b"a");
        }
        for _ in 0..3 {
            ss.offer(b"b");
        }
        let a = ss.estimate(b"a").unwrap();
        assert_eq!((a.count, a.error), (5, 0));
        let b = ss.estimate(b"b").unwrap();
        assert_eq!((b.count, b.error), (3, 0));
        assert_eq!(ss.processed(), 8);
    }

    #[test]
    fn eviction_inherits_min_count_as_error() {
        let mut ss = SpaceSaving::new(2);
        ss.offer(b"a"); // a:1
        ss.offer(b"a"); // a:2
        ss.offer(b"b"); // b:1
        ss.offer(b"c"); // evicts b (count 1) -> c: count 2, error 1
        let c = ss.estimate(b"c").unwrap();
        assert_eq!((c.count, c.error), (2, 1));
        assert!(!ss.contains(b"b"));
        assert!(ss.contains(b"a"));
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut ss = SpaceSaving::new(5);
        for i in 0..1000u32 {
            ss.offer(&i.to_le_bytes());
        }
        assert_eq!(ss.items().len(), 5);
    }

    #[test]
    fn heavy_key_survives_adversarial_noise() {
        // hot appears 400 times among 1000 distinct noise keys appearing
        // once each: N = 1400, k = 16 -> N/k = 87.5 < 400, so hot must be
        // tracked and its lower bound must dominate every noise key.
        let mut ss = SpaceSaving::new(16);
        for i in 0..1000u32 {
            if i % 5 < 2 {
                ss.offer(b"hot");
                ss.offer(b"hot");
            }
            ss.offer(&i.to_le_bytes());
        }
        let hot = ss.estimate(b"hot").expect("hot key must be tracked");
        let true_hot = 800;
        assert!(hot.count >= true_hot, "upper bound violated");
        assert!(hot.count - hot.error <= true_hot, "error bound violated");
    }

    #[test]
    fn offer_n_bulk_equals_repeated_offers() {
        let mut a = SpaceSaving::new(4);
        let mut b = SpaceSaving::new(4);
        for _ in 0..7 {
            a.offer(b"x");
        }
        b.offer_n(b"x", 7);
        assert_eq!(a.estimate(b"x").unwrap(), b.estimate(b"x").unwrap());
        b.offer_n(b"x", 0); // no-op
        assert_eq!(b.processed(), 7);
    }

    #[test]
    fn min_count_bound_holds() {
        let mut ss = SpaceSaving::new(8);
        for i in 0..5000u32 {
            ss.offer(&(i % 37).to_le_bytes());
        }
        assert!(ss.min_count() <= ss.processed() / 8 + 1);
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_capacity_rejected() {
        let _ = SpaceSaving::new(0);
    }
}
