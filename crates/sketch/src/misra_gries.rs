//! Misra-Gries frequent-items summary (1982).
//!
//! Keeps at most `k` counters. A new key arriving while the summary is full
//! triggers a *decrement-all* step: every counter drops by 1 (the arriving
//! item's occurrence is also discarded) and zeroed counters are freed.
//!
//! Guarantees, for a stream of length `N`:
//! * every estimate is a lower bound: `est ≤ true`;
//! * the under-count is bounded: `true − est ≤ N / (k+1)`;
//! * hence every key with `true > N/(k+1)` remains tracked.
//!
//! The decrement-all step is O(k), but classic amortization applies: each
//! decrement pass destroys `k+1` stream occurrences (the k decrements plus
//! the arriving one), so total decrement work over the stream is O(N).

use std::collections::HashMap;

use crate::{sort_items, FrequentItems, HeavyHitter};

/// The Misra-Gries summary. See module docs for guarantees.
#[derive(Debug)]
pub struct MisraGries {
    capacity: usize,
    counters: HashMap<Vec<u8>, u64>,
    processed: u64,
    /// Total amount decremented from every surviving counter so far; this
    /// is the uniform upper bound on each estimate's under-count.
    decrements: u64,
}

impl MisraGries {
    /// Create a summary with `capacity` counters (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "MisraGries needs at least one counter");
        MisraGries {
            capacity,
            counters: HashMap::with_capacity(capacity + 1),
            processed: 0,
            decrements: 0,
        }
    }

    /// Total decrement passes applied so far (each reduces every counter
    /// by one); this bounds each estimate's under-count.
    pub fn total_decrements(&self) -> u64 {
        self.decrements
    }

    fn decrement_all(&mut self, by: u64) {
        self.decrements += by;
        self.counters.retain(|_, c| {
            *c = c.saturating_sub(by);
            *c > 0
        });
    }
}

impl FrequentItems for MisraGries {
    fn offer_n(&mut self, key: &[u8], mut n: u64) {
        if n == 0 {
            return;
        }
        self.processed += n;
        if let Some(c) = self.counters.get_mut(key) {
            *c += n;
            return;
        }
        while n > 0 {
            if self.counters.len() < self.capacity {
                self.counters.insert(key.to_vec(), n);
                return;
            }
            // Summary full: decrement everything by the smallest live
            // count or by n, whichever is less — a batched version of the
            // classic one-at-a-time decrement with identical outcome. A
            // single occurrence always steps by 1: no scan for the minimum.
            let step = if n == 1 {
                1
            } else {
                let min = self.counters.values().copied().min().unwrap_or(0).max(1);
                min.min(n)
            };
            self.decrement_all(step);
            n -= step;
            if n > 0 && self.counters.len() < self.capacity {
                self.counters.insert(key.to_vec(), n);
                return;
            }
        }
    }

    fn estimate(&self, key: &[u8]) -> Option<HeavyHitter> {
        self.counters.get(key).map(|&c| HeavyHitter {
            key: key.to_vec(),
            count: c,
            error: 0, // lower-bound estimate: no over-count by construction
        })
    }

    fn lower_bound(&self, key: &[u8]) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    fn items(&self) -> Vec<HeavyHitter> {
        sort_items(
            self.counters
                .iter()
                .map(|(k, &c)| HeavyHitter {
                    key: k.clone(),
                    count: c,
                    error: 0,
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
    fn exact_below_capacity() {
        let mut mg = MisraGries::new(4);
        mg.offer_n(b"a", 3);
        mg.offer_n(b"b", 2);
        assert_eq!(mg.estimate(b"a").unwrap().count, 3);
        assert_eq!(mg.estimate(b"b").unwrap().count, 2);
        assert_eq!(mg.total_decrements(), 0);
    }

    #[test]
    fn decrement_all_on_overflow() {
        let mut mg = MisraGries::new(2);
        mg.offer(b"a"); // a:1
        mg.offer(b"b"); // b:1
        mg.offer(b"c"); // full -> decrement all by 1; a,b drop out; c discarded
        assert_eq!(mg.items().len(), 0);
        assert_eq!(mg.total_decrements(), 1);
        assert_eq!(mg.processed(), 3);
    }

    #[test]
    fn estimates_are_lower_bounds_with_mg_error() {
        let mut mg = MisraGries::new(9);
        let mut truth: HashMap<Vec<u8>, u64> = HashMap::new();
        // Zipf-ish adversarial mix.
        for i in 0..3000u32 {
            let key = format!("k{}", i % (1 + i % 50)).into_bytes();
            mg.offer(&key);
            *truth.entry(key).or_default() += 1;
        }
        let n = mg.processed();
        let bound = n / (9 + 1);
        for h in mg.items() {
            let t = truth[&h.key];
            assert!(h.count <= t, "MG must under-count");
            assert!(t - h.count <= bound, "under-count exceeds N/(k+1)");
        }
        // Every sufficiently heavy key is present.
        for (k, &t) in &truth {
            if t > bound {
                assert!(mg.contains(k), "heavy key missing: {t} > {bound}");
            }
        }
    }

    #[test]
    fn bulk_offer_matches_unit_offers_for_tracked_keys() {
        let mut a = MisraGries::new(3);
        let mut b = MisraGries::new(3);
        for _ in 0..10 {
            a.offer(b"x");
        }
        b.offer_n(b"x", 10);
        assert_eq!(a.estimate(b"x"), b.estimate(b"x"));
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut mg = MisraGries::new(7);
        for i in 0..10_000u32 {
            mg.offer(&(i % 113).to_le_bytes());
        }
        assert!(mg.items().len() <= 7);
    }
}
