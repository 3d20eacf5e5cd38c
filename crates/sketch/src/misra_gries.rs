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

use onepass_core::hashlib::fingerprint;
use onepass_core::FpTable;

use crate::{sort_items, FrequentItems, HeavyHitter};

/// The Misra-Gries summary. See module docs for guarantees.
#[derive(Debug)]
pub struct MisraGries {
    capacity: usize,
    counters: FpTable<u64>,
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
            counters: FpTable::with_capacity(capacity),
            processed: 0,
            decrements: 0,
        }
    }

    /// Total decrement passes applied so far (each reduces every counter
    /// by one); this bounds each estimate's under-count.
    pub fn total_decrements(&self) -> u64 {
        self.decrements
    }

    /// Observe `n` occurrences of `key`, whose [`fingerprint`] is `fp`, and
    /// return the count the summary then guarantees for it (0 when they
    /// were discarded) — offer and read in one probe, copying no key, for
    /// a per-record path that hashed the key already.
    pub fn offer_fp(&mut self, fp: u64, key: &[u8], mut n: u64) -> u64 {
        self.processed += n;
        if let Some(c) = self.counters.get_mut(fp, key) {
            *c += n;
            return *c;
        }
        while n > 0 {
            if self.counters.len() < self.capacity {
                self.counters.insert(fp, key, n);
                return n;
            }
            // Summary full: decrement everything by the smallest live
            // count or by n, whichever is less — a batched version of the
            // classic one-at-a-time decrement with identical outcome. A
            // single occurrence always steps by 1: no scan for the minimum.
            let step = if n == 1 {
                1
            } else {
                let min = self.counters.iter().map(|(_, &c)| c).min().unwrap_or(0);
                min.max(1).min(n)
            };
            self.decrement_all(step);
            n -= step;
        }
        0
    }

    fn decrement_all(&mut self, by: u64) {
        self.decrements += by;
        self.counters.retain(|_, _, c| {
            *c = c.saturating_sub(by);
            *c > 0
        });
    }
}

impl FrequentItems for MisraGries {
    fn offer_n(&mut self, key: &[u8], n: u64) {
        self.offer_fp(fingerprint(key), key, n);
    }

    fn estimate(&self, key: &[u8]) -> Option<HeavyHitter> {
        self.counters
            .get(fingerprint(key), key)
            .map(|&c| HeavyHitter {
                key: key.to_vec(),
                count: c,
                error: 0, // lower-bound estimate: no over-count by construction
            })
    }

    fn items(&self) -> Vec<HeavyHitter> {
        sort_items(
            self.counters
                .iter()
                .map(|(k, &c)| HeavyHitter {
                    key: k.to_vec(),
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
    use std::collections::HashMap;

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

    #[test]
    fn offer_fp_is_offer_then_estimate_in_one_probe() {
        let mut fused = MisraGries::new(5);
        let mut plain = MisraGries::new(5);
        for i in 0..2_000u32 {
            let key = format!("k{}", i % (1 + i % 23)).into_bytes();
            plain.offer(&key);
            let heat = fused.offer_fp(fingerprint(&key), &key, 1);
            let tracked = |mg: &MisraGries| mg.estimate(&key).map_or(0, |h| h.count);
            assert_eq!(heat, tracked(&plain), "record {i}");
            assert_eq!(heat, tracked(&fused));
        }
        assert_eq!(fused.items(), plain.items());
        assert_eq!(fused.total_decrements(), plain.total_decrements());
    }
}
