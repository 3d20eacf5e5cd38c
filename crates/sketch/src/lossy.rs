//! Lossy Counting (Manku & Motwani 2002).
//!
//! The stream is conceptually divided into windows of width `w = ⌈1/ε⌉`.
//! Each tracked key stores its observed count plus `Δ` = (window at first
//! insertion − 1), an upper bound on occurrences missed before tracking
//! began. At every window boundary, keys with `count + Δ ≤ current
//! window` are pruned.
//!
//! Guarantees, for a stream of length `N`:
//! * estimates under-count by at most `εN`: `true − εN ≤ est ≤ true`;
//! * every key with `true ≥ εN` is tracked;
//! * at most `(1/ε)·log(εN)` counters are live.

use std::collections::HashMap;

use crate::{sort_items, FrequentItems, HeavyHitter};

#[derive(Debug, Clone, Copy)]
struct LossyEntry {
    count: u64,
    delta: u64,
}

/// The Lossy Counting summary. See module docs for guarantees.
#[derive(Debug)]
pub struct LossyCounting {
    epsilon: f64,
    window: u64,
    counters: HashMap<Vec<u8>, LossyEntry>,
    processed: u64,
    current_window: u64,
    /// High-water mark of simultaneously live counters.
    peak_counters: usize,
}

impl LossyCounting {
    /// Create a summary with error bound `epsilon` (`0 < ε < 1`).
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        LossyCounting {
            epsilon,
            window: (1.0 / epsilon).ceil() as u64,
            counters: HashMap::new(),
            processed: 0,
            current_window: 1,
            peak_counters: 0,
        }
    }

    /// The configured error bound ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Most counters ever simultaneously live.
    pub fn peak_counters(&self) -> usize {
        self.peak_counters
    }

    fn prune(&mut self, finished_window: u64) {
        self.counters
            .retain(|_, e| e.count + e.delta > finished_window);
    }
}

impl FrequentItems for LossyCounting {
    fn offer_n(&mut self, key: &[u8], n: u64) {
        if n == 0 {
            return;
        }
        // Bulk window arithmetic: all n occurrences carry the Δ of the
        // window containing the first of them; we then prune once per
        // window boundary the batch crosses, using the 1-based index of
        // the window that just *finished* as the threshold.
        let boundaries_before = self.processed / self.window;
        let delta = boundaries_before; // current window index − 1
        match self.counters.get_mut(key) {
            Some(e) => e.count += n,
            None => {
                self.counters
                    .insert(key.to_vec(), LossyEntry { count: n, delta });
            }
        }
        self.peak_counters = self.peak_counters.max(self.counters.len());
        self.processed += n;
        let boundaries_after = self.processed / self.window;
        for b in boundaries_before..boundaries_after {
            self.prune(b + 1);
        }
        self.current_window = boundaries_after + 1;
    }

    fn estimate(&self, key: &[u8]) -> Option<HeavyHitter> {
        self.counters.get(key).map(|e| HeavyHitter {
            key: key.to_vec(),
            count: e.count,
            error: 0, // lower-bound estimate; under-count bounded by εN
        })
    }

    fn items(&self) -> Vec<HeavyHitter> {
        sort_items(
            self.counters
                .iter()
                .map(|(k, e)| HeavyHitter {
                    key: k.clone(),
                    count: e.count,
                    error: 0,
                })
                .collect(),
        )
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    /// Lossy counting has no hard counter cap; report the theoretical
    /// bound for the observed stream length (≥ 1).
    fn capacity(&self) -> usize {
        let n = self.processed.max(self.window) as f64;
        ((1.0 / self.epsilon) * (self.epsilon * n).max(std::f64::consts::E).ln()).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_within_first_window() {
        let mut lc = LossyCounting::new(0.1); // w = 10
        lc.offer_n(b"a", 3);
        lc.offer_n(b"b", 2);
        assert_eq!(lc.estimate(b"a").unwrap().count, 3);
        assert_eq!(lc.estimate(b"b").unwrap().count, 2);
    }

    #[test]
    fn prunes_singletons_at_window_boundaries() {
        let mut lc = LossyCounting::new(0.25); // w = 4
        lc.offer(b"a");
        lc.offer(b"b");
        lc.offer(b"c");
        lc.offer(b"d"); // boundary: all have count 1, delta 0 -> pruned
        assert_eq!(lc.items().len(), 0);
        assert_eq!(lc.processed(), 4);
    }

    #[test]
    fn heavy_keys_survive_pruning() {
        let mut lc = LossyCounting::new(0.02);
        let mut truth: HashMap<Vec<u8>, u64> = HashMap::new();
        for i in 0..5000u32 {
            let key = if i % 3 == 0 {
                b"hot".to_vec()
            } else {
                format!("cold{}", i).into_bytes()
            };
            lc.offer(&key);
            *truth.entry(key).or_default() += 1;
        }
        let n = lc.processed();
        let eps_n = (0.02 * n as f64).ceil() as u64;
        let hot = lc.estimate(b"hot").expect("hot must survive");
        let t = truth[b"hot".as_slice()];
        assert!(hot.count <= t);
        assert!(t - hot.count <= eps_n, "under-count beyond epsilon*N");
        // All estimates are lower bounds within eps_n.
        for h in lc.items() {
            let t = truth[&h.key];
            assert!(h.count <= t && t - h.count <= eps_n);
        }
    }

    #[test]
    fn counter_footprint_stays_small() {
        let mut lc = LossyCounting::new(0.01);
        for i in 0..100_000u32 {
            lc.offer(&(i % 10_000).to_le_bytes());
        }
        // Uniform data: nothing is frequent; footprint must stay near the
        // theoretical bound rather than the 10k distinct keys.
        assert!(
            lc.peak_counters() < 2500,
            "peak {} counters is too many",
            lc.peak_counters()
        );
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1)")]
    fn invalid_epsilon_rejected() {
        let _ = LossyCounting::new(1.5);
    }

    #[test]
    fn capacity_reports_theoretical_bound() {
        let mut lc = LossyCounting::new(0.1);
        assert!(lc.capacity() >= 10);
        for i in 0..1000u32 {
            lc.offer(&i.to_le_bytes());
        }
        assert!(lc.capacity() >= 10);
    }
}
