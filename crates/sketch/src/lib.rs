//! # onepass-sketch
//!
//! Online frequent-items (heavy-hitter) algorithms over byte-string keys.
//!
//! Section V of the paper optimizes its incremental hash by "borrowing an
//! existing online frequent algorithm to identify hot keys, and keep hot
//! keys in memory". This crate provides three interchangeable such
//! algorithms behind the [`FrequentItems`] trait:
//!
//! * [`SpaceSaving`] (Metwally et al.) — with `k` counters, every key
//!   with true frequency above `N/k` is guaranteed to be tracked, and each
//!   estimate carries an explicit over-count bound.
//! * [`MisraGries`] — deterministic under-counting summary with the
//!   classic `N/(k+1)` error bound; the one `onepass-groupby`'s frequent
//!   hash uses (cheapest update, and its counts are guaranteed).
//! * [`LossyCounting`] (Manku & Motwani) — ε-deficient counts with
//!   windowed pruning.
//!
//! All three are deterministic, single-pass, and O(k) space. The crate
//! also ships [`HyperLogLog`] for approximate distinct counting — the
//! fixed-size mergeable state behind `COUNT(DISTINCT …)` as an
//! incremental-hash aggregate (§IV's "exact or approximate" computation).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hll;
pub mod lossy;
pub mod misra_gries;
pub mod space_saving;

pub use hll::HyperLogLog;
pub use lossy::LossyCounting;
pub use misra_gries::MisraGries;
pub use space_saving::SpaceSaving;

/// One tracked heavy hitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyHitter {
    /// The key.
    pub key: Vec<u8>,
    /// Estimated count. Depending on the algorithm this is an upper bound
    /// (Space-Saving) or a lower bound (Misra-Gries, Lossy Counting).
    pub count: u64,
    /// Maximum over-estimation contained in `count` (0 for exact).
    pub error: u64,
}

/// A single-pass frequent-items summary over byte-string keys.
pub trait FrequentItems: Send {
    /// Observe one occurrence of `key`.
    fn offer(&mut self, key: &[u8]) {
        self.offer_n(key, 1);
    }

    /// Observe `n` occurrences of `key`.
    fn offer_n(&mut self, key: &[u8], n: u64);

    /// Estimated count for `key`, if currently tracked.
    fn estimate(&self, key: &[u8]) -> Option<HeavyHitter>;

    /// Is `key` currently tracked?
    fn contains(&self, key: &[u8]) -> bool {
        self.estimate(key).is_some()
    }

    /// All tracked items, sorted by descending estimated count
    /// (ties broken by ascending key for determinism).
    fn items(&self) -> Vec<HeavyHitter>;

    /// Total occurrences observed so far (the stream length `N`).
    fn processed(&self) -> u64;

    /// Maximum number of keys tracked simultaneously.
    fn capacity(&self) -> usize;

    /// Fold another summary into this one by replaying its tracked items
    /// (the standard mergeable-summary construction; bounds degrade
    /// additively). Lets map-side and reduce-side summaries combine —
    /// the answer to §IV-3's "how to support the combine function for
    /// complex analytical tasks such as top-k".
    fn merge_from(&mut self, other: &dyn FrequentItems) {
        for item in other.items() {
            self.offer_n(&item.key, item.count);
        }
    }

    /// Tracked items whose estimate meets `threshold`. With
    /// `conservative`, `error` is first subtracted from the estimate, so
    /// only items *guaranteed* to meet the threshold are returned
    /// (meaningful for over-estimating summaries like Space-Saving).
    fn above_threshold(&self, threshold: u64, conservative: bool) -> Vec<HeavyHitter> {
        self.items()
            .into_iter()
            .filter(|h| {
                let c = if conservative {
                    h.count.saturating_sub(h.error)
                } else {
                    h.count
                };
                c >= threshold
            })
            .collect()
    }
}

pub(crate) fn sort_items(mut items: Vec<HeavyHitter>) -> Vec<HeavyHitter> {
    items.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
    items
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise(mut sk: Box<dyn FrequentItems>) {
        for _ in 0..60 {
            sk.offer(b"hot");
        }
        for i in 0..30u32 {
            sk.offer(&i.to_le_bytes());
        }
        assert_eq!(sk.processed(), 90);
        assert!(sk.contains(b"hot"));
        let hot = sk.estimate(b"hot").unwrap();
        assert!(hot.count >= 60 - 30, "hot estimate {} too low", hot.count);
        assert!(hot.count - hot.error <= 60, "lower bound above the truth");
        assert!(sk.estimate(b"never offered").is_none());
        let items = sk.items();
        assert_eq!(items[0].key, b"hot".to_vec());
        for w in items.windows(2) {
            assert!(w[0].count >= w[1].count, "items must be sorted descending");
        }
        let above = sk.above_threshold(50, false);
        assert!(above.iter().any(|h| h.key == b"hot"));
    }

    #[test]
    fn all_algorithms_satisfy_trait_contract() {
        exercise(Box::new(SpaceSaving::new(8)));
        exercise(Box::new(MisraGries::new(8)));
        exercise(Box::new(LossyCounting::new(0.05)));
    }

    #[test]
    fn merge_from_approximates_union_across_algorithms() {
        // Two shards each see one heavy key; the merged summary must
        // rank both at the top, for every algorithm (and even across
        // algorithm kinds — the trait replay makes them compatible).
        let build = |hot: &[u8]| {
            let mut a = MisraGries::new(8);
            for _ in 0..200 {
                a.offer(hot);
            }
            for i in 0..40u32 {
                a.offer(&i.to_le_bytes());
            }
            a
        };
        let left = build(b"left-hot");
        let right = build(b"right-hot");
        let mut merged = SpaceSaving::new(16);
        merged.merge_from(&left);
        merged.merge_from(&right);
        let top: Vec<Vec<u8>> = merged.items().into_iter().take(2).map(|h| h.key).collect();
        assert!(top.contains(&b"left-hot".to_vec()));
        assert!(top.contains(&b"right-hot".to_vec()));
    }
}
