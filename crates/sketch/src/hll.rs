//! HyperLogLog distinct counting.
//!
//! The paper's proposed platform "extends the hash framework with
//! incremental computation, where the computation can be either **exact
//! or approximate**" (§IV). COUNT(DISTINCT …) is the canonical aggregate
//! that *needs* the approximate option: its exact state is linear in the
//! number of distinct values (a set), while the HyperLogLog state is a
//! fixed few hundred bytes and merges losslessly — ideal for per-key
//! states in the incremental hash.
//!
//! Standard HLL with `2^p` 6-bit registers (stored as bytes), the
//! bias-corrected estimator of Flajolet et al., and linear counting for
//! the small range.

use onepass_core::hashlib::{fingerprint, MultiplyShift};

/// A HyperLogLog distinct-count sketch.
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    p: u8,
    registers: Vec<u8>,
    hasher: MultiplyShift,
}

impl HyperLogLog {
    /// Create a sketch with `2^p` registers (`4 ≤ p ≤ 18`). The standard
    /// relative error is ≈ `1.04 / sqrt(2^p)` — p=12 gives ~1.6%.
    pub fn new(p: u8) -> Self {
        assert!((4..=18).contains(&p), "p must be in 4..=18, got {p}");
        HyperLogLog {
            p,
            registers: vec![0; 1 << p],
            hasher: MultiplyShift::new(0x4c0_91dd),
        }
    }

    /// Registers in the sketch.
    pub fn registers(&self) -> usize {
        self.registers.len()
    }

    /// Observe one item.
    pub fn insert(&mut self, item: &[u8]) {
        let h = self.hasher.hash_fp(fingerprint(item));
        let idx = (h >> (64 - self.p)) as usize;
        // Rank of the first set bit in the remaining stream (1-based),
        // computed over the low 64-p bits.
        let rest = h << self.p;
        let rank = (rest.leading_zeros() as u8 + 1).min(64 - self.p + 1);
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Merge another sketch (register-wise max). Panics if sizes differ.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.p, other.p, "cannot merge HLLs of different precision");
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(b);
        }
    }

    /// Estimate the number of distinct items observed.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            // Small-range correction: linear counting over empty registers.
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Insert directly into a serialized state (see
    /// [`to_bytes`](Self::to_bytes)) without deserializing — the hot path
    /// for per-key aggregate states. Returns `false` on a malformed state.
    pub fn insert_raw(state: &mut [u8], item: &[u8]) -> bool {
        let Some((&p, _)) = state.split_first() else {
            return false;
        };
        if !(4..=18).contains(&p) || state.len() != 1 + (1usize << p) {
            return false;
        }
        let hasher = MultiplyShift::new(0x4c0_91dd);
        let h = hasher.hash_fp(fingerprint(item));
        let idx = (h >> (64 - p)) as usize;
        let rank = ((h << p).leading_zeros() as u8 + 1).min(64 - p + 1);
        if rank > state[1 + idx] {
            state[1 + idx] = rank;
        }
        true
    }

    /// Merge serialized state `other` into serialized state `state`
    /// (register-wise max). Returns `false` on malformed/mismatched input.
    pub fn merge_raw(state: &mut [u8], other: &[u8]) -> bool {
        if state.len() != other.len() || state.is_empty() || state[0] != other[0] {
            return false;
        }
        for (a, &b) in state[1..].iter_mut().zip(&other[1..]) {
            *a = (*a).max(b);
        }
        true
    }

    /// Serialize to bytes (for use as an aggregate state): `[p][registers…]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.registers.len());
        out.push(self.p);
        out.extend_from_slice(&self.registers);
        out
    }

    /// Deserialize from [`to_bytes`](Self::to_bytes) output.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (&p, regs) = bytes.split_first()?;
        if !(4..=18).contains(&p) || regs.len() != 1 << p {
            return None;
        }
        Some(HyperLogLog {
            p,
            registers: regs.to_vec(),
            hasher: MultiplyShift::new(0x4c0_91dd),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_within_standard_error() {
        for &n in &[100u32, 5_000, 100_000] {
            let mut hll = HyperLogLog::new(12);
            for i in 0..n {
                hll.insert(&i.to_le_bytes());
            }
            let est = hll.estimate();
            let err = (est - n as f64).abs() / n as f64;
            // 1.04/sqrt(4096) ≈ 1.6%; allow 4 sigma.
            assert!(err < 0.065, "n={n}: estimate {est:.0}, error {err:.3}");
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut hll = HyperLogLog::new(10);
        for _ in 0..50 {
            for i in 0..500u32 {
                hll.insert(&i.to_le_bytes());
            }
        }
        let est = hll.estimate();
        assert!((est - 500.0).abs() / 500.0 < 0.1, "estimate {est:.0}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(12);
        let mut b = HyperLogLog::new(12);
        let mut both = HyperLogLog::new(12);
        for i in 0..30_000u32 {
            let bytes = i.to_le_bytes();
            if i % 2 == 0 {
                a.insert(&bytes);
            } else {
                b.insert(&bytes);
            }
            both.insert(&bytes);
        }
        a.merge(&b);
        assert_eq!(
            a.registers, both.registers,
            "merge must equal union exactly"
        );
    }

    #[test]
    fn serialization_roundtrip() {
        let mut hll = HyperLogLog::new(8);
        for i in 0..1000u32 {
            hll.insert(&i.to_le_bytes());
        }
        let bytes = hll.to_bytes();
        let back = HyperLogLog::from_bytes(&bytes).unwrap();
        assert_eq!(back.registers, hll.registers);
        assert_eq!(back.estimate(), hll.estimate());
        // Corrupt inputs rejected.
        assert!(HyperLogLog::from_bytes(&[]).is_none());
        assert!(HyperLogLog::from_bytes(&[12, 0, 0]).is_none());
        assert!(HyperLogLog::from_bytes(&[99]).is_none());
    }

    #[test]
    fn raw_state_operations_match_object_operations() {
        let mut obj = HyperLogLog::new(10);
        let mut raw = HyperLogLog::new(10).to_bytes();
        for i in 0..5000u32 {
            obj.insert(&i.to_le_bytes());
            assert!(HyperLogLog::insert_raw(&mut raw, &i.to_le_bytes()));
        }
        assert_eq!(
            HyperLogLog::from_bytes(&raw).unwrap().registers,
            obj.registers
        );

        // merge_raw == merge
        let mut other = HyperLogLog::new(10);
        for i in 5000..9000u32 {
            other.insert(&i.to_le_bytes());
        }
        let mut merged_raw = raw.clone();
        assert!(HyperLogLog::merge_raw(&mut merged_raw, &other.to_bytes()));
        let mut merged_obj = obj.clone();
        merged_obj.merge(&other);
        assert_eq!(
            HyperLogLog::from_bytes(&merged_raw).unwrap().registers,
            merged_obj.registers
        );

        // Malformed inputs rejected.
        assert!(!HyperLogLog::insert_raw(&mut [], b"x"));
        assert!(!HyperLogLog::merge_raw(&mut raw, &[1, 2, 3]));
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let hll = HyperLogLog::new(6);
        assert_eq!(hll.estimate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "p must be in 4..=18")]
    fn invalid_precision_rejected() {
        let _ = HyperLogLog::new(3);
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn mismatched_merge_rejected() {
        let mut a = HyperLogLog::new(8);
        let b = HyperLogLog::new(9);
        a.merge(&b);
    }
}
