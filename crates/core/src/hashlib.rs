//! Pair-wise independent hash function library.
//!
//! The paper's prototype ships "a set of pair-wise independent hash
//! functions to meet the requirement of hashing techniques" (§V). Hybrid
//! hash needs *independent* functions at each recursion level (otherwise a
//! bucket re-hashes into a single sub-bucket and recursion never
//! terminates), and the frequent-items sketches need seeded families.
//!
//! One family is provided: [`MultiplyShift`], Dietzfelbinger's
//! multiply-shift scheme over a 64-bit mixed fingerprint — extremely fast
//! and pair-wise independent over the fingerprint domain.
//! [`SeededFamily`] hands out its independent members.

/// A 64→64 bit finalization mixer (SplitMix64's finalizer). Used to reduce
/// variable-length byte strings to a well-mixed 64-bit fingerprint before
/// the pair-wise independent stage.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reduce a byte string to a 64-bit fingerprint by folding 8-byte words
/// through the SplitMix64 mixer. This is *not* itself the pair-wise
/// independent stage — the seeded families are applied on top of it.
///
/// The length seeds the accumulator *multiplied* by an odd constant, not
/// raw: with a raw `len` XOR, a zero-padded key could cancel the length
/// difference in the final partial word (`fingerprint(b"b") ==
/// fingerprint(b"a\0")` — the low bits of `len1 ^ len2` matched
/// `w1 ^ w2`). Spreading the length across all 64 bits makes such
/// trivial zero-padding / length-extension collisions impossible for any
/// key shorter than a full word.
///
/// The values are a contract: every partition, golden dump and wire frame
/// follows from them, so the function may get faster but a key's value
/// never changes (the tests pin a table and a byte-at-a-time reference).
#[inline]
pub fn fingerprint(key: &[u8]) -> u64 {
    let mut acc: u64 =
        0x9e37_79b9_7f4a_7c15 ^ (key.len() as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let mut rest = key;
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        acc = mix64(acc ^ u64::from_le_bytes(*word));
        rest = tail;
    }
    if !rest.is_empty() {
        acc = mix64(acc ^ tail_word(key, rest));
    }
    mix64(acc)
}

/// The last 1–7 bytes of `key` (`rem`) as a zero-padded little-endian
/// word, assembled from loads that overlap instead of a byte copy into a
/// zeroed buffer: a variable-length copy is a `memcpy` call plus a load
/// the store cannot forward to, and every 4-byte user id pays it.
#[inline]
fn tail_word(key: &[u8], rem: &[u8]) -> u64 {
    let r = rem.len();
    if let Some(last) = key.last_chunk::<8>() {
        // The key's last eight bytes end with `rem`: shift the rest out.
        u64::from_le_bytes(*last) >> (8 * (8 - r))
    } else if let (Some(lo), Some(hi)) = (rem.first_chunk::<4>(), rem.last_chunk::<4>()) {
        u64::from(u32::from_le_bytes(*lo)) | u64::from(u32::from_le_bytes(*hi)) << (8 * (r - 4))
    } else {
        // 1–3 bytes: first, middle and last cover every position.
        u64::from(rem[0])
            | u64::from(rem[r / 2]) << (8 * (r / 2))
            | u64::from(rem[r - 1]) << (8 * (r - 1))
    }
}

/// Dietzfelbinger multiply-shift hashing: `h(x) = (a*x + b) >> (64 - out)`
/// evaluated in 128-bit arithmetic over the key fingerprint.
#[derive(Debug, Clone)]
pub struct MultiplyShift {
    a: u128,
    b: u128,
}

impl MultiplyShift {
    /// Construct from a seed. Distinct seeds give (with overwhelming
    /// probability) distinct, independent functions.
    pub fn new(seed: u64) -> Self {
        // Derive the 128-bit multiplier/addend from the seed via the mixer;
        // `a` must be odd for the multiply-shift guarantees.
        let a_lo = mix64(seed ^ 0xa076_1d64_78bd_642f) | 1;
        let a_hi = mix64(seed ^ 0xe703_7ed1_a0b4_28db);
        let b_lo = mix64(seed ^ 0x8ebc_6af0_9c88_c6e3);
        let b_hi = mix64(seed ^ 0x5899_65cc_7537_4cc3);
        MultiplyShift {
            a: ((a_hi as u128) << 64) | a_lo as u128,
            b: ((b_hi as u128) << 64) | b_lo as u128,
        }
    }

    /// Hash a precomputed [`fingerprint`]. Batched probe loops compute the
    /// fingerprint once per record and reuse it across partition routing
    /// and table probes instead of re-reducing the key bytes each time.
    #[inline]
    pub fn hash_fp(&self, fp: u64) -> u64 {
        (self.a.wrapping_mul(fp as u128).wrapping_add(self.b) >> 64) as u64
    }

    /// Bucket a precomputed [`fingerprint`] into `buckets` bins
    /// (uniformly, given a good hash).
    ///
    /// Uses the fixed-point multiply trick (`(h * n) >> 64`) instead of
    /// modulo: no division on the hot path and no modulo bias.
    #[inline]
    pub fn bucket_fp(&self, fp: u64, buckets: usize) -> usize {
        debug_assert!(buckets > 0);
        (((self.hash_fp(fp) as u128) * (buckets as u128)) >> 64) as usize
    }
}

/// A seeded *family* of hash functions: level `i` of a recursive algorithm
/// (hybrid hash) or row `i` of a sketch asks for `family.member(i)`.
#[derive(Debug, Clone)]
pub struct SeededFamily {
    seed: u64,
}

impl SeededFamily {
    /// Create a family rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeededFamily { seed }
    }

    /// The `i`-th member function.
    pub fn member(&self, i: u64) -> MultiplyShift {
        MultiplyShift::new(mix64(self.seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }
}

/// Seed used by [`SeededFamily::default`].
pub const DEFAULT_FAMILY_SEED: u64 = 0x0e70_37ed_1a0b_428d;

impl Default for SeededFamily {
    fn default() -> Self {
        SeededFamily::new(DEFAULT_FAMILY_SEED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The value contract, spelled the slow way: the last partial word is
    /// zero-padded one byte at a time.
    fn reference_fingerprint(key: &[u8]) -> u64 {
        let mut acc: u64 =
            0x9e37_79b9_7f4a_7c15 ^ (key.len() as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
        for chunk in key.chunks(8) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= u64::from(b) << (8 * i);
            }
            acc = mix64(acc ^ w);
        }
        mix64(acc)
    }

    proptest! {
        #[test]
        fn fingerprint_equals_the_reference_at_every_length(
            bytes in prop::collection::vec(any::<u8>(), 64..65),
        ) {
            for len in 0..=64 {
                // A prefix and a suffix: same lengths, different alignment.
                for key in [&bytes[..len], &bytes[64 - len..]] {
                    prop_assert_eq!(fingerprint(key), reference_fingerprint(key), "len {}", len);
                }
            }
        }
    }

    #[test]
    fn every_tail_length_with_and_without_a_full_word_before_it() {
        let bytes: Vec<u8> = (0..15u8)
            .map(|i| 0xf1u8.wrapping_sub(i.wrapping_mul(37)))
            .collect();
        for tail in 1..=7 {
            for key in [&bytes[..tail], &bytes[..8 + tail]] {
                assert_eq!(fingerprint(key), reference_fingerprint(key), "{key:?}");
            }
        }
        for key in [&b""[..], &bytes[..8]] {
            assert_eq!(fingerprint(key), reference_fingerprint(key), "{key:?}");
        }
        // A tail whose high bytes are set must not leak past its length.
        assert_eq!(fingerprint(&[0xff; 3]), reference_fingerprint(&[0xff; 3]));
        assert_eq!(fingerprint(&[0xff; 7]), reference_fingerprint(&[0xff; 7]));
        assert_eq!(fingerprint(&[0xff; 13]), reference_fingerprint(&[0xff; 13]));
    }

    #[test]
    fn fingerprint_distinguishes_lengths_and_content() {
        assert_ne!(fingerprint(b""), fingerprint(b"\0"));
        assert_ne!(fingerprint(b"\0"), fingerprint(b"\0\0"));
        assert_ne!(fingerprint(b"abcdefgh"), fingerprint(b"abcdefgi"));
        // Deterministic.
        assert_eq!(fingerprint(b"hello"), fingerprint(b"hello"));
    }

    #[test]
    fn multiply_shift_seeds_differ() {
        let h1 = MultiplyShift::new(1);
        let h2 = MultiplyShift::new(2);
        let mut same = 0;
        for i in 0..1000u32 {
            let k = i.to_le_bytes();
            if h1.hash_fp(fingerprint(&k)) == h2.hash_fp(fingerprint(&k)) {
                same += 1;
            }
        }
        assert!(same < 5, "independent seeds should rarely collide: {same}");
    }

    #[test]
    fn bucket_is_in_range_and_covers_all_buckets() {
        let h = MultiplyShift::new(42);
        let n = 16;
        let mut seen = vec![false; n];
        for i in 0..10_000u32 {
            let b = h.bucket_fp(fingerprint(&i.to_le_bytes()), n);
            assert!(b < n);
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn bucket_distribution_is_roughly_uniform() {
        let h = MultiplyShift::new(7);
        let n = 8;
        let trials = 80_000u32;
        let mut counts = vec![0usize; n];
        for i in 0..trials {
            counts[h.bucket_fp(fingerprint(&i.to_le_bytes()), n)] += 1;
        }
        let expect = trials as f64 / n as f64;
        for c in counts {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn family_members_are_distinct() {
        let fam = SeededFamily::new(99);
        let a = fam.member(0);
        let b = fam.member(1);
        let fp = fingerprint(b"some key");
        assert_ne!(a.hash_fp(fp), b.hash_fp(fp));
        // Same index is the same function.
        assert_eq!(fam.member(3).hash_fp(fp), fam.member(3).hash_fp(fp));
    }

    /// Property: `MultiplyShift::bucket` is unbiased — over a large keyset,
    /// every bucket count stays within a chi-square-style
    /// bound of the uniform expectation, including non-power-of-two bucket
    /// counts where modulo reduction would skew.
    #[test]
    fn bucket_is_unbiased() {
        let trials = 60_000u32;
        for n in [3usize, 7, 16, 61] {
            let h = SeededFamily::default().member(11);
            let mut counts = vec![0u64; n];
            for i in 0..trials {
                counts[h.bucket_fp(fingerprint(&i.to_le_bytes()), n)] += 1;
            }
            let expect = trials as f64 / n as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&c| {
                    let d = c as f64 - expect;
                    d * d / expect
                })
                .sum();
            // 99.9th percentile of chi-square with n-1 dof is well
            // under 3x dof for these sizes; 2.5x gives slack without
            // masking real bias (a mod-reduced 61-bucket split fails
            // this by orders of magnitude).
            assert!(
                chi2 < 2.5 * (n as f64 - 1.0).max(6.0),
                "buckets={n}: chi2={chi2:.1}"
            );
        }
    }

    /// Property: `fingerprint` has no collisions at all across every key
    /// of length 0..=2 — which exhaustively covers the trivial
    /// zero-padding / length-extension pairs (`"b"` vs `"a\0"`, `""` vs
    /// `"\0"`, ...). The pre-fix fingerprint seeded with a raw `len` XOR
    /// and failed this on 65k of these pairs.
    #[test]
    fn fingerprint_has_no_short_key_collisions() {
        let mut seen: Vec<(u64, Vec<u8>)> = Vec::with_capacity(1 + 256 + 65536);
        seen.push((fingerprint(b""), Vec::new()));
        for a in 0..=255u8 {
            seen.push((fingerprint(&[a]), vec![a]));
            for b in 0..=255u8 {
                seen.push((fingerprint(&[a, b]), vec![a, b]));
            }
        }
        seen.sort_unstable();
        for w in seen.windows(2) {
            assert_ne!(
                w[0].0, w[1].0,
                "fingerprint collision: {:?} vs {:?}",
                w[0].1, w[1].1
            );
        }
    }

    /// The specific pre-fix failure: a key zero-extended by one byte
    /// colliding with the next length's key whose last byte absorbed the
    /// length delta.
    #[test]
    fn fingerprint_zero_padding_regression() {
        assert_ne!(fingerprint(b"b"), fingerprint(b"a\0"));
        assert_ne!(fingerprint(b"a"), fingerprint(b"a\0"));
        assert_ne!(fingerprint(b"ab"), fingerprint(b"ab\0"));
        assert_ne!(fingerprint(b"abcdefg"), fingerprint(b"abcdefg\0"));
    }
}
