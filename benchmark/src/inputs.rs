//! Seeded input generation. `--seed` reaches every generator here and
//! nowhere else: the program under test only ever sees the records.

use onepass_workloads::pagerank::{graph_records, GraphConfig};
use onepass_workloads::{ClickGen, ClickGenConfig, DocGen, DocGenConfig, TenantSpec};

/// Input sizes of one run. `--smoke` divides every record count by 20 and
/// leaves the code paths alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    divisor: usize,
}

impl Scale {
    /// Full-size inputs.
    pub const FULL: Scale = Scale { divisor: 1 };
    /// `--smoke`: inputs ÷ 20.
    pub const SMOKE: Scale = Scale { divisor: 20 };

    /// `n` records at this scale.
    pub fn of(self, n: usize) -> usize {
        (n / self.divisor).max(1)
    }

    /// True for the smoke scale.
    pub fn is_smoke(self) -> bool {
        self.divisor > 1
    }
}

/// Click-stream shape of the batch workloads: the §V set-up
/// (`exp_section5`) — 30k users, skew 1.15, so hot users dominate.
pub fn batch_click_config(seed: u64) -> ClickGenConfig {
    ClickGenConfig {
        users: 30_000,
        user_skew: 1.15,
        seed,
        ..ClickGenConfig::default()
    }
}

/// Click-stream shape of the serving workload: the generator defaults
/// `onepass serve` and `exp_serving` use.
pub fn serve_click_config(seed: u64) -> ClickGenConfig {
    ClickGenConfig {
        seed,
        ..ClickGenConfig::default()
    }
}

/// `n` text click records.
pub fn clicks(config: ClickGenConfig, n: usize) -> Vec<Vec<u8>> {
    ClickGen::new(config).text_records(n)
}

/// Words in every generated document: the mean of the generator's
/// default 50..=300 range. Serving cost grows faster than linearly with
/// document bytes, and 51 documents of random length differ by ±13% in
/// total bytes from seed to seed, which moved an iteration's wall time
/// by ±25%; at a fixed length one seed's documents cost what another's do.
const DOC_WORDS: usize = 175;

/// `n` text documents of [`DOC_WORDS`] words each.
pub fn docs(seed: u64, n: usize) -> Vec<Vec<u8>> {
    DocGen::new(DocGenConfig {
        seed,
        min_words: DOC_WORDS,
        max_words: DOC_WORDS,
        ..DocGenConfig::default()
    })
    .records(n)
}

/// Graph text records, one line per node. The generator forces its seed
/// odd, which would fold seeds 2 and 3 into one graph; shifting first
/// keeps distinct `--seed`s distinct.
pub fn graph(seed: u64, nodes: usize, max_out: usize) -> Vec<Vec<u8>> {
    graph_records(GraphConfig {
        nodes,
        max_out,
        seed: (seed << 1) | 1,
    })
}

/// `n` tenants over `queries` in exact Zipf(1.0) shares by rank (largest
/// remainder: 77, 39, 26, 19, 15, 13, 11 of 200 over seven queries);
/// `seed` decides which tenant subscribes to which query, not how many
/// do. `assign_tenants` draws each tenant's query at random, and the
/// catalog's queries differ in cost by an order of magnitude, so one
/// seed's population cost up to 30% more to serve than another's.
pub fn tenants(seed: u64, n: usize, queries: &[String]) -> Vec<TenantSpec> {
    let harmonic: f64 = (1..=queries.len()).map(|rank| 1.0 / rank as f64).sum();
    let shares: Vec<f64> = (1..=queries.len())
        .map(|rank| n as f64 / (rank as f64 * harmonic))
        .collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| *s as usize).collect();
    let mut by_remainder: Vec<usize> = (0..queries.len()).collect();
    by_remainder.sort_by(|&a, &b| shares[b].fract().total_cmp(&shares[a].fract()));
    let unseated = n - counts.iter().sum::<usize>();
    for &q in by_remainder.iter().take(unseated) {
        counts[q] += 1;
    }
    let mut assigned: Vec<&String> = queries
        .iter()
        .zip(&counts)
        .flat_map(|(q, &count)| std::iter::repeat(q).take(count))
        .collect();
    // Fisher–Yates on a splitmix64 stream.
    let mut state = seed;
    for i in (1..assigned.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        assigned.swap(i, (z % (i as u64 + 1)) as usize);
    }
    assigned
        .into_iter()
        .enumerate()
        .map(|(i, query)| TenantSpec {
            id: format!("t{i:03}"),
            query: query.clone(),
        })
        .collect()
}

/// Order-sensitive FNV-1a over length-prefixed records: equal inputs,
/// equal fingerprint. Printed with every run so two runs can be shown to
/// have measured the same bytes.
pub fn fingerprint<'a>(records: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(&(r.len() as u64).to_le_bytes());
        eat(r);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(records: &[Vec<u8>]) -> u64 {
        fingerprint(records.iter().map(Vec::as_slice))
    }

    #[test]
    fn same_seed_same_input_fingerprint() {
        for seed in [1u64, 42] {
            assert_eq!(
                fp(&clicks(batch_click_config(seed), 2_000)),
                fp(&clicks(batch_click_config(seed), 2_000))
            );
            assert_eq!(fp(&docs(seed, 20)), fp(&docs(seed, 20)));
            assert_eq!(fp(&graph(seed, 500, 4)), fp(&graph(seed, 500, 4)));
            let queries = vec!["a".to_string(), "b".to_string(), "c".to_string()];
            assert_eq!(tenants(seed, 50, &queries), tenants(seed, 50, &queries));
        }
    }

    #[test]
    fn seed_reaches_every_generator() {
        assert_ne!(
            fp(&clicks(batch_click_config(1), 2_000)),
            fp(&clicks(batch_click_config(2), 2_000))
        );
        assert_ne!(
            fp(&clicks(serve_click_config(1), 2_000)),
            fp(&clicks(serve_click_config(2), 2_000))
        );
        assert_ne!(fp(&docs(1, 20)), fp(&docs(2, 20)));
        assert_ne!(fp(&graph(2, 500, 4)), fp(&graph(3, 500, 4)));
        let queries = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        assert_ne!(tenants(1, 200, &queries), tenants(2, 200, &queries));
    }

    #[test]
    fn every_seed_seats_the_same_query_mix() {
        let queries: Vec<String> = "abcdefg".chars().map(String::from).collect();
        let count = |seed: u64, q: &str| {
            tenants(seed, 200, &queries)
                .iter()
                .filter(|t| t.query == q)
                .count()
        };
        for seed in [1, 2, 20_110_516] {
            let counts: Vec<usize> = queries.iter().map(|q| count(seed, q)).collect();
            assert_eq!(counts, [77, 39, 26, 19, 15, 13, 11]);
        }
        assert_eq!(tenants(1, 5, &queries[..1]).len(), 5);
    }

    #[test]
    fn fingerprint_sees_record_boundaries() {
        assert_ne!(
            fp(&[b"ab".to_vec(), b"c".to_vec()]),
            fp(&[b"a".to_vec(), b"bc".to_vec()])
        );
    }

    #[test]
    fn smoke_divides_by_twenty() {
        assert_eq!(Scale::FULL.of(1_000_000), 1_000_000);
        assert_eq!(Scale::SMOKE.of(1_000_000), 50_000);
        assert_eq!(Scale::SMOKE.of(5), 1);
    }
}
