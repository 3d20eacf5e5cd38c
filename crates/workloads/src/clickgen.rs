//! Click-log generator: a synthetic stand-in for the WorldCup'98 click
//! stream the paper replicates to 256–508 GB.
//!
//! Each record is one page visit with the schema the paper quotes
//! (`timestamp, user, url`, §II), encoded as a text line —
//! `"<epoch_secs>\t<user>\t<url>"`, matching the paper's "original
//! line-oriented text files" whose parsing falls to a regex / split in
//! the map function.
//!
//! Users and URLs are Zipf-distributed (real click streams are heavily
//! skewed — that skew is precisely what the frequent-key technique
//! exploits), and timestamps advance so that each user's clicks form
//! plausible sessions with occasional gaps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// Configuration for [`ClickGen`].
#[derive(Debug, Clone)]
pub struct ClickGenConfig {
    /// Distinct users.
    pub users: usize,
    /// Distinct URLs.
    pub urls: usize,
    /// Zipf exponent for user popularity.
    pub user_skew: f64,
    /// Zipf exponent for URL popularity.
    pub url_skew: f64,
    /// Mean seconds between consecutive clicks overall.
    pub mean_interarrival_s: f64,
    /// Probability that a user's next click starts a new session
    /// (i.e. jumps past the session gap).
    pub session_break_p: f64,
    /// Session idle gap, seconds (sessionization's split threshold).
    pub session_gap_s: u32,
    /// RNG seed — generation is fully deterministic per seed.
    pub seed: u64,
}

impl Default for ClickGenConfig {
    fn default() -> Self {
        ClickGenConfig {
            users: 10_000,
            urls: 50_000,
            user_skew: 1.1,
            url_skew: 1.05,
            mean_interarrival_s: 0.05,
            session_break_p: 0.02,
            session_gap_s: 30 * 60,
            seed: 0x5eed,
        }
    }
}

/// One parsed click.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Click {
    /// Epoch seconds.
    pub ts: u32,
    /// User id.
    pub user: u32,
    /// URL id.
    pub url: u32,
}

impl Click {
    /// Text encoding: `"<ts>\tu<user>\t/page/<url>"`.
    pub fn to_text(self) -> Vec<u8> {
        format!("{}\tu{}\t/page/{}", self.ts, self.user, self.url).into_bytes()
    }

    /// Parse the text encoding.
    pub fn from_text(line: &[u8]) -> Option<Click> {
        let mut fields = line.split(|&b| b == b'\t');
        let ts = parse_u32(fields.next()?)?;
        let user_f = fields.next()?;
        let user = parse_u32(user_f.strip_prefix(b"u")?)?;
        let url_f = fields.next()?;
        let url = parse_u32(url_f.strip_prefix(b"/page/")?)?;
        Some(Click { ts, user, url })
    }
}

fn parse_u32(bytes: &[u8]) -> Option<u32> {
    if bytes.is_empty() {
        return None;
    }
    let mut v: u32 = 0;
    for &b in bytes {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add((b - b'0') as u32)?;
    }
    Some(v)
}

/// Deterministic click-stream generator.
#[derive(Debug)]
pub struct ClickGen {
    config: ClickGenConfig,
    rng: StdRng,
    users: Zipf,
    urls: Zipf,
    clock: f64,
    /// Last click time per user (session structure).
    last_seen: Vec<f64>,
}

impl ClickGen {
    /// Create a generator.
    pub fn new(config: ClickGenConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let users = Zipf::new(config.users, config.user_skew);
        let urls = Zipf::new(config.urls, config.url_skew);
        let last_seen = vec![0.0; config.users];
        ClickGen {
            config,
            rng,
            users,
            urls,
            clock: 1_000_000_000.0, // a fixed epoch base
            last_seen,
        }
    }

    /// Generate the next click.
    pub fn next_click(&mut self) -> Click {
        self.clock += self.config.mean_interarrival_s * self.rng.gen_range(0.0..2.0);
        let user = self.users.sample(&mut self.rng);
        // Per-user timestamps are nondecreasing (a user may click twice
        // within the same second — the clock has 1 s resolution);
        // occasionally a user "comes back" after more than the session
        // gap, so sessionization has sessions to split.
        let base = self.clock.max(self.last_seen[user]);
        let ts = if self.rng.gen_bool(self.config.session_break_p) {
            (self.last_seen[user] + self.config.session_gap_s as f64 * 1.5).max(base)
        } else {
            base
        };
        self.last_seen[user] = ts;
        Click {
            ts: ts as u32,
            user: user as u32,
            url: self.urls.sample(&mut self.rng) as u32,
        }
    }

    /// Generate `n` clicks as text lines.
    pub fn text_records(&mut self, n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|_| self.next_click().to_text()).collect()
    }

    /// The configured session gap (seconds).
    pub fn session_gap_s(&self) -> u32 {
        self.config.session_gap_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn text_roundtrip() {
        let c = Click {
            ts: 123456,
            user: 42,
            url: 7,
        };
        let line = c.to_text();
        assert_eq!(line, b"123456\tu42\t/page/7".to_vec());
        assert_eq!(Click::from_text(&line), Some(c));
    }

    #[test]
    fn malformed_text_rejected() {
        assert!(Click::from_text(b"").is_none());
        assert!(Click::from_text(b"123\tx42\t/page/1").is_none());
        assert!(Click::from_text(b"abc\tu42\t/page/1").is_none());
        assert!(Click::from_text(b"123\tu42").is_none());
        assert!(Click::from_text(b"123\tu42\t/wrong/1").is_none());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ClickGen::new(ClickGenConfig::default());
        let mut b = ClickGen::new(ClickGenConfig::default());
        for _ in 0..100 {
            assert_eq!(a.next_click(), b.next_click());
        }
        let mut c = ClickGen::new(ClickGenConfig {
            seed: 999,
            ..Default::default()
        });
        let same = (0..100).filter(|_| {
            let x = ClickGen::new(ClickGenConfig::default()).next_click();
            x == c.next_click()
        });
        assert!(same.count() < 100);
    }

    #[test]
    fn user_distribution_is_skewed() {
        let mut g = ClickGen::new(ClickGenConfig {
            users: 1000,
            ..Default::default()
        });
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(g.next_click().user).or_default() += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = freqs.iter().take(10).sum();
        assert!(
            top10 * 100 > 20_000 * 25,
            "top-10 users should own >25% of clicks, got {top10}"
        );
    }

    #[test]
    fn timestamps_are_nondecreasing_per_user() {
        let mut g = ClickGen::new(ClickGenConfig {
            users: 50,
            ..Default::default()
        });
        let mut last: HashMap<u32, u32> = HashMap::new();
        for _ in 0..5000 {
            let c = g.next_click();
            if let Some(&prev) = last.get(&c.user) {
                assert!(c.ts >= prev, "user {} time went backwards", c.user);
            }
            last.insert(c.user, c.ts);
        }
    }

    #[test]
    fn session_breaks_occur() {
        let cfg = ClickGenConfig {
            users: 10,
            session_break_p: 0.2,
            ..Default::default()
        };
        let gap = cfg.session_gap_s;
        let mut g = ClickGen::new(cfg);
        let mut by_user: HashMap<u32, Vec<u32>> = HashMap::new();
        for _ in 0..5000 {
            let c = g.next_click();
            by_user.entry(c.user).or_default().push(c.ts);
        }
        let breaks = by_user
            .values()
            .flat_map(|ts| ts.windows(2))
            .filter(|w| w[1] - w[0] > gap)
            .count();
        assert!(breaks > 0, "expected some session gaps");
    }
}
