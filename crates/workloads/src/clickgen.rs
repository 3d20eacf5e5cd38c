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

use std::io::{Cursor, Write};

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
    /// Text encoding: `"<ts>\tu<user>\t/page/<url>"`, allocated at its
    /// exact length. (`format!` would grow a ~22-byte line into a 32-byte
    /// buffer, a third of it never used.)
    pub fn to_text(self) -> Vec<u8> {
        // Three ten-digit fields and nine bytes of text at most.
        let mut line = Cursor::new([0u8; 39]);
        write!(line, "{}\tu{}\t/page/{}", self.ts, self.user, self.url).expect("39 bytes fit");
        line.get_ref()[..line.position() as usize].to_vec()
    }

    /// Parse the text encoding in one forward pass: three digit runs with
    /// the constant text between them compared in place. Anything after
    /// the URL field's tab is ignored, as a split on tabs would.
    pub fn from_text(line: &[u8]) -> Option<Click> {
        let (ts, at) = digits_at(line, 0)?;
        let (user, at) = digits_at(line, skip(line, at, b"\tu")?)?;
        let (url, at) = digits_at(line, skip(line, at, b"\t/page/")?)?;
        matches!(line.get(at), None | Some(b'\t')).then_some(Click { ts, user, url })
    }
}

/// `at` moved past `text`, which must be what `line` holds there.
#[inline]
fn skip(line: &[u8], at: usize, text: &[u8]) -> Option<usize> {
    line.get(at..)?.starts_with(text).then_some(at + text.len())
}

/// The eight bytes of `line` from `at` on as a little-endian word,
/// zero-filled past the end of the line. A line under eight bytes has no
/// such word, and is no click.
#[inline]
fn word_at(line: &[u8], at: usize) -> Option<u64> {
    let rest = line.get(at..)?;
    Some(match rest.first_chunk::<8>() {
        Some(word) => u64::from_le_bytes(*word),
        // The line's last eight bytes end with `rest`: shift the others out.
        None => u64::from_le_bytes(*line.last_chunk::<8>()?)
            .checked_shr(8 * (8 - rest.len()) as u32)
            .unwrap_or(0),
    })
}

/// The non-empty run of ASCII digits at `line[at..]` as a `u32`, and where
/// the run ends.
///
/// User and URL ids are Zipf-distributed, so a field's length changes from
/// line to line and a digit-at-a-time loop pays a mispredicted exit per
/// field. The first eight bytes are classified and converted as one word
/// instead, with no branch on how many of them are digits; only a longer
/// run (the ten-digit timestamp) goes on a digit at a time. Overflow is
/// checked once per field: ten digits cannot wrap the `u64` accumulator,
/// and a longer run is a number only if all but ten of its digits are
/// zero padding.
#[inline]
fn digits_at(line: &[u8], at: usize) -> Option<(u32, usize)> {
    // Each byte's value as a digit; a byte that is none comes out over 9,
    // which sets its high bit in `over`.
    let x = word_at(line, at)? ^ 0x3030_3030_3030_3030;
    let over = (x.wrapping_add(0x7676_7676_7676_7676) | x) & 0x8080_8080_8080_8080;
    let mut n = over.trailing_zeros() as usize / 8;
    if n == 0 {
        return None;
    }
    // The first digit is the lowest byte: move the run to the top, so the
    // bytes under it read as leading zeros, then add up pairs of digits,
    // pairs of pairs, and the two halves.
    let c = x << (8 * (8 - n));
    let c = (c & 0x000f_000f_000f_000f) * 10 + (c >> 8 & 0x000f_000f_000f_000f);
    let c = (c & 0x0000_00ff_0000_00ff) * 100 + (c >> 16 & 0x0000_00ff_0000_00ff);
    let mut v = (c & 0xffff) * 10_000 + (c >> 32 & 0xffff);
    if n == 8 {
        let run = &line[at..];
        while let Some(d) = run.get(n).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
            v = v.wrapping_mul(10).wrapping_add(u64::from(d));
            n += 1;
        }
        if n > 10 && n - run.iter().take_while(|&&b| b == b'0').count() > 10 {
            return None;
        }
    }
    Some((u32::try_from(v).ok()?, at + n))
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
    use proptest::prelude::*;
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

    /// The parser `from_text` replaced, kept as its oracle: split on tabs,
    /// strip each prefix, checked multiply-add per digit.
    fn split_and_parse(line: &[u8]) -> Option<Click> {
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
        let mut fields = line.split(|&b| b == b'\t');
        let ts = parse_u32(fields.next()?)?;
        let user = parse_u32(fields.next()?.strip_prefix(b"u")?)?;
        let url = parse_u32(fields.next()?.strip_prefix(b"/page/")?)?;
        Some(Click { ts, user, url })
    }

    /// One way to damage (or merely decorate) a line; `at` and `with`
    /// pick where and with what.
    fn mutate(line: &[u8], how: u8, at: usize, with: u8) -> Vec<u8> {
        let mut out = line.to_vec();
        let at = at % (out.len() + 1);
        let tabs: Vec<usize> = (0..out.len()).filter(|&i| out[i] == b'\t').collect();
        match how % 12 {
            0 => out.insert(at, with),
            1 if at < out.len() => out[at] = with,
            2 if at < out.len() => drop(out.remove(at)),
            3 => out.truncate(at),
            // Empty a field: drop everything between two separators.
            4 => drop(out.drain(..tabs[0])),
            5 => drop(out.drain((tabs[0] + 2).min(tabs[1])..tabs[1])),
            6 => out.truncate(tabs[1] + 7),
            // Zero padding, before a number of any size.
            7 => drop(out.splice(0..0, vec![b'0'; at % 30])),
            8 => drop(out.splice(tabs[0] + 2..tabs[0] + 2, vec![b'0'; at % 30])),
            // Trailing material a split on tabs ignores.
            9 => out.extend_from_slice(b"\tGET\t200"),
            10 => out.push(b'\t'),
            11 => out.push(with),
            _ => {}
        }
        out
    }

    proptest! {
        #[test]
        fn from_text_agrees_with_the_split_parser_on_valid_lines(
            ts in any::<u32>(), user in any::<u32>(), url in any::<u32>(),
        ) {
            let c = Click { ts, user, url };
            let line = c.to_text();
            prop_assert_eq!(&line, &format!("{ts}\tu{user}\t/page/{url}").into_bytes());
            prop_assert_eq!(line.capacity(), line.len());
            prop_assert_eq!(Click::from_text(&c.to_text()), Some(c));
            prop_assert_eq!(split_and_parse(&c.to_text()), Some(c));
        }

        #[test]
        fn from_text_agrees_with_the_split_parser_on_mutated_lines(
            fields in (any::<u32>(), 0u32..100_000, any::<u32>()),
            edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
        ) {
            let (ts, user, url) = fields;
            let mut line = Click { ts, user, url }.to_text();
            for (how, at, with) in edits {
                if line.iter().filter(|&&b| b == b'\t').count() < 2 {
                    break;
                }
                line = mutate(&line, how, at, with);
                prop_assert_eq!(
                    Click::from_text(&line),
                    split_and_parse(&line),
                    "line {:?}",
                    String::from_utf8_lossy(&line)
                );
            }
        }
    }

    /// Every kind of line the mutations reach, spelled out (the vendored
    /// proptest does not replay regression files).
    #[test]
    fn from_text_agrees_with_the_split_parser_case_by_case() {
        let accepted: [(&[u8], [u32; 3]); 8] = [
            (b"1\tu2\t/page/3", [1, 2, 3]),
            (b"0\tu0\t/page/0", [0, 0, 0]),
            (b"4294967295\tu4294967295\t/page/4294967295", [u32::MAX; 3]),
            (b"0000000000000000000000007\tu2\t/page/3", [7, 2, 3]),
            (
                b"1\tu0000000000000004294967295\t/page/0000000000000000000000000",
                [1, u32::MAX, 0],
            ),
            (b"1\tu2\t/page/3\tGET", [1, 2, 3]),
            (b"1\tu2\t/page/3\t", [1, 2, 3]),
            (b"1\tu2\t/page/3\t\t\xff", [1, 2, 3]),
        ];
        for (line, [ts, user, url]) in accepted {
            let want = Some(Click { ts, user, url });
            assert_eq!(Click::from_text(line), want, "{}", line.escape_ascii());
            assert_eq!(split_and_parse(line), want, "{}", line.escape_ascii());
        }
        let rejected: [&[u8]; 24] = [
            b"",
            b"\t",
            b"\t\t",
            b"1",
            b"1\t",
            b"1\tu2",
            b"1\tu2\t",
            b"\tu2\t/page/3",
            b"1\tu\t/page/3",
            b"1\tu2\t/page/",
            b"1\t2\t/page/3",
            b"1\tu2\tpage/3",
            b"1\tu2\t/page3",
            b"1\tu2\t3",
            b"1\tU2\t/page/3",
            b"1x\tu2\t/page/3",
            b"1\tu2x\t/page/3",
            b"1\tu2\t/page/3x",
            b"1\tu-2\t/page/3",
            b" 1\tu2\t/page/3",
            b"1 \tu2\t/page/3",
            b"4294967296\tu2\t/page/3",
            b"1\tu04294967296\t/page/3",
            b"1\tu2\t/page/1000000000000000000000000",
        ];
        for line in rejected {
            assert_eq!(Click::from_text(line), None, "{}", line.escape_ascii());
            assert_eq!(split_and_parse(line), None, "{}", line.escape_ascii());
        }
        // A number that wraps a u64 back under 2^32 is still too long.
        let wrapped = format!("1\tu{}\t/page/3", (1u128 << 64) + 5);
        assert_eq!(Click::from_text(wrapped.as_bytes()), None);
        assert_eq!(split_and_parse(wrapped.as_bytes()), None);
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
