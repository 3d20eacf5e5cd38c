//! Pure-Rust references the program's outputs are checked against. They
//! share no code with the engine: their own line parser, a `BTreeMap`
//! group-by, and the output encodings re-derived from the workload docs.

use std::collections::BTreeMap;

use onepass_groupby::EmitKind;
use onepass_runtime::JobReport;

/// Final `(key, value)` pairs sorted by key.
pub type Finals = Vec<(Vec<u8>, Vec<u8>)>;

fn parse_u32(bytes: &[u8]) -> Option<u32> {
    std::str::from_utf8(bytes).ok()?.parse().ok()
}

/// Parse `"<ts>\tu<user>\t/page/<url>"` into `(ts, user, url)`.
fn parse_click(line: &[u8]) -> Option<(u32, u32, u32)> {
    let mut fields = line.splitn(3, |&b| b == b'\t');
    let ts = parse_u32(fields.next()?)?;
    let user = parse_u32(fields.next()?.strip_prefix(b"u")?)?;
    let url = parse_u32(fields.next()?.strip_prefix(b"/page/")?)?;
    Some((ts, user, url))
}

/// Sessionization: per user, clicks ordered by `(ts, url)` and cut where
/// the idle gap exceeds `gap_s`; each session is `[u32 n][(u32 ts, u32
/// url) * n]`, sessions concatenated. Key is the user id, `u32` LE.
pub fn sessionize(records: &[Vec<u8>], gap_s: u32) -> Finals {
    let mut by_user: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
    for r in records {
        let (ts, user, url) = parse_click(r).expect("generated clicks parse");
        by_user.entry(user).or_default().push((ts, url));
    }
    let mut out: Finals = by_user
        .into_iter()
        .map(|(user, mut clicks)| {
            clicks.sort_unstable();
            let mut value = Vec::with_capacity(clicks.len() * 8 + 16);
            let mut start = 0;
            for i in 1..=clicks.len() {
                if i == clicks.len() || clicks[i].0.saturating_sub(clicks[i - 1].0) > gap_s {
                    value.extend_from_slice(&((i - start) as u32).to_le_bytes());
                    for &(ts, url) in &clicks[start..i] {
                        value.extend_from_slice(&ts.to_le_bytes());
                        value.extend_from_slice(&url.to_le_bytes());
                    }
                    start = i;
                }
            }
            (user.to_le_bytes().to_vec(), value)
        })
        .collect();
    out.sort();
    out
}

/// Per-user click count: key user id `u32` LE, value count `u64` LE.
pub fn per_user_count(records: &[Vec<u8>]) -> Finals {
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    for r in records {
        let (_, user, _) = parse_click(r).expect("generated clicks parse");
        *counts.entry(user).or_default() += 1;
    }
    let mut out: Finals = counts
        .into_iter()
        .map(|(user, n)| (user.to_le_bytes().to_vec(), n.to_le_bytes().to_vec()))
        .collect();
    out.sort();
    out
}

/// A report's final answers, sorted by key.
pub fn sorted_finals(report: &JobReport) -> Finals {
    let mut out: Finals = report
        .outputs
        .iter()
        .filter(|o| o.kind == EmitKind::Final)
        .map(|o| (o.key.clone(), o.value.clone()))
        .collect();
    out.sort();
    out
}

/// Where `got` first departs from `want`, as a one-line message.
pub fn first_mismatch(got: &Finals, want: &Finals) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "{} groups, reference has {}",
            got.len(),
            want.len()
        ));
    }
    got.iter().zip(want).position(|(g, w)| g != w).map(|i| {
        format!(
            "group {i} (key {:02x?}) differs from the reference",
            want[i].0
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn click(ts: u32, user: u32, url: u32) -> Vec<u8> {
        format!("{ts}\tu{user}\t/page/{url}").into_bytes()
    }

    #[test]
    fn sessionize_orders_and_cuts_at_gaps() {
        let recs = vec![
            click(1000, 7, 3),
            click(100, 7, 1),
            click(250, 7, 2),
            click(5, 2, 9),
        ];
        let out = sessionize(&recs, 200);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 2u32.to_le_bytes());
        let mut want = Vec::new();
        for session in [&[(100u32, 1u32), (250, 2)][..], &[(1000, 3)][..]] {
            want.extend_from_slice(&(session.len() as u32).to_le_bytes());
            for (ts, url) in session {
                want.extend_from_slice(&ts.to_le_bytes());
                want.extend_from_slice(&url.to_le_bytes());
            }
        }
        assert_eq!(out[1], (7u32.to_le_bytes().to_vec(), want));
    }

    #[test]
    fn per_user_count_counts() {
        let recs = vec![click(1, 7, 1), click(2, 7, 1), click(3, 8, 1)];
        assert_eq!(
            per_user_count(&recs),
            vec![
                (7u32.to_le_bytes().to_vec(), 2u64.to_le_bytes().to_vec()),
                (8u32.to_le_bytes().to_vec(), 1u64.to_le_bytes().to_vec()),
            ]
        );
    }

    #[test]
    fn mismatch_names_the_first_difference() {
        let a: Finals = vec![(vec![1], vec![1]), (vec![2], vec![2])];
        let mut b = a.clone();
        assert_eq!(first_mismatch(&a, &b), None);
        b[1].1 = vec![9];
        assert!(first_mismatch(&a, &b).unwrap().contains("group 1"));
        b.pop();
        assert!(first_mismatch(&a, &b).unwrap().contains("reference has 1"));
    }
}
