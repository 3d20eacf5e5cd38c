//! Sessionization — the paper's flagship click-stream workload.
//!
//! "An important task is sessionization, which reorders click logs into
//! individual user sessions. Its MapReduce program employs the map
//! function to extract the url and user id from each click log, then
//! groups click logs by user id, and implements the sessionization
//! algorithm in the reduce function. A key feature of this task is a
//! large amount of intermediate data" (§III-A).
//!
//! * Map: parse a click, emit `(user, (ts, url))` — 8-byte values, so the
//!   intermediate volume ≈ input volume (no combiner exists).
//! * Reduce ([`SessionizeAgg`]): collect a user's clicks, order by time,
//!   split where the idle gap exceeds the threshold, emit the session
//!   list.

use std::sync::Arc;

use onepass_groupby::{Aggregator, StateBuf};
use onepass_runtime::{JobSpec, JobSpecBuilder, MapEmitter, MapFn};

use crate::clickgen::Click;

/// Default session gap: 30 minutes.
pub const DEFAULT_GAP_S: u32 = 30 * 60;

/// Map function over text click logs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionizeMapText;

impl MapFn for SessionizeMapText {
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        if let Some(c) = Click::from_text(record) {
            emit_click(c, out);
        }
    }
}

fn emit_click(c: Click, out: &mut dyn MapEmitter) {
    let mut value = [0u8; 8];
    value[..4].copy_from_slice(&c.ts.to_le_bytes());
    value[4..].copy_from_slice(&c.url.to_le_bytes());
    out.emit(&c.user.to_le_bytes(), &value);
}

/// The sessionization reduce function as an aggregate: state is the
/// concatenation of 8-byte `(ts, url)` entries; `finish` orders them and
/// splits into sessions.
///
/// Holistic (`combinable() == false`): partial aggregation cannot shrink
/// the data, exactly why this workload has 250% intermediate-to-input
/// volume in Table I.
#[derive(Debug, Clone, Copy)]
pub struct SessionizeAgg {
    /// Idle gap (seconds) that separates two sessions.
    pub gap_s: u32,
}

impl Default for SessionizeAgg {
    fn default() -> Self {
        SessionizeAgg {
            gap_s: DEFAULT_GAP_S,
        }
    }
}

impl SessionizeAgg {
    /// Decode a finished session list: `Vec` of sessions, each a `Vec`
    /// of `(ts, url)`.
    pub fn decode_sessions(out: &[u8]) -> Vec<Vec<(u32, u32)>> {
        let mut sessions = Vec::new();
        let mut pos = 0;
        while pos + 4 <= out.len() {
            let n = u32::from_le_bytes(out[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            let mut session = Vec::with_capacity(n);
            for _ in 0..n {
                let ts = u32::from_le_bytes(out[pos..pos + 4].try_into().unwrap());
                let url = u32::from_le_bytes(out[pos + 4..pos + 8].try_into().unwrap());
                session.push((ts, url));
                pos += 8;
            }
            sessions.push(session);
        }
        sessions
    }
}

impl Aggregator for SessionizeAgg {
    fn init(&self, _key: &[u8], value: &[u8]) -> StateBuf {
        StateBuf::from_slice(value)
    }

    fn update(&self, _key: &[u8], state: &mut StateBuf, value: &[u8]) {
        state.extend_from_slice(value);
    }

    fn merge(&self, _key: &[u8], state: &mut StateBuf, other: &[u8]) {
        state.extend_from_slice(other);
    }

    fn finish(&self, _key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        // Decode, order by timestamp, split at gaps.
        let mut clicks: Vec<(u32, u32)> = state
            .chunks_exact(8)
            .map(|c| {
                (
                    u32::from_le_bytes(c[0..4].try_into().unwrap()),
                    u32::from_le_bytes(c[4..8].try_into().unwrap()),
                )
            })
            .collect();
        clicks.sort_unstable();
        out.reserve(state.len() + 16);
        let mut session_start = 0usize;
        for i in 1..=clicks.len() {
            let boundary =
                i == clicks.len() || clicks[i].0.saturating_sub(clicks[i - 1].0) > self.gap_s;
            if boundary {
                let session = &clicks[session_start..i];
                out.extend_from_slice(&(session.len() as u32).to_le_bytes());
                for &(ts, url) in session {
                    out.extend_from_slice(&ts.to_le_bytes());
                    out.extend_from_slice(&url.to_le_bytes());
                }
                session_start = i;
            }
        }
    }

    fn combinable(&self) -> bool {
        false
    }
}

/// Job builder preset: sessionization over text click logs.
pub fn job() -> JobSpecBuilder {
    JobSpec::builder("sessionization")
        .map_fn(Arc::new(SessionizeMapText))
        .aggregate(Arc::new(SessionizeAgg::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(clicks: &[(u32, u32)]) -> Vec<u8> {
        let mut s = Vec::new();
        for &(ts, url) in clicks {
            s.extend_from_slice(&ts.to_le_bytes());
            s.extend_from_slice(&url.to_le_bytes());
        }
        s
    }

    fn finished(agg: &SessionizeAgg, state: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        agg.finish(b"u", state, &mut out);
        out
    }

    #[test]
    fn splits_on_gap() {
        let agg = SessionizeAgg { gap_s: 200 };
        // Out-of-order input; only the 250 -> 1000 gap exceeds 200 s.
        let state = enc(&[(1000, 3), (100, 1), (250, 2)]);
        let out = finished(&agg, &state);
        let sessions = SessionizeAgg::decode_sessions(&out);
        assert_eq!(sessions, vec![vec![(100, 1), (250, 2)], vec![(1000, 3)]]);
    }

    #[test]
    fn single_session_when_no_gap() {
        let agg = SessionizeAgg { gap_s: 1000 };
        let state = enc(&[(10, 1), (20, 2), (30, 3)]);
        let sessions = SessionizeAgg::decode_sessions(&finished(&agg, &state));
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].len(), 3);
    }

    #[test]
    fn empty_state_yields_no_sessions() {
        let agg = SessionizeAgg::default();
        let out = finished(&agg, &[]);
        assert!(SessionizeAgg::decode_sessions(&out).is_empty());
    }

    #[test]
    fn update_and_merge_concatenate() {
        let agg = SessionizeAgg::default();
        let mut s = agg.init(b"u", &enc(&[(5, 1)]));
        agg.update(b"u", &mut s, &enc(&[(9, 2)]));
        let other = agg.init(b"u", &enc(&[(7, 3)]));
        agg.merge(b"u", &mut s, &other);
        assert_eq!(s.len(), 24);
        assert!(!agg.combinable());
    }

    #[test]
    fn map_emits_one_user_keyed_pair_per_click() {
        use onepass_runtime::MapEmitter;
        struct Cap(Vec<(Vec<u8>, Vec<u8>)>);
        impl MapEmitter for Cap {
            fn emit(&mut self, k: &[u8], v: &[u8]) {
                self.0.push((k.to_vec(), v.to_vec()));
            }
        }
        let c = Click {
            ts: 777,
            user: 5,
            url: 42,
        };
        let mut a = Cap(Vec::new());
        SessionizeMapText.map(&c.to_text(), &mut a);
        assert_eq!(a.0.len(), 1);
        assert_eq!(a.0[0].0, 5u32.to_le_bytes().to_vec());

        // Garbage records emit nothing.
        let mut g = Cap(Vec::new());
        SessionizeMapText.map(b"garbage line", &mut g);
        assert!(g.0.is_empty());
    }

    /// The §V operator on the §V workload: Zipf clicks, a holistic
    /// aggregate, an eighth of the memory the states need. Frequent-hash
    /// must agree with sort-merge byte for byte, stay within a quarter of
    /// its budget, and get there in few eviction rounds: a round frees a
    /// byte target (a fifth of the budget, from a tenth over to a tenth
    /// under), and this stream carries about eight budgets of state, so
    /// about forty rounds. Rounds sized in keys took 146 here.
    #[test]
    fn freq_hash_under_an_eighth_of_the_budget_matches_sort_merge_in_few_rounds() {
        use crate::clickgen::{ClickGen, ClickGenConfig};
        use onepass_core::io::{SharedMemStore, SpillStore};
        use onepass_core::memory::MemoryBudget;
        use onepass_core::SegmentBuf;
        use onepass_groupby::{FreqHashGrouper, GroupBy, SortMergeGrouper, VecSink};

        let clicks = ClickGen::new(ClickGenConfig {
            users: 3_000,
            user_skew: 1.15,
            ..ClickGenConfig::default()
        })
        .text_records(100_000);
        struct Pairs(Vec<(Vec<u8>, Vec<u8>)>);
        impl MapEmitter for Pairs {
            fn emit(&mut self, k: &[u8], v: &[u8]) {
                self.0.push((k.to_vec(), v.to_vec()));
            }
        }
        let mut pairs = Pairs(Vec::new());
        for line in &clicks {
            SessionizeMapText.map(line, &mut pairs);
        }
        let batches: Vec<SegmentBuf> = pairs
            .0
            .chunks(4096)
            .map(|c| SegmentBuf::from_pairs(c.iter().map(|(k, v)| (&k[..], &v[..]))))
            .collect();
        let agg: Arc<dyn Aggregator> = Arc::new(SessionizeAgg::default());
        let store = || -> Arc<dyn SpillStore> { Arc::new(SharedMemStore::new()) };
        let finals = |op: &mut dyn GroupBy| {
            let mut sink = VecSink::default();
            for batch in &batches {
                op.push_batch(batch, &mut sink).unwrap();
            }
            let stats = op.finish(&mut sink).unwrap();
            let mut out: Vec<(Vec<u8>, Vec<u8>)> = sink
                .emitted
                .into_iter()
                .filter(|(_, _, kind)| *kind == onepass_groupby::EmitKind::Final)
                .map(|(k, v, _)| (k, v))
                .collect();
            out.sort();
            (out, stats)
        };

        let mut fit = FreqHashGrouper::new(store(), MemoryBudget::unlimited(), Arc::clone(&agg));
        let (reference, fit_stats) = finals(&mut fit);
        assert_eq!(fit_stats.io.bytes_written, 0);
        let tight = fit_stats.peak_mem / 8;

        let mut sm =
            SortMergeGrouper::new(store(), MemoryBudget::new(tight), 10, Arc::clone(&agg)).unwrap();
        let (sm_out, _) = finals(&mut sm);
        assert_eq!(sm_out, reference);

        let mut fh = FreqHashGrouper::new(store(), MemoryBudget::new(tight), agg);
        let (fh_out, fh_stats) = finals(&mut fh);
        assert_eq!(fh_out, sm_out, "frequent-hash and sort-merge must agree");
        assert!(
            fh_stats.io.bytes_written > 0,
            "an eighth of the budget spills"
        );
        assert!(
            fh.evictions() <= 64,
            "{} eviction rounds for 100k records",
            fh.evictions()
        );
        assert!(
            fh_stats.peak_mem <= tight + tight / 4,
            "peak {} on a {tight}-byte budget",
            fh_stats.peak_mem
        );
    }
}
