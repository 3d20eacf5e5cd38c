//! The word-count fixture the runtime suites share: its map function, its
//! input, and its answer computed without the engine. Each suite uses a
//! part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;

use onepass_runtime::map_task::Split;
use onepass_runtime::MapEmitter;

/// Emit `(word, 1)` for every space-separated word of `record`.
pub fn word_map(record: &[u8], out: &mut dyn MapEmitter) {
    for w in record.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
        out.emit(w, &1u64.to_le_bytes());
    }
}

/// `count` splits of `records` three-word records each, over 23 + 11
/// distinct words and one that is in every record: every map task and
/// every reducer sees real data.
pub fn splits(count: usize, records: usize) -> Vec<Split> {
    (0..count)
        .map(|s| {
            Split::new(
                (0..records)
                    .map(|i| format!("w{} w{} common", (s * 7 + i) % 23, i % 11).into_bytes())
                    .collect(),
            )
        })
        .collect()
}

/// Word counts of `records`, each value rendered by `value`.
pub fn reference(
    records: &[Vec<u8>],
    value: impl Fn(u64) -> Vec<u8>,
) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut counts: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for r in records {
        for w in r.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            *counts.entry(w.to_vec()).or_default() += 1;
        }
    }
    counts.into_iter().map(|(k, c)| (k, value(c))).collect()
}
