//! Inverted-index construction — the web-document workload (Table I
//! column 4, Fig. 3).
//!
//! "The map function extracts (word, (doc id, position)) pairs and the
//! reduce function builds a list of document ids and positions for each
//! word" (§III-A). Intermediate data is smaller than the collection but
//! still substantial (~70% of input including reduce spill).

use std::sync::Arc;

use onepass_core::error::Result;
use onepass_groupby::{Aggregator, StateBuf, SumAgg};
use onepass_runtime::{JobSpec, JobSpecBuilder, MapEmitter, MapFn, PairMap, Plan};

use crate::docgen::parse_doc;

/// One posting: where a word occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Posting {
    /// Document id.
    pub doc: u32,
    /// Word position within the document.
    pub pos: u32,
}

impl Posting {
    fn encode(self) -> [u8; 8] {
        let mut b = [0u8; 8];
        b[..4].copy_from_slice(&self.doc.to_le_bytes());
        b[4..].copy_from_slice(&self.pos.to_le_bytes());
        b
    }

    fn decode(b: &[u8]) -> Posting {
        Posting {
            doc: u32::from_le_bytes(b[0..4].try_into().unwrap()),
            pos: u32::from_le_bytes(b[4..8].try_into().unwrap()),
        }
    }
}

/// Map function: tokenize a document, emit `(word, (doc, pos))`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexMap;

impl MapFn for IndexMap {
    fn map(&self, record: &[u8], out: &mut dyn MapEmitter) {
        let Some((doc, words)) = parse_doc(record) else {
            return;
        };
        for (pos, word) in words.enumerate() {
            out.emit(
                word,
                &Posting {
                    doc,
                    pos: pos as u32,
                }
                .encode(),
            );
        }
    }
}

/// The index-building reduce function: collect postings, sort by
/// `(doc, pos)`, emit the posting list. Holistic — no combiner can shrink
/// it (every posting must survive).
#[derive(Debug, Clone, Copy, Default)]
pub struct PostingListAgg;

impl PostingListAgg {
    /// Decode a finished posting list.
    pub fn decode(out: &[u8]) -> Vec<Posting> {
        out.chunks_exact(8).map(Posting::decode).collect()
    }
}

impl Aggregator for PostingListAgg {
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
        let mut postings = Self::decode(state);
        postings.sort_unstable();
        out.reserve(state.len());
        for p in postings {
            out.extend_from_slice(&p.encode());
        }
    }

    fn combinable(&self) -> bool {
        false
    }
}

/// Job builder preset: inverted-index construction.
pub fn job() -> JobSpecBuilder {
    JobSpec::builder("inverted-index")
        .map_fn(Arc::new(IndexMap))
        .aggregate(Arc::new(PostingListAgg))
}

/// Count the distinct documents in a finished posting list. The list is
/// sorted by `(doc, pos)`, so distinct docs are doc-id transitions.
pub fn document_frequency(postings: &[Posting]) -> u64 {
    let mut df = 0u64;
    let mut last = None;
    for p in postings {
        if last != Some(p.doc) {
            df += 1;
            last = Some(p.doc);
        }
    }
    df
}

/// Two-stage query plan: build the inverted index, then histogram its
/// document frequencies — "how many words appear in exactly n docs".
///
/// Stage 1 is the holistic [`job`] above. Stage 2 consumes each
/// `(word, posting list)` final as a decoded pair, counts the distinct
/// docs in the list, and sums per df bucket: `(df as u64 LE, count)`
/// finals. The second stage is tiny next to the first, so a pipelined
/// run folds buckets while posting lists are still being built.
pub fn df_histogram_plan(index_reducers: usize) -> Result<Plan> {
    let index = job().reducers(index_reducers).preset_onepass().build()?;
    let histogram = JobSpec::builder("df-histogram")
        .aggregate(Arc::new(SumAgg))
        .reducers(1)
        .preset_onepass()
        .build()?;
    let bucket: Arc<dyn PairMap> =
        Arc::new(|_word: &[u8], list: &[u8], out: &mut dyn MapEmitter| {
            let df = document_frequency(&PostingListAgg::decode(list));
            out.emit(&df.to_le_bytes(), &1u64.to_le_bytes());
        });
    let mut b = Plan::builder();
    let s1 = b.add_stage(index);
    let s2 = b.add_pair_stage(histogram, bucket);
    b.connect(s1, s2);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_runtime::Engine;
    use std::collections::HashMap;

    #[test]
    fn posting_roundtrip_and_sort() {
        let agg = PostingListAgg;
        let mut state = agg.init(b"w", &Posting { doc: 2, pos: 5 }.encode());
        agg.update(b"w", &mut state, &Posting { doc: 1, pos: 9 }.encode());
        agg.update(b"w", &mut state, &Posting { doc: 1, pos: 3 }.encode());
        let mut out = Vec::new();
        agg.finish(b"w", &state, &mut out);
        let postings = PostingListAgg::decode(&out);
        assert_eq!(
            postings,
            vec![
                Posting { doc: 1, pos: 3 },
                Posting { doc: 1, pos: 9 },
                Posting { doc: 2, pos: 5 },
            ]
        );
    }

    #[test]
    fn index_matches_brute_force() {
        let mut gen = crate::docgen::DocGen::new(crate::docgen::DocGenConfig {
            vocabulary: 100,
            min_words: 10,
            max_words: 30,
            ..Default::default()
        });
        let docs = gen.records(40);
        // Brute-force reference index.
        let mut truth: HashMap<Vec<u8>, Vec<Posting>> = HashMap::new();
        for d in &docs {
            let (doc, words) = parse_doc(d).unwrap();
            for (pos, w) in words.enumerate() {
                truth.entry(w.to_vec()).or_default().push(Posting {
                    doc,
                    pos: pos as u32,
                });
            }
        }
        for v in truth.values_mut() {
            v.sort_unstable();
        }

        let splits = crate::make_splits(docs, 8);
        let job = job().reducers(3).preset_hadoop().build().unwrap();
        let report = Engine::new().run(&job, splits).unwrap();
        let mut got: HashMap<Vec<u8>, Vec<Posting>> = HashMap::new();
        for o in &report.outputs {
            got.insert(o.key.clone(), PostingListAgg::decode(&o.value));
        }
        assert_eq!(got.len(), truth.len(), "vocabulary coverage");
        for (w, t) in truth {
            assert_eq!(got[&w], t, "postings for {:?}", String::from_utf8_lossy(&w));
        }
    }

    #[test]
    fn df_histogram_plan_matches_brute_force() {
        use std::collections::BTreeMap;

        let mut gen = crate::docgen::DocGen::new(crate::docgen::DocGenConfig {
            vocabulary: 120,
            min_words: 10,
            max_words: 40,
            ..Default::default()
        });
        let docs = gen.records(60);
        // Brute force: docs-per-word, then histogram of those counts.
        let mut word_docs: HashMap<Vec<u8>, Vec<u32>> = HashMap::new();
        for d in &docs {
            let (doc, words) = parse_doc(d).unwrap();
            for w in words {
                word_docs.entry(w.to_vec()).or_default().push(doc);
            }
        }
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        for ids in word_docs.values_mut() {
            ids.sort_unstable();
            ids.dedup();
            *truth.entry(ids.len() as u64).or_default() += 1;
        }

        let splits = crate::make_splits(docs, 8);
        let plan = df_histogram_plan(3).unwrap();
        let engine = Engine::new();
        let report = engine.run_plan(&plan, splits).unwrap();
        let hist: BTreeMap<u64, u64> = report
            .sorted_final_outputs()
            .into_iter()
            .map(|(k, v)| {
                (
                    u64::from_le_bytes(k.as_slice().try_into().unwrap()),
                    u64::from_le_bytes(v.as_slice().try_into().unwrap()),
                )
            })
            .collect();
        assert_eq!(hist, truth);
    }
}
