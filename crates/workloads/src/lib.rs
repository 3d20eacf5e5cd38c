//! # onepass-workloads
//!
//! Synthetic data generators and the four workloads of the paper's
//! benchmark (Table I):
//!
//! * **click-stream analysis** (the WorldCup'98 click logs, replicated to
//!   256–508 GB in the paper): [`sessionization`], [`page_frequency`],
//!   [`per_user_count`];
//! * **web-document analysis** (the 427 GB GOV2 crawl):
//!   [`inverted_index`].
//!
//! The generators produce Zipf-skewed synthetic equivalents — what drives
//! every conclusion in the paper is the *volume ratio* of intermediate
//! data to input and the key-frequency skew, both of which are explicit
//! parameters here. Each workload module provides the map function, the
//! reduce aggregate, and a ready-made
//! [`JobSpec`](onepass_runtime::JobSpec) builder. The [`catalog`] names
//! every workload the command line, the serving tier and the experiment
//! drivers take, in one table.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibrate;
pub mod catalog;
pub mod clickgen;
pub mod docgen;
pub mod inverted_index;
pub mod join;
pub mod kmeans;
pub mod page_frequency;
pub mod pagerank;
pub mod per_user_count;
pub mod serving;
pub mod sessionization;
pub mod tenantgen;
pub mod top_k;
pub mod zipf;

pub use clickgen::{ClickGen, ClickGenConfig};
pub use docgen::{DocGen, DocGenConfig};
pub use serving::{standard_catalog, CatalogConfig};
pub use tenantgen::{assign_tenants, TenantGenConfig, TenantSpec};
pub use zipf::Zipf;

use onepass_runtime::map_task::{PackedRecords, Split};

/// Chop `records` into splits of at most `per_split` records each — the
/// workload-side analogue of HDFS 64 MB blocks. The last split holds the
/// remainder. Each split packs its records into one arena, as
/// [`Split::new`] does.
///
/// The splits are cut off the back of `records`: each tail is packed into
/// its split's arena, its records are freed, and the input's record index
/// is shrunk in place, so no block larger than one split's index is ever
/// freed. Freeing a block as large as the whole index (24 MB for a
/// million records) would raise glibc's dynamic mmap threshold, and with
/// it every arena's trim threshold, for the rest of the process.
pub fn make_splits(mut records: Vec<Vec<u8>>, per_split: usize) -> Vec<Split> {
    assert!(per_split > 0);
    let mut splits = Vec::with_capacity(records.len().div_ceil(per_split));
    while !records.is_empty() {
        let at = (records.len() - 1) / per_split * per_split;
        splits.push(Split {
            records: PackedRecords::pack(&records[at..]),
            pairs: None,
            aligned: None,
        });
        records.truncate(at);
        records.shrink_to_fit();
    }
    // Cut back to front: the remainder, cut first, ends up last.
    splits.reverse();
    splits
}

/// The `N` bytes at `bytes[at..at + N]`, for `from_le_bytes` — how the
/// iterative workloads read the words of their fixed-layout records.
///
/// Invariant: those records are built by the workloads themselves — a
/// PageRank state `[u64 rank][u32 deg][u32 dst]*`, a contribution or a
/// rank, a k-means partial `[u64 count][i64 coord]*`, a `u32` node or
/// centroid key — so every word read is in range by construction. A short
/// record is a bug in the workload: the slice index panics (a failed task)
/// rather than decode garbage.
pub(crate) fn le_bytes<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut word = [0; N];
    word.copy_from_slice(&bytes[at..at + N]);
    word
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_splits_covers_all_records() {
        let recs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i]).collect();
        let splits = make_splits(recs, 4);
        assert_eq!(splits.len(), 3);
        assert_eq!(splits[0].records.len(), 4);
        assert_eq!(splits[2].records.len(), 2);
        let total: usize = splits.iter().map(|s| s.records.len()).sum();
        assert_eq!(total, 10);
    }
}
