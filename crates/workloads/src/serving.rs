//! The standard serving catalog: every served row of the workload
//! [`catalog`](crate::catalog) as a named streaming query for the
//! multi-tenant front-end (`onepass serve`).
//!
//! Queries are tagged with the ingest family they consume — the click
//! stream ([`CLICKS_INGEST`]) or the document stream ([`DOCS_INGEST`]) —
//! so a server multiplexing both streams feeds each session only records
//! its map function understands. The per-query jobs are byte-identical to
//! the batch presets `onepass run`/`onepass plan` use, which is what
//! makes a tenant's served finals comparable (byte-for-byte) to a solo
//! batch run over the same records.

use onepass_runtime::serve::QueryCatalog;

use crate::catalog::{self, Input, Workload, CATALOG};

/// Ingest family tag for text click records ([`ClickGen`](crate::ClickGen)).
pub const CLICKS_INGEST: &str = "clicks";

/// Ingest family tag for text document records ([`DocGen`](crate::DocGen)).
pub const DOCS_INGEST: &str = "docs";

/// Serving knobs the catalog's queries take.
#[derive(Debug, Clone, Copy)]
pub struct CatalogConfig {
    /// Reducers per stage-0 job (partitions per session; small keeps the
    /// lease count down).
    pub reducers: usize,
    /// `k` for the exact top-k query.
    pub k: usize,
    /// Count-based queries refresh a hot group's early answer every time
    /// its count reaches a multiple of this (0 disables early answers).
    pub early_every: u64,
    /// User-dimension rows the broadcast `join` query bakes into its
    /// map side ([`crate::join::streaming_job`]).
    pub join_users: usize,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            reducers: 2,
            k: 10,
            early_every: 256,
            join_users: 1000,
        }
    }
}

/// Build the standard catalog: every served row of [`CATALOG`], under
/// its row name.
pub fn standard_catalog(config: CatalogConfig) -> QueryCatalog {
    let mut cat = QueryCatalog::new();
    for w in CATALOG.iter().filter(|w| w.is_served()) {
        cat.register(w.name, move || w.query(config));
    }
    cat
}

/// The ingest family `query` consumes, per the standard catalog.
pub fn ingest_family(query: &str) -> &'static str {
    catalog::find(query)
        .and_then(Workload::input)
        .map_or(CLICKS_INGEST, Input::ingest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_family_matches_catalog_tags() {
        let cat = standard_catalog(CatalogConfig::default());
        for name in cat.names() {
            assert_eq!(cat.resolve(&name).unwrap().ingest, ingest_family(&name));
        }
    }
}
