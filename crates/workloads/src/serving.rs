//! The standard serving catalog: every paper workload as a named
//! streaming query for the multi-tenant front-end (`onepass serve`).
//!
//! Queries are tagged with the ingest family they consume — the click
//! stream ([`CLICKS_INGEST`]) or the document stream ([`DOCS_INGEST`]) —
//! so a server multiplexing both streams feeds each session only records
//! its map function understands. The per-query jobs are byte-identical to
//! the batch presets `onepass run`/`onepass plan` use, which is what
//! makes a tenant's served finals comparable (byte-for-byte) to a solo
//! batch run over the same records.

use std::sync::Arc;

use onepass_core::error::Result;
use onepass_groupby::PeriodicCount;
use onepass_runtime::serve::{QueryCatalog, StreamingQuery};
use onepass_runtime::ReduceBackend;

use crate::{inverted_index, page_frequency, per_user_count, sessionization, top_k};

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

/// Swap stage 0's reduce backend for incremental hash with a periodic
/// early-answer policy. The backends all produce byte-identical *final*
/// answers (the engine's determinism suite pins that), so this changes
/// when answers surface, never what they say.
fn with_periodic_early(mut q: StreamingQuery, every: u64) -> StreamingQuery {
    if every > 0 {
        q.stages[0].backend = ReduceBackend::IncHash {
            early: Some(Arc::new(PeriodicCount(every))),
        };
    }
    q
}

/// Build the standard catalog: the four Table-I workloads, the two
/// multi-stage query plans, and the broadcast clicks ⋈ users join, each
/// under the name `onepass run`/`onepass plan` knows it by.
pub fn standard_catalog(config: CatalogConfig) -> QueryCatalog {
    let CatalogConfig {
        reducers,
        k,
        early_every,
        join_users,
    } = config;
    let mut cat = QueryCatalog::new();
    cat.register("sessionization", move || {
        Ok(StreamingQuery::single(
            sessionization::job()
                .reducers(reducers)
                .preset_onepass()
                .build()?,
        )
        .with_ingest(CLICKS_INGEST))
    });
    cat.register("page-frequency", move || {
        Ok(with_periodic_early(
            StreamingQuery::single(
                page_frequency::job()
                    .reducers(reducers)
                    .preset_onepass()
                    .build()?,
            )
            .with_ingest(CLICKS_INGEST),
            early_every,
        ))
    });
    cat.register("per-user-count", move || {
        Ok(with_periodic_early(
            StreamingQuery::single(
                per_user_count::job()
                    .reducers(reducers)
                    .preset_onepass()
                    .build()?,
            )
            .with_ingest(CLICKS_INGEST),
            early_every,
        ))
    });
    cat.register("top-k", move || {
        Ok(with_periodic_early(
            StreamingQuery::from_plan(&top_k::plan(k, reducers)?)?.with_ingest(CLICKS_INGEST),
            early_every,
        ))
    });
    cat.register("inverted-index", move || {
        Ok(StreamingQuery::single(
            inverted_index::job()
                .reducers(reducers)
                .preset_onepass()
                .build()?,
        )
        .with_ingest(DOCS_INGEST))
    });
    cat.register("join", move || {
        Ok(StreamingQuery::single(
            crate::join::streaming_job(join_users)
                .reducers(reducers)
                .preset_onepass()
                .build()?,
        )
        .with_ingest(CLICKS_INGEST))
    });
    cat.register("df-histogram", move || {
        Ok(
            StreamingQuery::from_plan(&inverted_index::df_histogram_plan(reducers)?)?
                .with_ingest(DOCS_INGEST),
        )
    });
    cat
}

/// The ingest family `query` consumes, per the standard catalog.
pub fn ingest_family(query: &str) -> &'static str {
    match query {
        "inverted-index" | "df-histogram" => DOCS_INGEST,
        _ => CLICKS_INGEST,
    }
}

/// Resolve + sanity-check every catalog entry (used by tests and the
/// CLI's `workloads` listing).
pub fn validate_catalog(cat: &QueryCatalog) -> Result<()> {
    for name in cat.names() {
        cat.resolve(&name)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_registers_all_queries_and_they_compile() {
        let cat = standard_catalog(CatalogConfig::default());
        assert_eq!(
            cat.names(),
            vec![
                "df-histogram",
                "inverted-index",
                "join",
                "page-frequency",
                "per-user-count",
                "sessionization",
                "top-k",
            ]
        );
        validate_catalog(&cat).unwrap();
        // Multi-stage plans compile to cascades with routes.
        let topk = cat.resolve("top-k").unwrap();
        assert_eq!(topk.stages.len(), 2);
        assert_eq!(topk.ingest, CLICKS_INGEST);
        let dfh = cat.resolve("df-histogram").unwrap();
        assert_eq!(dfh.stages.len(), 2);
        assert_eq!(dfh.ingest, DOCS_INGEST);
    }

    #[test]
    fn ingest_family_matches_catalog_tags() {
        let cat = standard_catalog(CatalogConfig::default());
        for name in cat.names() {
            assert_eq!(cat.resolve(&name).unwrap().ingest, ingest_family(&name));
        }
    }
}
