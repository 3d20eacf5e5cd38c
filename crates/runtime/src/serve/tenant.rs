//! One query's live state: a cascade of [`StreamSession`]s plus a
//! dead-letter queue. The server runs one per (query, start offset) and
//! every tenant subscribed to it receives its answers; run alone, it is
//! the solo reference a served tenant must match.
//!
//! Stage 0 stays open against the shared ingest stream and produces the
//! *early* answers (the paper's incremental-hash payoff). At close, each
//! stage's finals pour into the next stage's session as pairs
//! ([`StreamSession::feed_pairs`]) — the streaming equivalent of a
//! pipelined plan edge — and the last stage's finals are the answer.
//!
//! Poison containment: a record whose map function panics is isolated by
//! re-feeding the offending batch record-by-record (the map phase runs
//! before any grouper state is touched, so a map panic leaves the session
//! clean), quarantined in the DLQ, and retried at later feed boundaries.

use onepass_core::error::{Error, Result};
use onepass_groupby::{EmitKind, OpStats};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::stream::{SessionOptions, StreamAnswer, StreamSession};

use super::dlq::{DeadLetterQueue, DlqConfig};
use super::query::StreamingQuery;

/// Everything a tenant's close produces. Tenants sharing a session share
/// one of these: the answers, the record count and the DLQ accounting
/// are the session's (a poison record is poison under the query's map
/// function, whoever subscribed).
#[derive(Debug)]
pub struct TenantClose {
    /// Final answers of the cascade's last stage.
    pub answers: Vec<StreamAnswer>,
    /// Per-partition operator stats across all stages.
    pub stats: Vec<OpStats>,
    /// Records fed into stage 0 of the session this answer covers
    /// (poisons excluded).
    pub records_in: u64,
    /// Records quarantined, ever.
    pub dlq_poisoned: u64,
    /// Quarantined records that recovered on retry.
    pub dlq_recovered: u64,
    /// Quarantined records that exhausted their retries.
    pub dlq_dead: u64,
}

/// An open query: session cascade + DLQ.
pub struct TenantSession {
    /// The tenant that opened it (a shared session's first subscriber).
    id: String,
    query_name: String,
    /// Stage 0, fed the ingest stream: the source of early answers.
    head: StreamSession,
    /// Stages 1.., each fed its predecessor's finals at close.
    rest: Vec<StreamSession>,
    dlq: DeadLetterQueue,
}

impl std::fmt::Debug for TenantSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantSession")
            .field("id", &self.id)
            .field("query", &self.query_name)
            .field("stages", &(1 + self.rest.len()))
            .field("dlq_pending", &self.dlq.pending())
            .finish()
    }
}

impl TenantSession {
    /// Open the cascade for `query` with the given session options (the
    /// serving layer passes a governor lease share here). A query without
    /// stages is a config error.
    pub fn open(
        id: &str,
        query_name: &str,
        query: &StreamingQuery,
        opts: &SessionOptions,
        dlq: DlqConfig,
    ) -> Result<TenantSession> {
        super::install_poison_panic_filter();
        let mut stages = query.open(opts)?.into_iter();
        let head = stages
            .next()
            .ok_or_else(|| Error::Config(format!("query {query_name} has no stages")))?;
        Ok(TenantSession {
            id: id.to_string(),
            query_name: query_name.to_string(),
            head,
            rest: stages.collect(),
            dlq: DeadLetterQueue::new(dlq),
        })
    }

    /// Every stage, head first.
    fn stages(&self) -> impl Iterator<Item = &StreamSession> {
        std::iter::once(&self.head).chain(&self.rest)
    }

    /// Id of the tenant that opened the session.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Query name this tenant subscribed to.
    pub fn query_name(&self) -> &str {
        &self.query_name
    }

    /// Dead-letter queue state.
    pub fn dlq(&self) -> &DeadLetterQueue {
        &self.dlq
    }

    /// Total bytes of governor lease the session holds across stages.
    pub fn lease_bytes(&self) -> usize {
        self.stages().map(|s| s.budget_bytes()).sum()
    }

    /// Move every partition lease of every stage by `delta` bytes: a
    /// tenant joining the session brings its fair share, one leaving
    /// takes it away.
    pub(crate) fn resize_leases(&self, delta: isize) {
        for s in self.stages() {
            s.resize_budgets(delta);
        }
    }

    /// Governor-requested sheds serviced across all stages.
    pub fn shed_stats(&self) -> (u64, u64) {
        self.stages().fold((0, 0), |(n, b), s| {
            let (sn, sb) = s.shed_stats();
            (n + sn, b + sb)
        })
    }

    /// Feed an ingest batch into stage 0; returns any early answers.
    /// Poison records (map panics) are quarantined, not fatal; earlier
    /// quarantined records get one bounded retry per feed boundary.
    pub fn feed(&mut self, records: &[Vec<u8>]) -> Result<Vec<StreamAnswer>> {
        let mut answers = Vec::new();
        let head = &mut self.head;
        let fed = quiet_catch(|| head.feed(records.iter().map(|r| r.as_slice())));
        match fed {
            Ok(res) => answers.extend(res?),
            Err(()) => {
                // A poison is somewhere in the batch. The map phase runs
                // entirely before groupers are touched, so the panicked
                // feed left no partial state — isolate per record.
                for rec in records {
                    match quiet_catch(|| head.feed(std::iter::once(rec.as_slice()))) {
                        Ok(Ok(a)) => answers.extend(a),
                        Ok(Err(e)) => return Err(e),
                        Err(()) => self.dlq.quarantine(rec.clone()),
                    }
                }
            }
        }
        // Bounded retry of earlier poisons at this feed boundary.
        self.dlq.retry_sweep(
            |rec| match quiet_catch(|| head.feed(std::iter::once(rec))) {
                Ok(Ok(a)) => {
                    answers.extend(a);
                    true
                }
                _ => false,
            },
        );
        Ok(answers)
    }

    /// Close the cascade: drain the DLQ's remaining retries, then pour
    /// each stage's finals into the next, returning the last stage's
    /// finals plus stats and DLQ accounting.
    pub fn close(mut self) -> Result<TenantClose> {
        let head = &mut self.head;
        self.dlq
            .drain(|rec| matches!(quiet_catch(|| head.feed(std::iter::once(rec))), Ok(Ok(_))));
        let records_in = self.head.records_in();
        let mut stats = Vec::new();
        let mut finals_of = |stage: StreamSession| -> Result<Vec<StreamAnswer>> {
            let (answers, st) = stage.close()?;
            stats.extend(st);
            Ok(answers
                .into_iter()
                .filter(|a| a.kind == EmitKind::Final)
                .collect())
        };
        let mut finals = finals_of(self.head)?;
        for mut next in self.rest {
            next.feed_pairs(
                finals
                    .iter()
                    .map(|a| (a.key.as_slice(), a.value.as_slice())),
            )?;
            finals = finals_of(next)?;
        }
        Ok(TenantClose {
            answers: finals,
            stats,
            records_in,
            dlq_poisoned: self.dlq.poisoned_total(),
            dlq_recovered: self.dlq.recovered_total(),
            dlq_dead: self.dlq.dead_total(),
        })
    }
}

/// Run `f`, converting a panic into `Err(())` while suppressing the
/// default panic message (the filter installed by
/// [`install_poison_panic_filter`](super::install_poison_panic_filter)).
fn quiet_catch<T>(f: impl FnOnce() -> T) -> std::result::Result<T, ()> {
    super::QUIET_PANICS.with(|q| q.set(true));
    let out = catch_unwind(AssertUnwindSafe(f));
    super::QUIET_PANICS.with(|q| q.set(false));
    out.map_err(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::query::DEFAULT_INGEST;

    #[test]
    fn a_query_without_stages_is_a_config_error() {
        let empty = StreamingQuery {
            stages: vec![],
            ingest: DEFAULT_INGEST.to_string(),
        };
        let opened = TenantSession::open(
            "t0",
            "empty",
            &empty,
            &SessionOptions::default(),
            DlqConfig::default(),
        );
        assert!(matches!(opened, Err(Error::Config(_))), "{opened:?}");
    }
}
