//! Multi-tenant streaming serving front-end.
//!
//! `serve` turns the one-pass engine from a batch tool into a long-lived
//! front-end: one shared ingest stream serves thousands of concurrent
//! tenant queries. The work is done once per distinct (query, start
//! offset) — a *shared session*, one
//! [`StreamSession`](crate::stream::StreamSession) cascade leasing memory
//! from a single job-wide
//! [`MemoryGovernor`](onepass_core::governor::MemoryGovernor) pool — and
//! its answers fan out to every tenant subscribed to it. The pieces:
//!
//! * [`query`] — named streaming queries ([`StreamingQuery`]) compiled
//!   from jobs or multi-stage [`Plan`](crate::plan::Plan)s, looked up in
//!   a [`QueryCatalog`].
//! * [`admission`] — [`FairShareAdmission`]: a seat-count cap that also
//!   fixes each tenant's fair share of memory (`pool / max_tenants`), the
//!   bytes it brings to the leases of the session it joins, with a
//!   bounded FIFO wait queue and outright rejection beyond it.
//! * [`tenant`] — [`TenantSession`]: one session cascade plus its
//!   dead-letter queue for poison records; [`TenantClose`], what every
//!   subscriber receives at close.
//! * [`dlq`] — [`DeadLetterQueue`]: bounded-retry quarantine; records
//!   that keep panicking the map function are buried, not fatal.
//! * [`server`] — [`Server`]: shard workers owning the shared sessions
//!   and seating tenants in them, backpressure via the engine's
//!   [`PressureGate`](crate::shuffle), per-tenant TTFA / staleness
//!   metrics in the `obs` registry.
//! * [`front`] — a line-oriented TCP face (`SUBSCRIBE`/`EARLY`/`FINAL`)
//!   used by `onepass serve` + `onepass loadgen`.
//!
//! Fairness and correctness contract: every admitted tenant's final
//! answer is byte-identical to running its query solo over the batches
//! fed after it subscribed — sharing a session, governor sheds,
//! backpressure, and poison isolation are all correctness-neutral (sheds
//! spill, never drop; poisons never touch grouper state). A tenant that
//! stops draining its events slows only its own channel.

pub mod admission;
pub mod dlq;
pub mod front;
mod metrics;
pub mod query;
pub mod server;
pub mod tenant;

pub use admission::{AdmissionConfig, AdmissionCounters, AdmissionError, FairShareAdmission};
pub use dlq::{DeadLetterQueue, DlqConfig, DlqEntry};
pub use front::Frontend;
pub use query::{QueryCatalog, QueryFactory, StreamingQuery, DEFAULT_INGEST};
pub use server::{ServeConfig, Server, TenantEvent, TenantHandle};
pub use tenant::{TenantClose, TenantSession};

use std::cell::Cell;
use std::sync::Once;

use onepass_groupby::EmitKind;

use crate::stream::StreamAnswer;

thread_local! {
    /// Set while a poison probe runs so the panic filter stays quiet —
    /// a poison record is expected traffic, not a crash worth a
    /// backtrace per record.
    pub(crate) static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

static PANIC_FILTER: Once = Once::new();

/// Install (once, process-wide) a panic hook that delegates to the
/// previous hook unless the current thread is inside a quiet poison
/// probe. Serving a deliberately poisoned stream would otherwise print
/// one panic message per poisoned record per retry.
pub(crate) fn install_poison_panic_filter() {
    PANIC_FILTER.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                previous(info);
            }
        }));
    });
}

/// A tenant's final answers in the `--dump-out` format
/// ([`dump_pairs`](crate::report::dump_pairs)). Byte-equality of two
/// dumps is the serving layer's isolation check.
pub fn dump_final_answers(answers: &[StreamAnswer]) -> String {
    crate::report::dump_pairs(
        answers
            .iter()
            .filter(|a| a.kind == EmitKind::Final)
            .map(|a| (&a.key[..], &a.value[..])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_matches_cli_dump_format() {
        let answers = vec![
            StreamAnswer {
                key: b"zebra".to_vec(),
                value: vec![0x02, 0x00],
                kind: EmitKind::Final,
            },
            StreamAnswer {
                key: b"apple".to_vec(),
                value: vec![0xff],
                kind: EmitKind::Final,
            },
            StreamAnswer {
                key: b"early".to_vec(),
                value: vec![0x01],
                kind: EmitKind::Early,
            },
        ];
        assert_eq!(dump_final_answers(&answers), "apple\tff\nzebra\t0200\n");
    }

    #[test]
    fn quiet_panics_suppresses_then_restores() {
        install_poison_panic_filter();
        QUIET_PANICS.with(|q| q.set(true));
        let r = std::panic::catch_unwind(|| panic!("expected poison"));
        QUIET_PANICS.with(|q| q.set(false));
        assert!(r.is_err());
    }
}
