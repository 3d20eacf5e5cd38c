//! Budgeted memory accounting.
//!
//! MapReduce operators must detect "buffer full" deterministically: Hadoop's
//! map side spills when `io.sort.mb` is exhausted, and the reduce side
//! spills / switches to multi-pass merge when its buffer fills. The paper's
//! hash techniques likewise change behaviour at the memory boundary (hybrid
//! hash spills buckets; frequent-hash evicts cold keys). [`MemoryBudget`]
//! provides that boundary as an explicit, testable object instead of
//! relying on the allocator.
//!
//! Budgets can be **hierarchical**: a child created with
//! [`MemoryBudget::with_parent`] charges every grant against its parent as
//! well, so a job-wide pool observes the sum of its children. The
//! [`crate::governor`] module leases such children to concurrent tasks and
//! rebalances their limits at runtime; a leased budget additionally carries
//! an escalation link so an operator that exhausts its lease can ask for
//! more *before* falling back to spilling
//! ([`MemoryBudget::try_grant_or_request`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use crate::error::{Error, Result};

/// Escalation target for leased budgets: implemented by the memory
/// governor. Kept crate-private; external code interacts through
/// [`crate::governor::MemoryGovernor`].
pub(crate) trait Escalator: Send + Sync {
    /// A lease has run out of budget and wants `bytes` more. Returns
    /// `true` if the lease's limit was raised (the caller should retry its
    /// grant), `false` if the caller should spill instead.
    fn request_more(&self, lease_id: usize, bytes: usize) -> bool;
}

/// A shared, thread-safe byte budget.
///
/// Cloning shares the underlying budget (like `Arc`). Operators `grant`
/// before growing a buffer and `release` when a buffer is drained/spilled.
///
/// ```
/// use onepass_core::memory::MemoryBudget;
///
/// let budget = MemoryBudget::new(1024);
/// assert!(budget.try_grant(1000));
/// assert!(!budget.try_grant(100));   // over the limit: caller should spill
/// budget.release(1000);
/// assert_eq!(budget.used(), 0);
/// assert_eq!(budget.high_water(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    inner: Arc<Inner>,
}

struct Inner {
    /// Atomic so a governor can rebalance the limit while operators run.
    limit: AtomicUsize,
    used: AtomicUsize,
    high_water: AtomicUsize,
    /// Pool this budget charges in addition to itself (None = root).
    parent: Option<MemoryBudget>,
    /// Bytes the governor has asked this budget's operator to shed.
    shed_requested: AtomicUsize,
    /// Escalation link + lease id, set when created by a governor.
    escalator: Option<(Weak<dyn Escalator>, usize)>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("limit", &self.limit.load(Ordering::Relaxed))
            .field("used", &self.used.load(Ordering::Relaxed))
            .field("leased", &self.escalator.is_some())
            .finish()
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // A lease abandoned mid-flight (task panic, retry teardown) must
        // not leak its charge into the pool forever.
        if let Some(parent) = &self.parent {
            let leaked = self.used.load(Ordering::Relaxed);
            if leaked > 0 {
                parent.release(leaked);
            }
        }
    }
}

impl MemoryBudget {
    /// Create a root budget of `limit` bytes.
    pub fn new(limit: usize) -> Self {
        Self::build(limit, None, None)
    }

    /// Create a child budget of `limit` bytes whose grants are also
    /// charged against `parent`. Releasing (and dropping the last clone
    /// of) the child returns its bytes to the parent.
    pub fn with_parent(parent: &MemoryBudget, limit: usize) -> Self {
        Self::build(limit, Some(parent.clone()), None)
    }

    /// Create a governor lease: a child of `parent` that escalates to
    /// `escalator` when it runs dry.
    pub(crate) fn leased(
        parent: &MemoryBudget,
        limit: usize,
        escalator: Weak<dyn Escalator>,
        lease_id: usize,
    ) -> Self {
        Self::build(limit, Some(parent.clone()), Some((escalator, lease_id)))
    }

    fn build(
        limit: usize,
        parent: Option<MemoryBudget>,
        escalator: Option<(Weak<dyn Escalator>, usize)>,
    ) -> Self {
        MemoryBudget {
            inner: Arc::new(Inner {
                limit: AtomicUsize::new(limit),
                used: AtomicUsize::new(0),
                high_water: AtomicUsize::new(0),
                parent,
                shed_requested: AtomicUsize::new(0),
                escalator,
            }),
        }
    }

    /// An effectively unlimited budget (for tests / unconstrained runs).
    pub fn unlimited() -> Self {
        Self::new(usize::MAX / 2)
    }

    /// The current limit in bytes (a governor may change it at runtime).
    pub fn limit(&self) -> usize {
        self.inner.limit.load(Ordering::Relaxed)
    }

    /// Replace the limit. Used by the governor to rebalance leases; a new
    /// limit below `used` simply makes the next `try_grant` fail, pushing
    /// the operator onto its spill path.
    pub fn set_limit(&self, limit: usize) {
        self.inner.limit.store(limit, Ordering::Relaxed);
    }

    /// Bytes currently granted.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.limit().saturating_sub(self.used())
    }

    /// Highest `used` value ever observed.
    pub fn high_water(&self) -> usize {
        self.inner.high_water.load(Ordering::Relaxed)
    }

    /// True when this budget was leased from a [`crate::governor`]
    /// governor (it has an escalation link).
    pub fn is_leased(&self) -> bool {
        self.inner.escalator.is_some()
    }

    /// Try to reserve `bytes`; returns `false` (without reserving) if this
    /// budget — or any ancestor pool — cannot cover it.
    pub fn try_grant(&self, bytes: usize) -> bool {
        let mut cur = self.inner.used.load(Ordering::Relaxed);
        let new = loop {
            let Some(new) = cur.checked_add(bytes) else {
                return false;
            };
            if new > self.limit() {
                return false;
            }
            match self.inner.used.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break new,
                Err(actual) => cur = actual,
            }
        };
        if let Some(parent) = &self.inner.parent {
            if !parent.try_grant(bytes) {
                self.release_local(bytes);
                return false;
            }
        }
        self.raise_high_water(new);
        true
    }

    /// Raise `high_water` to `used`: a read-modify-write only when `used`
    /// is above it, which on a budget past its peak is never.
    fn raise_high_water(&self, used: usize) {
        if used > self.inner.high_water.load(Ordering::Relaxed) {
            self.inner.high_water.fetch_max(used, Ordering::Relaxed);
        }
    }

    /// Like [`MemoryBudget::try_grant`], but a leased budget that fails
    /// locally first asks its governor for a bigger lease and retries.
    /// The governor grants from pool slack or idle sibling headroom; under
    /// global pressure it instead posts a shed request on a victim lease
    /// and this returns `false` (the caller spills, as it would have).
    pub fn try_grant_or_request(&self, bytes: usize) -> bool {
        if self.try_grant(bytes) {
            return true;
        }
        if let Some((esc, id)) = &self.inner.escalator {
            if let Some(esc) = esc.upgrade() {
                if esc.request_more(*id, bytes) {
                    return self.try_grant(bytes);
                }
            }
        }
        false
    }

    /// Reserve `bytes` or return [`Error::MemoryExceeded`].
    pub fn grant(&self, bytes: usize) -> Result<()> {
        if self.try_grant(bytes) {
            Ok(())
        } else {
            Err(Error::MemoryExceeded {
                requested: bytes,
                available: self.available(),
            })
        }
    }

    /// Decrement `used` by at most `bytes`, saturating at zero; returns
    /// the bytes actually freed.
    fn release_local(&self, bytes: usize) -> usize {
        let mut cur = self.inner.used.load(Ordering::Relaxed);
        loop {
            let dec = cur.min(bytes);
            if dec == 0 {
                return 0;
            }
            match self.inner.used.compare_exchange_weak(
                cur,
                cur - dec,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return dec,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Return `bytes` to the budget (and to ancestor pools). Saturates at
    /// zero: an operator that double-releases after a governor-requested
    /// shed (both the shed path and its normal teardown accounting may
    /// cover the same buffer) must not underflow the pool, so only the
    /// bytes actually held are freed and propagated upward.
    pub fn release(&self, bytes: usize) {
        let freed = self.release_local(bytes);
        if freed > 0 {
            if let Some(parent) = &self.inner.parent {
                parent.release(freed);
            }
        }
    }

    /// Reserve `bytes` unconditionally, allowing `used` to overshoot the
    /// limit. For in-place growth of existing state that cannot fail
    /// mid-operation; the overshoot makes subsequent `try_grant` calls
    /// fail, prompting callers to spill. The soft-limit behaviour of real
    /// memory managers.
    pub fn force_grant(&self, bytes: usize) {
        let new = self.inner.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.raise_high_water(new);
        if let Some(parent) = &self.inner.parent {
            parent.force_grant(bytes);
        }
    }

    /// Is usage currently above the configured limit (after force grants)?
    pub fn over_limit(&self) -> bool {
        self.used() > self.limit()
    }

    /// Ask this budget's operator to shed at least `bytes` at its next
    /// opportunity. Requests coalesce to the maximum outstanding ask.
    pub fn request_shed(&self, bytes: usize) {
        self.inner
            .shed_requested
            .fetch_max(bytes, Ordering::Relaxed);
    }

    /// Outstanding shed request in bytes (0 = none).
    pub fn shed_requested(&self) -> usize {
        self.inner.shed_requested.load(Ordering::Relaxed)
    }

    /// Consume the outstanding shed request, returning its size.
    pub fn take_shed_request(&self) -> usize {
        self.inner.shed_requested.swap(0, Ordering::Relaxed)
    }

    /// A non-owning handle for governor bookkeeping.
    pub(crate) fn downgrade(&self) -> WeakBudget {
        WeakBudget(Arc::downgrade(&self.inner))
    }
}

/// Weak handle to a budget: lets the governor track leases without keeping
/// dead attempts alive.
pub(crate) struct WeakBudget(Weak<Inner>);

impl WeakBudget {
    /// Upgrade to a usable budget if any clone is still alive.
    pub(crate) fn upgrade(&self) -> Option<MemoryBudget> {
        self.0.upgrade().map(|inner| MemoryBudget { inner })
    }
}

/// RAII reservation: releases its bytes on drop. Useful for scoped buffers.
#[derive(Debug)]
pub struct Reservation {
    budget: MemoryBudget,
    bytes: usize,
}

impl Reservation {
    /// Reserve `bytes` from `budget`, failing if unavailable.
    pub fn take(budget: &MemoryBudget, bytes: usize) -> Result<Self> {
        budget.grant(bytes)?;
        Ok(Reservation {
            budget: budget.clone(),
            bytes,
        })
    }

    /// Grow this reservation by `extra` bytes.
    pub fn grow(&mut self, extra: usize) -> Result<()> {
        self.budget.grant(extra)?;
        self.bytes += extra;
        Ok(())
    }

    /// Resize the reservation to exactly `new_bytes` (grow or shrink).
    pub fn resize(&mut self, new_bytes: usize) -> Result<()> {
        if new_bytes > self.bytes {
            self.grow(new_bytes - self.bytes)
        } else {
            self.budget.release(self.bytes - new_bytes);
            self.bytes = new_bytes;
            Ok(())
        }
    }

    /// Bytes currently held by this reservation.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_and_release_track_usage() {
        let b = MemoryBudget::new(100);
        assert!(b.try_grant(60));
        assert_eq!(b.used(), 60);
        assert_eq!(b.available(), 40);
        assert!(!b.try_grant(50));
        assert!(b.try_grant(40));
        assert_eq!(b.available(), 0);
        b.release(100);
        assert_eq!(b.used(), 0);
        assert_eq!(b.high_water(), 100);
    }

    #[test]
    fn grant_error_reports_availability() {
        let b = MemoryBudget::new(10);
        b.grant(4).unwrap();
        match b.grant(20) {
            Err(Error::MemoryExceeded {
                requested,
                available,
            }) => {
                assert_eq!(requested, 20);
                assert_eq!(available, 6);
            }
            other => panic!("expected MemoryExceeded, got {other:?}"),
        }
    }

    #[test]
    fn reservation_releases_on_drop() {
        let b = MemoryBudget::new(100);
        {
            let mut r = Reservation::take(&b, 30).unwrap();
            r.grow(20).unwrap();
            assert_eq!(b.used(), 50);
            r.resize(10).unwrap();
            assert_eq!(b.used(), 10);
            assert_eq!(r.bytes(), 10);
        }
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn budget_is_shared_across_clones() {
        let a = MemoryBudget::new(100);
        let b = a.clone();
        assert!(a.try_grant(70));
        assert!(!b.try_grant(40));
        b.release(70);
        assert_eq!(a.used(), 0);
    }

    #[test]
    fn force_grant_overshoots_and_blocks_try_grant() {
        let b = MemoryBudget::new(10);
        b.grant(8).unwrap();
        b.force_grant(5);
        assert_eq!(b.used(), 13);
        assert!(b.over_limit());
        assert!(!b.try_grant(1));
        b.release(13);
        assert!(!b.over_limit());
        assert_eq!(b.high_water(), 13);
    }

    #[test]
    fn release_saturates_on_double_release() {
        // Regression: an operator that sheds a buffer on governor request
        // and then also releases it during teardown must not underflow.
        let b = MemoryBudget::new(100);
        b.grant(40).unwrap();
        b.release(40);
        b.release(40); // double release: saturates, no panic / wraparound
        assert_eq!(b.used(), 0);
        assert!(b.try_grant(100), "budget must stay usable after saturation");
        b.release(100);

        // Partial over-release: only the held bytes come back.
        let pool = MemoryBudget::new(100);
        let child = MemoryBudget::with_parent(&pool, 100);
        child.grant(30).unwrap();
        child.release(50);
        assert_eq!(child.used(), 0);
        assert_eq!(pool.used(), 0, "pool must see exactly 30 freed, not 50");
    }

    #[test]
    fn child_grants_charge_parent() {
        let pool = MemoryBudget::new(100);
        let a = MemoryBudget::with_parent(&pool, 80);
        let b = MemoryBudget::with_parent(&pool, 80);
        assert!(a.try_grant(60));
        assert_eq!(pool.used(), 60);
        // b is within its own limit, but the pool can't cover it.
        assert!(!b.try_grant(60));
        assert_eq!(b.used(), 0, "failed grant must roll back the child");
        assert!(b.try_grant(40));
        assert_eq!(pool.used(), 100);
        a.release(60);
        assert_eq!(pool.used(), 40);
        b.release(40);
        assert_eq!(pool.used(), 0);
        assert!(pool.high_water() <= 100);
    }

    #[test]
    fn raising_child_limit_allows_more() {
        let pool = MemoryBudget::new(100);
        let child = MemoryBudget::with_parent(&pool, 10);
        assert!(!child.try_grant(20));
        child.set_limit(50);
        assert!(child.try_grant(20));
        assert_eq!(child.limit(), 50);
        assert_eq!(pool.used(), 20);
        child.release(20);
    }

    #[test]
    fn dropping_child_refunds_parent() {
        let pool = MemoryBudget::new(100);
        {
            let child = MemoryBudget::with_parent(&pool, 100);
            child.grant(70).unwrap();
            assert_eq!(pool.used(), 70);
            // child dropped without releasing — simulates an abandoned
            // attempt after a panic.
        }
        assert_eq!(pool.used(), 0, "dead lease must refund the pool");
    }

    #[test]
    fn shed_requests_coalesce_to_max() {
        let b = MemoryBudget::new(100);
        assert_eq!(b.take_shed_request(), 0);
        b.request_shed(10);
        b.request_shed(30);
        b.request_shed(20);
        assert_eq!(b.shed_requested(), 30);
        assert_eq!(b.take_shed_request(), 30);
        assert_eq!(b.take_shed_request(), 0);
    }

    #[test]
    fn concurrent_grants_never_exceed_limit() {
        let b = MemoryBudget::new(1000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        if b.try_grant(7) {
                            b.release(7);
                        }
                    }
                });
            }
        });
        assert_eq!(b.used(), 0);
        assert!(b.high_water() <= 1000);
    }
}
