//! Fair-share admission control for the serving front-end.
//!
//! Admission answers one question: *may this tenant take a seat right
//! now, and how much memory does it bring?* The pool is fixed; the fair
//! share is `pool / max_tenants` (floored) and goes to the leases of the
//! session the tenant joins, so a full house of tenants exactly
//! subscribes the pool and the governor's spill policies arbitrate the
//! inevitable overcommit *within* leases rather than admission
//! over-promising. When the house is full, subscribers wait (bounded
//! queue, FIFO) until a seat frees; beyond that they are rejected
//! outright — load shedding at the front door instead of collapse inside.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Admission configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Concurrent tenant cap — also the denominator of the fair share.
    pub max_tenants: usize,
    /// Tenants allowed to wait for a seat before outright rejection.
    pub max_waiting: usize,
    /// Floor on a tenant's fair share, bytes (tiny pools still admit).
    pub min_lease_bytes: usize,
    /// How long a queued tenant waits before giving up.
    pub wait_timeout: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_tenants: 1024,
            max_waiting: 256,
            min_lease_bytes: 16 * 1024,
            wait_timeout: Duration::from_secs(10),
        }
    }
}

/// Why a tenant was turned away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// House and waiting queue both full.
    QueueFull,
    /// Waited `wait_timeout` without a seat freeing up.
    TimedOut,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull => write!(f, "admission queue full"),
            AdmissionError::TimedOut => write!(f, "admission wait timed out"),
        }
    }
}

#[derive(Debug, Default)]
struct Seats {
    active: usize,
    waiting: usize,
}

/// Counters the metrics layer mirrors.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdmissionCounters {
    /// Tenants admitted, ever.
    pub admitted: u64,
    /// Tenants that had to queue before admission.
    pub queued: u64,
    /// Tenants rejected (queue full or timed out).
    pub rejected: u64,
}

/// A ticket held while a tenant is active; releasing it frees the seat.
/// (Not RAII — the shard worker releases explicitly when the tenant
/// closes or detaches, keeping the controller `Send + Sync` simple.)
#[derive(Debug)]
pub struct FairShareAdmission {
    config: AdmissionConfig,
    pool_bytes: usize,
    seats: Mutex<(Seats, AdmissionCounters)>,
    freed: Condvar,
}

impl FairShareAdmission {
    /// Control admission to `pool_bytes` of governor pool.
    pub fn new(config: AdmissionConfig, pool_bytes: usize) -> FairShareAdmission {
        assert!(config.max_tenants > 0, "max_tenants must be > 0");
        FairShareAdmission {
            config,
            pool_bytes,
            seats: Mutex::new((Seats::default(), AdmissionCounters::default())),
            freed: Condvar::new(),
        }
    }

    /// The seat counts and counters. A holder that panicked left them
    /// consistent (every update is a few integer stores), so a poisoned
    /// lock is taken as it stands.
    fn seats(&self) -> MutexGuard<'_, (Seats, AdmissionCounters)> {
        self.seats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fair share each tenant brings to its session's leases, bytes.
    pub fn fair_share_bytes(&self) -> usize {
        (self.pool_bytes / self.config.max_tenants).max(self.config.min_lease_bytes)
    }

    /// Take a seat, waiting (bounded) if the house is full. On `Ok`, the
    /// caller owns one seat and must eventually call [`release`].
    ///
    /// [`release`]: FairShareAdmission::release
    pub fn admit(&self) -> Result<usize, AdmissionError> {
        let mut guard = self.seats();
        if guard.0.active < self.config.max_tenants {
            guard.0.active += 1;
            guard.1.admitted += 1;
            return Ok(self.fair_share_bytes());
        }
        if guard.0.waiting >= self.config.max_waiting {
            guard.1.rejected += 1;
            return Err(AdmissionError::QueueFull);
        }
        guard.0.waiting += 1;
        guard.1.queued += 1;
        let deadline = Instant::now() + self.config.wait_timeout;
        loop {
            let now = Instant::now();
            if guard.0.active < self.config.max_tenants {
                guard.0.waiting -= 1;
                guard.0.active += 1;
                guard.1.admitted += 1;
                return Ok(self.fair_share_bytes());
            }
            if now >= deadline {
                guard.0.waiting -= 1;
                guard.1.rejected += 1;
                return Err(AdmissionError::TimedOut);
            }
            let (g, timeout) = self
                .freed
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
            if timeout.timed_out() && guard.0.active >= self.config.max_tenants {
                guard.0.waiting -= 1;
                guard.1.rejected += 1;
                return Err(AdmissionError::TimedOut);
            }
        }
    }

    /// Free a seat (tenant closed or detached); wakes one waiter.
    pub fn release(&self) {
        let mut guard = self.seats();
        guard.0.active = guard.0.active.saturating_sub(1);
        drop(guard);
        self.freed.notify_one();
    }

    /// Active tenants right now.
    pub fn active(&self) -> usize {
        self.seats().0.active
    }

    /// Counter snapshot.
    pub fn counters(&self) -> AdmissionCounters {
        self.seats().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tiny(max_tenants: usize, max_waiting: usize, timeout_ms: u64) -> FairShareAdmission {
        FairShareAdmission::new(
            AdmissionConfig {
                max_tenants,
                max_waiting,
                min_lease_bytes: 1024,
                wait_timeout: Duration::from_millis(timeout_ms),
            },
            1 << 20,
        )
    }

    #[test]
    fn fair_share_divides_the_pool() {
        let adm = FairShareAdmission::new(
            AdmissionConfig {
                max_tenants: 8,
                ..Default::default()
            },
            8 << 20,
        );
        assert_eq!(adm.fair_share_bytes(), 1 << 20);
        // Tiny pool is floored.
        let adm = tiny(1024, 0, 1);
        assert_eq!(adm.fair_share_bytes(), 1024);
    }

    #[test]
    fn seats_cap_queue_cap_and_release() {
        let adm = tiny(2, 0, 10);
        adm.admit().unwrap();
        adm.admit().unwrap();
        assert_eq!(adm.admit(), Err(AdmissionError::QueueFull));
        adm.release();
        adm.admit().unwrap();
        assert_eq!(adm.active(), 2);
        let c = adm.counters();
        assert_eq!(c.admitted, 3);
        assert_eq!(c.rejected, 1);
    }

    #[test]
    fn queued_tenant_gets_the_freed_seat() {
        let adm = Arc::new(tiny(1, 4, 2000));
        adm.admit().unwrap();
        let a2 = Arc::clone(&adm);
        let waiter = std::thread::spawn(move || a2.admit());
        // The waiter counts itself queued under the seats lock and lets go
        // of that lock only by parking on the condvar, so once it shows
        // here the release below cannot get in before it waits.
        while adm.counters().queued == 0 {
            std::thread::yield_now();
        }
        adm.release();
        assert!(waiter.join().unwrap().is_ok());
        assert_eq!(adm.counters().queued, 1);
    }

    #[test]
    fn queued_tenant_times_out() {
        let adm = tiny(1, 4, 30);
        adm.admit().unwrap();
        assert_eq!(adm.admit(), Err(AdmissionError::TimedOut));
    }
}
