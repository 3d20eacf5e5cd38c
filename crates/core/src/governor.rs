//! Pooled memory governance: one byte pool with leased, rebalanced child
//! budgets, for work that shares memory because it runs side by side.
//!
//! The paper's one-pass operators are defined by what happens at the
//! memory boundary (§IV, Table III): hybrid hash partitions, incremental
//! hash overflows, frequent hash evicts cold keys, and the sort-merge
//! reducer spills runs. A batch reducer meets that boundary at its own
//! fixed budget (`JobSpec::reduce_budget_bytes`), as the paper's per-task
//! budgets do. The serving tier's sessions instead come and go on one
//! shared pool, where a static split leaves a busy session at its
//! boundary while idle neighbours sit on headroom — the pathology M3R's
//! in-memory budget sharing attacks. The [`MemoryGovernor`] removes it:
//!
//! * the governor owns the **pool** and [`lease`]s child
//!   [`MemoryBudget`]s to operators;
//! * a task that exhausts its lease escalates
//!   ([`MemoryBudget::try_grant_or_request`]) instead of spilling
//!   immediately. The governor grows the lease from uncommitted pool
//!   slack, or **rebalances** idle headroom away from the slackest
//!   sibling lease;
//! * when every lease is genuinely loaded (global pressure), a pluggable
//!   [`SpillPolicy`] picks a **victim** lease and posts a shed request on
//!   it; the victim sheds bytes at its next batch boundary, and the
//!   requester falls back to its own spill path this one time. Every
//!   lease-holder is a stream session's incremental hash operator, so
//!   shedding is that operator's alone (`FreqHashGrouper::shed`: one
//!   coldest-first eviction round).
//!
//! Shedding is a correctness-neutral reordering: the operator sheds by
//! spilling partial states into the same cold buckets its normal overflow
//! uses, so final output bytes are unchanged.
//!
//! [`lease`]: MemoryGovernor::lease

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

use crate::memory::{Escalator, MemoryBudget, WeakBudget};

/// Snapshot of one live lease, handed to [`SpillPolicy::pick_victim`].
#[derive(Debug, Clone)]
pub struct LeaseStat {
    /// Lease id (allocation order).
    pub id: usize,
    /// Bytes currently granted to the lease.
    pub used: usize,
    /// The lease's current limit.
    pub limit: usize,
}

/// Chooses which lease sheds memory under global pressure.
///
/// Returning `None`, or the requester's own id, means "no useful victim":
/// the governor denies the request and the requester spills locally.
pub trait SpillPolicy: Send + Sync {
    /// Policy name for reports and CLI round-tripping.
    fn name(&self) -> &'static str;

    /// Pick a victim among `leases` (live leases only; `requester` is the
    /// lease asking for more memory).
    fn pick_victim(&self, leases: &[LeaseStat], requester: usize) -> Option<usize>;
}

/// Shed from the lease holding the most bytes — the default: freeing the
/// biggest consumer yields the most headroom per shed.
#[derive(Debug, Default, Clone, Copy)]
pub struct LargestConsumer;

impl SpillPolicy for LargestConsumer {
    fn name(&self) -> &'static str {
        "largest-consumer"
    }

    fn pick_victim(&self, leases: &[LeaseStat], _requester: usize) -> Option<usize> {
        leases
            .iter()
            .filter(|l| l.used > 0)
            .max_by_key(|l| (l.used, l.id))
            .map(|l| l.id)
    }
}

/// Construct a policy by its [`SpillPolicy::name`] (CLI round-trip).
pub fn policy_by_name(name: &str) -> Option<Arc<dyn SpillPolicy>> {
    match name {
        "largest-consumer" => Some(Arc::new(LargestConsumer)),
        _ => None,
    }
}

/// High-water fraction: above this pool utilization the serving tier's
/// pressure gate (`onepass_runtime::shuffle::PressureGate`) holds ingest
/// back instead of growing session buffers.
pub const DEFAULT_HIGH_WATER: f64 = 0.85;

struct LeaseEntry {
    id: usize,
    budget: WeakBudget,
}

pub(crate) struct GovInner {
    pool: MemoryBudget,
    policy: Arc<dyn SpillPolicy>,
    /// Minimum bytes moved per rebalance, so hot leases don't escalate
    /// once per record.
    min_grant: usize,
    leases: Mutex<Vec<LeaseEntry>>,
    next_id: AtomicUsize,
}

impl GovInner {
    /// Prune dead leases and snapshot the live ones.
    fn live(&self, leases: &mut Vec<LeaseEntry>) -> Vec<(usize, MemoryBudget)> {
        leases.retain(|l| l.budget.upgrade().is_some());
        leases
            .iter()
            .filter_map(|l| l.budget.upgrade().map(|b| (l.id, b)))
            .collect()
    }
}

impl Escalator for GovInner {
    fn request_more(&self, lease_id: usize, bytes: usize) -> bool {
        let grant = bytes.max(self.min_grant);
        let mut guard = self.leases.lock().expect("governor lock");
        let live = self.live(&mut guard);
        let Some((_, requester)) = live.iter().find(|(id, _)| *id == lease_id) else {
            return false;
        };
        let global = self.pool.limit();
        let committed: usize = live.iter().map(|(_, b)| b.limit()).sum();

        // 1. Uncommitted pool slack: grow the lease outright.
        if committed.saturating_add(grant) <= global {
            requester.set_limit(requester.limit() + grant);
            return true;
        }

        // 2. Rebalance: reclaim idle headroom from the slackest sibling.
        let donor = live
            .iter()
            .filter(|(id, _)| *id != lease_id)
            .max_by_key(|(_, b)| b.limit().saturating_sub(b.used()));
        if let Some((_, donor)) = donor {
            let slack = donor.limit().saturating_sub(donor.used());
            if slack >= grant {
                donor.set_limit(donor.limit() - grant);
                requester.set_limit(requester.limit() + grant);
                return true;
            }
        }

        // 3. Global pressure: ask a victim to shed. The requester spills
        //    locally this time; the freed headroom becomes reclaimable on
        //    its next escalation.
        let stats: Vec<LeaseStat> = live
            .iter()
            .map(|(id, b)| LeaseStat {
                id: *id,
                used: b.used(),
                limit: b.limit(),
            })
            .collect();
        let victim = self
            .policy
            .pick_victim(&stats, lease_id)
            .filter(|&v| v != lease_id);
        if let Some((_, v)) = victim.and_then(|v| live.iter().find(|(id, _)| *id == v)) {
            v.request_shed(grant);
        }
        false
    }
}

/// The pooled memory governor. Cheap to clone (shared state).
#[derive(Clone)]
pub struct MemoryGovernor {
    inner: Arc<GovInner>,
}

impl std::fmt::Debug for MemoryGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryGovernor")
            .field("policy", &self.inner.policy.name())
            .field("pool_limit", &self.inner.pool.limit())
            .field("pool_used", &self.inner.pool.used())
            .finish()
    }
}

impl MemoryGovernor {
    /// Create a governor owning a `global_limit`-byte pool.
    pub fn new(global_limit: usize, policy: Arc<dyn SpillPolicy>) -> Self {
        MemoryGovernor {
            inner: Arc::new(GovInner {
                pool: MemoryBudget::new(global_limit),
                policy,
                min_grant: (global_limit / 64).clamp(256, 1 << 20),
                leases: Mutex::new(Vec::new()),
                next_id: AtomicUsize::new(0),
            }),
        }
    }

    /// Lease a child budget with an `initial` limit. The lease escalates
    /// back to this governor when exhausted; dropping every clone of the
    /// returned budget ends the lease (its committed limit returns to
    /// slack, any un-released bytes refund the pool).
    pub fn lease(&self, initial: usize) -> MemoryBudget {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let esc: Weak<dyn Escalator> = Arc::downgrade(&self.inner) as Weak<dyn Escalator>;
        let budget = MemoryBudget::leased(&self.inner.pool, initial, esc, id);
        self.inner
            .leases
            .lock()
            .expect("governor lock")
            .push(LeaseEntry {
                id,
                budget: budget.downgrade(),
            });
        budget
    }

    /// The shared pool (for gauges: `used`, `high_water`, `limit`).
    pub fn pool(&self) -> &MemoryBudget {
        &self.inner.pool
    }

    /// Is pool utilization at or above [`DEFAULT_HIGH_WATER`]? The
    /// serving tier's pressure gate holds ingest back while it is.
    pub fn over_high_water(&self) -> bool {
        let limit = self.inner.pool.limit();
        limit > 0 && self.inner.pool.used() as f64 >= DEFAULT_HIGH_WATER * limit as f64
    }

    /// Live (un-dropped) leases right now.
    pub fn live_leases(&self) -> usize {
        let mut guard = self.inner.leases.lock().expect("governor lock");
        self.inner.live(&mut guard).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov(limit: usize) -> MemoryGovernor {
        MemoryGovernor::new(limit, Arc::new(LargestConsumer))
    }

    #[test]
    fn lease_grants_charge_the_pool() {
        let g = gov(1000);
        let a = g.lease(500);
        let b = g.lease(500);
        assert!(a.try_grant(400));
        assert!(b.try_grant(300));
        assert_eq!(g.pool().used(), 700);
        assert_eq!(g.live_leases(), 2);
        a.release(400);
        b.release(300);
        assert_eq!(g.pool().used(), 0);
    }

    #[test]
    fn skewed_demand_rebalances_from_idle_sibling() {
        // Two children split the pool statically; the hot one outgrows its
        // half by borrowing the idle sibling's headroom — no spill needed.
        let g = gov(1000);
        let hot = g.lease(500);
        let idle = g.lease(500);
        assert!(idle.try_grant(50)); // idle sits on 450 B of headroom
        assert!(hot.try_grant(500));
        assert!(!hot.try_grant(300), "plain grant is over the lease");
        assert!(
            hot.try_grant_or_request(300),
            "escalation must reclaim idle headroom"
        );
        assert!(hot.limit() > 500, "hot lease limit must have grown");
        assert!(idle.limit() < 500, "idle lease must have donated");
        assert!(idle.limit() >= idle.used(), "donor keeps what it uses");
        assert_eq!(hot.limit() + idle.limit(), 1000, "a rebalance moves limit");
        assert_eq!(
            hot.shed_requested() + idle.shed_requested(),
            0,
            "no shed under mere skew"
        );
        assert!(g.pool().used() <= g.pool().limit());
    }

    #[test]
    fn uncommitted_slack_grows_lease_without_donor() {
        let g = gov(1000);
        let only = g.lease(200);
        assert!(only.try_grant(200));
        assert!(only.try_grant_or_request(100), "pool has 800 B slack");
        assert!(only.limit() >= 300);
    }

    #[test]
    fn global_pressure_posts_shed_on_largest_consumer() {
        let g = gov(1000);
        let big = g.lease(600);
        let small = g.lease(400);
        assert!(big.try_grant(600));
        assert!(small.try_grant(390));
        // No slack, no reclaimable headroom: escalation must pick `big`
        // as the victim and deny the grant.
        assert!(!small.try_grant_or_request(200));
        assert!(
            big.shed_requested() >= 200,
            "victim must carry the shed request"
        );
        assert_eq!(small.shed_requested(), 0, "requester is not the victim");

        // After the victim sheds, the next escalation reclaims its now-
        // idle headroom.
        big.release(big.take_shed_request().min(600));
        assert!(small.try_grant_or_request(200));
        big.release(big.used());
        small.release(small.used());
    }

    #[test]
    fn dead_leases_return_their_commitment_to_slack() {
        let g = gov(1000);
        let a = g.lease(900);
        assert!(a.try_grant(900));
        drop(a);
        assert_eq!(g.pool().used(), 0, "dead lease refunds the pool");
        let b = g.lease(100);
        assert!(
            b.try_grant_or_request(800),
            "commitment of the dead lease is slack again"
        );
        assert_eq!(g.live_leases(), 1);
    }

    #[test]
    fn governor_sheds_whichever_lease_the_policy_names() {
        // The trait is the seam a test substitutes a victim rule through:
        // this one rotates over the loaded leases.
        #[derive(Default)]
        struct Rotating(AtomicUsize);
        impl SpillPolicy for Rotating {
            fn name(&self) -> &'static str {
                "rotating"
            }
            fn pick_victim(&self, leases: &[LeaseStat], _requester: usize) -> Option<usize> {
                let loaded: Vec<&LeaseStat> = leases.iter().filter(|l| l.used > 0).collect();
                let at = self.0.fetch_add(1, Ordering::Relaxed) % loaded.len().max(1);
                loaded.get(at).map(|l| l.id)
            }
        }
        let g = MemoryGovernor::new(300, Arc::new(Rotating::default()));
        let a = g.lease(100);
        let b = g.lease(100);
        let c = g.lease(100);
        assert!(a.try_grant(100));
        assert!(b.try_grant(100));
        assert!(c.try_grant(95));
        // Repeated denied escalations must spread shed requests around.
        for _ in 0..6 {
            let _ = c.try_grant_or_request(50);
        }
        let hit = [&a, &b, &c]
            .iter()
            .filter(|x| x.shed_requested() > 0)
            .count();
        assert!(hit >= 2, "sheds must land where the policy points");
    }

    #[test]
    fn largest_consumer_picks_the_most_loaded_lease() {
        let mk = |used: usize, id: usize| LeaseStat {
            id,
            used,
            limit: used,
        };
        let stats = vec![mk(500, 0), mk(300, 1), mk(0, 2)];
        assert_eq!(LargestConsumer.pick_victim(&stats, 9), Some(0));
        assert_eq!(LargestConsumer.pick_victim(&stats[2..], 9), None);
        assert_eq!(LargestConsumer.pick_victim(&[], 9), None);
    }

    #[test]
    fn policy_names_round_trip() {
        let p = policy_by_name("largest-consumer").expect("known policy");
        assert_eq!(p.name(), "largest-consumer");
        assert!(policy_by_name("nope").is_none());
    }

    #[test]
    fn over_high_water_tracks_pool_utilization() {
        let g = gov(1000);
        let a = g.lease(1000);
        assert!(!g.over_high_water());
        assert!(a.try_grant(850));
        assert!(g.over_high_water());
        a.release(100);
        assert!(!g.over_high_water());
        a.release(750);
    }

    #[test]
    fn stress_high_water_never_exceeds_global_limit() {
        // 8 threads lease, grant, escalate, shed and release concurrently;
        // the pool's high-water mark must never pass the global limit
        // (leases use try_grant only — no force overshoot).
        let global = 8 * 1024;
        let g = gov(global);
        std::thread::scope(|s| {
            for t in 0..8 {
                let g = g.clone();
                s.spawn(move || {
                    let lease = g.lease(global / 8);
                    let mut held = 0usize;
                    for i in 0..2000 {
                        let want = 64 + (t * 37 + i * 13) % 256;
                        if lease.try_grant_or_request(want) {
                            held += want;
                        } else {
                            // Spill path: drop everything we hold.
                            lease.release(held);
                            held = 0;
                        }
                        if lease.take_shed_request() > 0 {
                            lease.release(held);
                            held = 0;
                        }
                    }
                    lease.release(held);
                });
            }
        });
        assert_eq!(g.pool().used(), 0);
        assert!(
            g.pool().high_water() <= global,
            "pool high water {} exceeded global limit {}",
            g.pool().high_water(),
            global
        );
        assert_eq!(g.live_leases(), 0);
    }
}
