//! Deterministic fault injection for exercising task-level recovery.
//!
//! The paper's Hadoop baseline pays for map-output persistence (§II-A)
//! purely so that failed or slow tasks can be re-executed from durable
//! input. To test that the engine actually delivers on that promise, this
//! module provides a *planned*, seeded fault schedule: a [`FaultPlan`]
//! lists exactly which task attempts fail and after how many records, and a cheaply-cloneable [`FaultInjector`] is consulted by the
//! map and reduce execution paths at record granularity. Two runs with the
//! same plan observe the same faults, so recovery tests are reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which side of the job a planned fault targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// A map task (identified by split index).
    Map,
    /// A reduce task (identified by partition index).
    Reduce,
}

/// What happens when a planned fault fires.
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// The task attempt returns an `Err`, as a failing spill store would.
    Error,
    /// The task attempt panics, as a buggy user map function would.
    Panic,
}

/// One scheduled fault: fires on `(target, task, attempt)` once the task
/// has processed `after_records` records.
#[derive(Clone, Debug)]
pub struct PlannedFault {
    /// Map or reduce side.
    pub target: FaultTarget,
    /// Task id (map split index or reduce partition).
    pub task: usize,
    /// Attempt the fault applies to (re-executions get fresh ids and are
    /// unaffected unless separately planned).
    pub attempt: usize,
    /// Number of records the attempt processes before the fault fires.
    pub after_records: u64,
    /// Failure mode.
    pub kind: FaultKind,
}

/// A deterministic schedule of task faults.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Deterministically derive a plan from `seed` that kills one map
    /// task and one reduce task mid-run (first attempts only), so a
    /// retried job exercises recovery on both sides of the shuffle.
    pub fn seeded(seed: u64, map_tasks: usize, reduce_tasks: usize) -> Self {
        let mut s = seed;
        let mut plan = Self::new();
        if map_tasks > 0 {
            let task = (splitmix64(&mut s) % map_tasks as u64) as usize;
            let after = 1 + splitmix64(&mut s) % 7;
            plan = plan.fail_map(task, 0, after);
        }
        if reduce_tasks > 0 {
            let task = (splitmix64(&mut s) % reduce_tasks as u64) as usize;
            let after = 1 + splitmix64(&mut s) % 7;
            plan = plan.fail_reduce(task, 0, after);
        }
        plan
    }

    /// Add an arbitrary planned fault.
    pub fn with(mut self, fault: PlannedFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Map task `task`, attempt `attempt`, errors after `after_records`
    /// records.
    pub fn fail_map(self, task: usize, attempt: usize, after_records: u64) -> Self {
        self.with(PlannedFault {
            target: FaultTarget::Map,
            task,
            attempt,
            after_records,
            kind: FaultKind::Error,
        })
    }

    /// Map task `task`, attempt `attempt`, panics after `after_records`
    /// records.
    pub fn panic_map(self, task: usize, attempt: usize, after_records: u64) -> Self {
        self.with(PlannedFault {
            target: FaultTarget::Map,
            task,
            attempt,
            after_records,
            kind: FaultKind::Panic,
        })
    }

    /// Reduce partition `task`, attempt `attempt`, errors after absorbing
    /// `after_records` shuffle records — or, if the attempt absorbs fewer,
    /// as it finishes (see [`FaultInjector::check_finish`]), so a planned
    /// reduce fault fires whatever the partition's size and arrival order.
    pub fn fail_reduce(self, task: usize, attempt: usize, after_records: u64) -> Self {
        self.with(PlannedFault {
            target: FaultTarget::Reduce,
            task,
            attempt,
            after_records,
            kind: FaultKind::Error,
        })
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// Wrap the plan in a shareable injector handle.
    pub fn into_injector(self) -> FaultInjector {
        FaultInjector::new(self)
    }
}

/// Action the execution layer takes when a fault fires.
#[derive(Clone, Debug)]
pub enum FaultAction {
    /// Return an error from the task attempt.
    Fail,
    /// Panic inside the task attempt.
    Panic,
}

struct Inner {
    plan: FaultPlan,
    triggered: AtomicU64,
}

/// Cheap handle consulted by map/reduce execution at record granularity.
///
/// The default (and [`FaultInjector::none`]) handle is inert: `check`
/// returns `None` without touching any shared state, so the fault hook
/// costs one branch on the hot path when no plan is installed.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("FaultInjector::none"),
            Some(inner) => f
                .debug_struct("FaultInjector")
                .field("faults", &inner.plan.len())
                .field("triggered", &inner.triggered.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

impl FaultInjector {
    /// An inert injector that never fires.
    pub fn none() -> Self {
        Self::default()
    }

    /// Injector enforcing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        if plan.is_empty() {
            return Self::none();
        }
        Self {
            inner: Some(Arc::new(Inner {
                plan,
                triggered: AtomicU64::new(0),
            })),
        }
    }

    /// Whether any faults are scheduled.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of faults that have fired so far.
    pub fn triggered(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.triggered.load(Ordering::Relaxed))
    }

    /// Consult the plan before processing record `record` (0-based count
    /// of records the attempt has already processed). Callers must act on
    /// the returned action immediately: either one aborts the attempt.
    pub fn check(
        &self,
        target: FaultTarget,
        task: usize,
        attempt: usize,
        record: u64,
    ) -> Option<FaultAction> {
        let inner = self.inner.as_ref()?;
        let fault = inner.plan.faults.iter().find(|f| {
            f.target == target
                && f.task == task
                && f.attempt == attempt
                && record >= f.after_records
        })?;
        inner.triggered.fetch_add(1, Ordering::Relaxed);
        Some(match fault.kind {
            FaultKind::Error => FaultAction::Fail,
            FaultKind::Panic => FaultAction::Panic,
        })
    }

    /// Consult the plan as an attempt finishes, having processed all its
    /// records. A planned error or panic for the attempt fires here
    /// whatever its threshold: one the attempt never reached still fires,
    /// once, instead of depending on how many records the task received.
    pub fn check_finish(
        &self,
        target: FaultTarget,
        task: usize,
        attempt: usize,
    ) -> Option<FaultAction> {
        self.check(target, task, attempt, u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_injector_never_fires() {
        let inj = FaultInjector::none();
        assert!(!inj.is_active());
        for r in 0..100 {
            assert!(inj.check(FaultTarget::Map, 0, 0, r).is_none());
        }
        assert_eq!(inj.triggered(), 0);
    }

    #[test]
    fn planned_error_fires_at_threshold_for_matching_attempt_only() {
        let inj = FaultPlan::new().fail_map(2, 0, 5).into_injector();
        assert!(inj.check(FaultTarget::Map, 2, 0, 4).is_none());
        assert!(matches!(
            inj.check(FaultTarget::Map, 2, 0, 5),
            Some(FaultAction::Fail)
        ));
        // Other tasks, attempts, and the reduce side are unaffected.
        assert!(inj.check(FaultTarget::Map, 1, 0, 9).is_none());
        assert!(inj.check(FaultTarget::Map, 2, 1, 9).is_none());
        assert!(inj.check(FaultTarget::Reduce, 2, 0, 9).is_none());
        assert_eq!(inj.triggered(), 1);
    }

    #[test]
    fn a_fault_past_the_last_record_fires_at_finish() {
        let inj = FaultPlan::new().fail_reduce(1, 0, 1_000).into_injector();
        assert!(inj.check(FaultTarget::Reduce, 1, 0, 3).is_none());
        assert!(matches!(
            inj.check_finish(FaultTarget::Reduce, 1, 0),
            Some(FaultAction::Fail)
        ));
        // Only the planned attempt.
        assert!(inj.check_finish(FaultTarget::Reduce, 1, 1).is_none());
        assert!(inj.check_finish(FaultTarget::Map, 1, 0).is_none());
        assert_eq!(inj.triggered(), 1);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_both_sides() {
        let a = FaultPlan::seeded(42, 8, 4);
        let b = FaultPlan::seeded(42, 8, 4);
        assert_eq!(a.len(), 2);
        assert_eq!(format!("{:?}", a.faults()), format!("{:?}", b.faults()));
        let targets: Vec<_> = a.faults().iter().map(|f| f.target).collect();
        assert!(targets.contains(&FaultTarget::Map));
        assert!(targets.contains(&FaultTarget::Reduce));
        // A different seed picks a different schedule (with these sizes).
        let c = FaultPlan::seeded(43, 8, 4);
        assert_ne!(format!("{:?}", a.faults()), format!("{:?}", c.faults()));
    }

    #[test]
    fn empty_plan_collapses_to_inert_injector() {
        assert!(!FaultPlan::new().into_injector().is_active());
        assert!(FaultPlan::seeded(7, 4, 2).into_injector().is_active());
    }
}
