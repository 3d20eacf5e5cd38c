//! Shared by the equivalence suites.

use std::sync::atomic::{AtomicUsize, Ordering};

use onepass_core::governor::{LeaseStat, SpillPolicy};

/// A victim rule the engine does not ship: rotate over the loaded leases,
/// so sheds also land on leases that are not the largest.
#[derive(Default)]
pub struct Rotating(AtomicUsize);

impl SpillPolicy for Rotating {
    fn name(&self) -> &'static str {
        "rotating"
    }

    fn pick_victim(&self, leases: &[LeaseStat], _requester: usize) -> Option<usize> {
        let loaded: Vec<_> = leases.iter().filter(|l| l.used > 0).collect();
        let at = self.0.fetch_add(1, Ordering::Relaxed) % loaded.len().max(1);
        loaded.get(at).map(|l| l.id)
    }
}
