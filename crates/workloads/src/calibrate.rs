//! Calibration: derive the simulator's CPU cost model from the real
//! engine's measurements — the loop that makes `onepass-simcluster`'s
//! constants evidence instead of guesses.
//!
//! The simulator needs CPU-seconds-per-MB for the map function, the
//! map-side sort, hash grouping, merging and incremental updates. Those
//! are per-record properties, so they can be measured at laptop scale on
//! `onepass-runtime` and rescaled: absolute speed differs from the
//! paper's 2010 nodes by a single machine factor, while the *ratios*
//! between operations — which determine every shape the simulator
//! produces — carry over directly.

use onepass_core::config::MIB;
use onepass_core::metrics::Phase;
use onepass_runtime::{CollectOutput, Engine, ReduceBackend};
use onepass_simcluster::CostModel;

use crate::{make_splits, per_user_count, sessionization, ClickGen, ClickGenConfig};

/// Raw per-MB CPU costs measured on this machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredCosts {
    /// Map function (parse + emit) seconds per input MB.
    pub map_s_mb: f64,
    /// Map-side (partition, key) sort seconds per input MB.
    pub sort_s_mb: f64,
    /// Map-side hash partitioning seconds per input MB.
    pub hash_s_mb: f64,
    /// Reduce-side merge seconds per shuffled MB.
    pub merge_s_mb: f64,
    /// Incremental state-update seconds per shuffled MB.
    pub inc_update_s_mb: f64,
}

/// The calibration result: measurements, the machine factor, and a
/// [`CostModel`] usable directly by the simulator.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Raw measurements on this machine.
    pub measured: MeasuredCosts,
    /// Multiplier mapping this machine's speed onto the simulator's
    /// reference (paper-era) node speed, anchored on the map function.
    pub machine_factor: f64,
    /// The cost model scaled to reference-node speed.
    pub model: CostModel,
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / MIB as f64
}

/// Run the calibration workloads (`records` clicks each; 200k is plenty)
/// and derive a cost model.
pub fn calibrate(records: usize) -> Calibration {
    let gen_splits = || {
        let mut gen = ClickGen::new(ClickGenConfig::default());
        make_splits(gen.text_records(records), records / 16)
    };
    let engine = Engine::new();

    // 1. Hadoop path: map fn + sort costs, reduce-side merge cost.
    let hadoop = sessionization::job()
        .reducers(4)
        .collect_mode(CollectOutput::Discard)
        .preset_hadoop()
        .reduce_budget_bytes(512 * 1024) // force merge activity
        .build()
        .expect("valid job");
    let h = engine.run(&hadoop, gen_splits()).expect("hadoop run");
    let input_mb = mb(h.input_bytes).max(1e-6);
    let shuffled_mb = mb(h.shuffled_bytes).max(1e-6);
    let map_s_mb = h.map_profile.time(Phase::MapFn).as_secs_f64() / input_mb;
    let sort_s_mb = h.map_profile.time(Phase::MapSort).as_secs_f64() / input_mb;
    let merge_s_mb = h.reduce_profile.time(Phase::Merge).as_secs_f64() / shuffled_mb;

    // 2. Hash-grouping cost: per-user counting with an in-memory hash
    //    combine (the mode where real hash-table grouping happens; the
    //    partition-only mode's grouping cost is ~zero by construction).
    let hashjob = per_user_count::job()
        .reducers(4)
        .collect_mode(CollectOutput::Discard)
        .backend(ReduceBackend::IncHash { early_every: None })
        .build()
        .expect("valid job");
    let o = engine.run(&hashjob, gen_splits()).expect("hash run");
    let o_input_mb = mb(o.input_bytes).max(1e-6);
    let hash_s_mb = o.map_profile.time(Phase::MapHash).as_secs_f64() / o_input_mb;

    // 3. Incremental-update cost: sessionization through the incremental
    //    hash backend (state appends per record).
    let incjob = sessionization::job()
        .reducers(4)
        .collect_mode(CollectOutput::Discard)
        .backend(ReduceBackend::IncHash { early_every: None })
        .build()
        .expect("valid job");
    let i = engine.run(&incjob, gen_splits()).expect("inc run");
    let i_shuffled_mb = mb(i.shuffled_bytes).max(1e-6);
    let inc_update_s_mb = i.reduce_profile.time(Phase::ReduceGroup).as_secs_f64() / i_shuffled_mb;

    let measured = MeasuredCosts {
        map_s_mb,
        sort_s_mb,
        hash_s_mb,
        merge_s_mb,
        inc_update_s_mb,
    };

    // Anchor the machine factor on the map function against the
    // reference model, then scale every measured cost by it.
    let reference = CostModel::calibrated();
    let machine_factor = reference.cpu_map_s_mb / measured.map_s_mb.max(1e-9);
    let clamp = |x: f64, lo: f64| x.max(lo);
    let model = CostModel {
        cpu_map_s_mb: reference.cpu_map_s_mb,
        cpu_sort_s_mb: clamp(measured.sort_s_mb * machine_factor, 1e-6),
        cpu_hash_s_mb: clamp(measured.hash_s_mb * machine_factor, 1e-6),
        cpu_merge_s_mb: clamp(measured.merge_s_mb * machine_factor, 1e-6),
        cpu_reduce_s_mb: reference.cpu_reduce_s_mb,
        cpu_inc_update_s_mb: clamp(measured.inc_update_s_mb * machine_factor, 1e-6),
    };
    Calibration {
        measured,
        machine_factor,
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_sane_ratios() {
        let cal = calibrate(60_000);
        let m = &cal.measured;
        assert!(m.map_s_mb > 0.0 && m.sort_s_mb > 0.0);
        assert!(m.hash_s_mb >= 0.0 && m.inc_update_s_mb > 0.0);
        assert!(cal.machine_factor > 0.0);
        // Every derived cost is positive and finite.
        for c in [
            cal.model.cpu_map_s_mb,
            cal.model.cpu_sort_s_mb,
            cal.model.cpu_hash_s_mb,
            cal.model.cpu_merge_s_mb,
            cal.model.cpu_inc_update_s_mb,
        ] {
            assert!(c > 0.0 && c.is_finite());
        }
    }
}
