//! Overhead guard for the trace layer: a *disabled* tracer's probe
//! sites must be free in the engine's hottest loop. The probe compiles
//! to a branch on a bool cached at `LocalTracer` creation, so even one
//! probe per record in a hash-aggregation loop should cost under 2% —
//! this bench asserts that from its own interleaved timing loop.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use onepass_core::trace::{LocalTracer, Tracer, Track};

const RECORDS: usize = 400_000;
const DISTINCT: u64 = 1 << 16;

/// Pseudorandom key stream with a realistic repeat distribution.
fn make_keys() -> Vec<u64> {
    (0..RECORDS as u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17) % DISTINCT)
        .collect()
}

fn aggregate_plain(keys: &[u64]) -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(2 * DISTINCT as usize);
    for &k in keys {
        *map.entry(k).or_insert(0) += 1;
    }
    map.len() as u64
}

/// The same loop with a trace probe per record — far denser than the
/// engine's real probe placement (per flush/spill), so it bounds the
/// worst case.
fn aggregate_probed(keys: &[u64], trace: &mut LocalTracer) -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(2 * DISTINCT as usize);
    for &k in keys {
        *map.entry(k).or_insert(0) += 1;
        trace.instant("update", "probe", &[]);
    }
    map.len() as u64
}

fn time_once(f: impl FnOnce() -> u64) -> Duration {
    let t = Instant::now();
    black_box(f());
    t.elapsed()
}

fn main() {
    let keys = make_keys();
    let disabled = Tracer::disabled();

    // Hard guard. Interleaved back-to-back pairs keep both variants
    // under the same thermal/scheduler conditions; scheduler noise only
    // ever *adds* time, so a real regression inflates every pair while
    // noise inflates scattered ones. Two noise-robust estimators — the
    // ratio of minima and the best paired ratio — must both exceed the
    // budget before we call it a regression.
    let mut best_plain = Duration::MAX;
    let mut best_probed = Duration::MAX;
    let mut best_pair_ratio = f64::INFINITY;
    for _ in 0..30 {
        let plain = time_once(|| aggregate_plain(&keys));
        let probed = time_once(|| {
            let mut t = disabled.local(Track::new("bench", 0));
            aggregate_probed(&keys, &mut t)
        });
        best_plain = best_plain.min(plain);
        best_probed = best_probed.min(probed);
        best_pair_ratio = best_pair_ratio.min(probed.as_secs_f64() / plain.as_secs_f64());
    }
    let min_ratio = best_probed.as_secs_f64() / best_plain.as_secs_f64();
    let ratio = min_ratio.min(best_pair_ratio);
    println!(
        "disabled-tracer probe overhead: {:+.2}% ({best_probed:?} vs {best_plain:?})",
        (min_ratio - 1.0) * 100.0
    );
    assert!(
        ratio < 1.02,
        "disabled tracer added {:.2}% to the hash-aggregation loop (budget 2%)",
        (ratio - 1.0) * 100.0
    );
}
