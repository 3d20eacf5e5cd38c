//! The aggregate-function contract shared by combine and reduce.
//!
//! The paper's incremental techniques hinge on reduce functions that can be
//! expressed as *mergeable per-key states* ("the incremental hash
//! technique maintains a state for each key, and updates it incrementally",
//! §V). [`Aggregator`] captures that: `init`/`update` fold raw values into
//! a byte-encoded state, `merge` combines two partial states (needed when a
//! spilled partial state meets a resident one, and for combiner→reducer
//! composition), and `finish` renders the final output value.
//!
//! States are byte strings, matching the engine-wide byte-oriented data
//! plane: states can be spilled, shuffled and merged without knowing their
//! semantics. A holder keeps each one as a [`StateBuf`], so a state of at
//! most [`INLINE_CAPACITY`](crate::state::INLINE_CAPACITY) bytes — a
//! count, a sum, a max, a short first value — lives in its table slot with
//! no heap allocation; `finish` appends the output to a buffer the holder
//! clears and reuses from key to key.

use crate::state::StateBuf;

/// A commutative, associative aggregate over the values of one key.
pub trait Aggregator: Send + Sync {
    /// Initial state for a key, from its first value.
    fn init(&self, key: &[u8], value: &[u8]) -> StateBuf;

    /// Fold one more raw value into an existing state.
    fn update(&self, key: &[u8], state: &mut StateBuf, value: &[u8]);

    /// Merge another *state* (not raw value) into `state`.
    fn merge(&self, key: &[u8], state: &mut StateBuf, other_state: &[u8]);

    /// Append the final output value rendered from `state` to `out`, which
    /// the caller has cleared. Default: the state bytes themselves.
    fn finish(&self, _key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(state);
    }

    /// Whether the aggregate can serve as a *combiner* (partial
    /// aggregation on the map side). True for all classic distributive /
    /// algebraic aggregates; false for holistic ones.
    fn combinable(&self) -> bool {
        true
    }
}

/// Delegation through shared pointers, so `Arc<dyn Aggregator>` is itself
/// an aggregate (needed to wrap dynamic aggregates in adapters like
/// [`StateInput`]).
impl<T: Aggregator + ?Sized> Aggregator for std::sync::Arc<T> {
    fn init(&self, key: &[u8], value: &[u8]) -> StateBuf {
        (**self).init(key, value)
    }

    fn update(&self, key: &[u8], state: &mut StateBuf, value: &[u8]) {
        (**self).update(key, state, value)
    }

    fn merge(&self, key: &[u8], state: &mut StateBuf, other_state: &[u8]) {
        (**self).merge(key, state, other_state)
    }

    fn finish(&self, key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        (**self).finish(key, state, out)
    }

    fn combinable(&self) -> bool {
        (**self).combinable()
    }
}

/// `agg`'s output for `state`, rendered into a holder's reusable `out`
/// buffer: how every holder in this crate finishes a key.
pub(crate) fn render<'o>(
    agg: &dyn Aggregator,
    key: &[u8],
    state: &[u8],
    out: &'o mut Vec<u8>,
) -> &'o [u8] {
    out.clear();
    agg.finish(key, state, out);
    out
}

/// Little-endian u64 from exactly eight bytes; `None` at any other length.
pub(crate) fn le_u64(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

fn dec_u64(state: &[u8]) -> u64 {
    // Invariant: every u64 state here was built by `enc_u64`, and a u64
    // aggregate's input values are eight bytes by the job's own contract
    // with its map function — any other length is a bug in the job, not
    // data to skip.
    le_u64(state).expect("8-byte aggregate state")
}

fn enc_u64(x: u64) -> StateBuf {
    StateBuf::from_slice(&x.to_le_bytes())
}

/// Overwrite an 8-byte u64 state in place.
fn set_u64(state: &mut StateBuf, x: u64) {
    state.copy_from_slice(&x.to_le_bytes());
}

/// COUNT(*): state is a little-endian u64 occurrence count; raw values are
/// ignored (or, if 8 bytes long, *not* interpreted — count semantics are
/// strictly "one per record"). Use [`SumAgg`] to add pre-counted partials.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountAgg;

impl Aggregator for CountAgg {
    fn init(&self, _key: &[u8], _value: &[u8]) -> StateBuf {
        enc_u64(1)
    }

    fn update(&self, _key: &[u8], state: &mut StateBuf, _value: &[u8]) {
        set_u64(state, dec_u64(state) + 1);
    }

    fn merge(&self, _key: &[u8], state: &mut StateBuf, other: &[u8]) {
        set_u64(state, dec_u64(state) + dec_u64(other));
    }
}

/// SUM over little-endian u64 values. Because a partial sum is itself a
/// valid input value, SUM composes with itself as map-side combiner — the
/// canonical word-count / page-frequency aggregate.
#[derive(Debug, Default, Clone, Copy)]
pub struct SumAgg;

impl Aggregator for SumAgg {
    fn init(&self, _key: &[u8], value: &[u8]) -> StateBuf {
        enc_u64(dec_u64(value))
    }

    fn update(&self, _key: &[u8], state: &mut StateBuf, value: &[u8]) {
        set_u64(state, dec_u64(state) + dec_u64(value));
    }

    fn merge(&self, key: &[u8], state: &mut StateBuf, other: &[u8]) {
        self.update(key, state, other);
    }
}

/// MAX over little-endian u64 values.
#[derive(Debug, Default, Clone, Copy)]
pub struct MaxAgg;

impl Aggregator for MaxAgg {
    fn init(&self, _key: &[u8], value: &[u8]) -> StateBuf {
        enc_u64(dec_u64(value))
    }

    fn update(&self, _key: &[u8], state: &mut StateBuf, value: &[u8]) {
        set_u64(state, dec_u64(state).max(dec_u64(value)));
    }

    fn merge(&self, key: &[u8], state: &mut StateBuf, other: &[u8]) {
        self.update(key, state, other);
    }
}

/// Keep the first value seen for a key (arbitrary bytes). Deterministic
/// only when every key carries a single distinct value — the shape used
/// to turn parsed records into a keyed dataset (e.g. a cached dimension
/// table or an iterative workload's initial state), where keys are
/// unique by construction and "first" is therefore "the" value.
#[derive(Debug, Default, Clone, Copy)]
pub struct FirstAgg;

impl Aggregator for FirstAgg {
    fn init(&self, _key: &[u8], value: &[u8]) -> StateBuf {
        StateBuf::from_slice(value)
    }

    fn update(&self, _key: &[u8], _state: &mut StateBuf, _value: &[u8]) {}

    fn merge(&self, _key: &[u8], _state: &mut StateBuf, _other: &[u8]) {}
}

/// Collect all values of a key as length-prefixed concatenation
/// (`[u32 len][bytes]`…). This models *holistic* reduce functions —
/// sessionization and inverted-list construction — whose state is linear
/// in the number of values and which have no effective combiner.
#[derive(Debug, Default, Clone, Copy)]
pub struct ListAgg;

/// Append `entry` to a framed list: `[u32 len][bytes]`…, the layout of
/// [`ListAgg`] and [`JoinAgg`](crate::JoinAgg) states and of the latter's
/// output.
pub(crate) fn push_frame(list: &mut Vec<u8>, entry: &[u8]) {
    list.extend_from_slice(&(entry.len() as u32).to_le_bytes());
    list.extend_from_slice(entry);
}

/// The entries of a framed list. [`push_frame`] only ever writes whole
/// frames; a tail that is not one (foreign bytes) ends the walk.
pub(crate) fn frames(mut list: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (len, tail) = list.split_first_chunk::<4>()?;
        let (entry, tail) = tail.split_at_checked(u32::from_le_bytes(*len) as usize)?;
        list = tail;
        Some(entry)
    })
}

impl ListAgg {
    /// Decode a list state back into its elements.
    pub fn decode(state: &[u8]) -> Vec<Vec<u8>> {
        frames(state).map(<[u8]>::to_vec).collect()
    }
}

impl Aggregator for ListAgg {
    fn init(&self, key: &[u8], value: &[u8]) -> StateBuf {
        let mut s = StateBuf::new();
        self.update(key, &mut s, value);
        s
    }

    fn update(&self, _key: &[u8], state: &mut StateBuf, value: &[u8]) {
        state.extend_from_slice(&(value.len() as u32).to_le_bytes());
        state.extend_from_slice(value);
    }

    fn merge(&self, _key: &[u8], state: &mut StateBuf, other: &[u8]) {
        // Partial lists concatenate; element order across partials is not
        // semantically meaningful (MapReduce gives no value-order
        // guarantee within a group).
        state.extend_from_slice(other);
    }

    fn combinable(&self) -> bool {
        // A list combiner performs no data reduction ("intermediate data
        // is large due to the reorganization of all click logs", §III-A) —
        // report it as non-combinable so engines skip a useless pass.
        false
    }
}

/// AVG over little-endian u64 values: the canonical *algebraic* aggregate
/// — not itself distributive, but expressible as a mergeable (sum, count)
/// state, which is exactly the paper's "state usually sublinear in the
/// number of values aggregated" (§V). `finish` renders the mean as a
/// little-endian f64.
#[derive(Debug, Default, Clone, Copy)]
pub struct AvgAgg;

impl AvgAgg {
    fn decode(state: &[u8]) -> (u64, u64) {
        // Invariant: only `set` builds an AVG state — sum then count,
        // eight bytes each.
        (dec_u64(&state[..8]), dec_u64(&state[8..]))
    }

    /// Write `(sum, count)` into `state`, in place once it has the shape.
    fn set(state: &mut StateBuf, sum: u64, count: u64) {
        let mut bytes = [0; 16];
        bytes[..8].copy_from_slice(&sum.to_le_bytes());
        bytes[8..].copy_from_slice(&count.to_le_bytes());
        state.set(&bytes);
    }

    /// Decode a finished output value back into the mean.
    pub fn decode_mean(out: &[u8]) -> f64 {
        f64::from_bits(dec_u64(out))
    }
}

impl Aggregator for AvgAgg {
    fn init(&self, _key: &[u8], value: &[u8]) -> StateBuf {
        let mut state = StateBuf::new();
        Self::set(&mut state, dec_u64(value), 1);
        state
    }

    fn update(&self, _key: &[u8], state: &mut StateBuf, value: &[u8]) {
        let (sum, count) = Self::decode(state);
        Self::set(state, sum + dec_u64(value), count + 1);
    }

    fn merge(&self, _key: &[u8], state: &mut StateBuf, other: &[u8]) {
        let (s1, c1) = Self::decode(state);
        let (s2, c2) = Self::decode(other);
        Self::set(state, s1 + s2, c1 + c2);
    }

    fn finish(&self, _key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        let (sum, count) = Self::decode(state);
        let mean = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        };
        out.extend_from_slice(&mean.to_le_bytes());
    }
}

/// COUNT(DISTINCT value) — approximate, via a HyperLogLog state. The
/// paper's incremental framework explicitly allows approximate
/// computation (§IV proposal (ii)); distinct counting is the aggregate
/// that requires it: the exact state is a set (linear in distinct
/// values), while this state is a fixed `1 + 2^p` bytes, mergeable, and
/// within ~`1.04/sqrt(2^p)` relative error. `finish` renders the
/// estimate as a little-endian u64.
#[derive(Debug, Clone, Copy)]
pub struct DistinctAgg {
    /// HyperLogLog precision (`4..=18`); state is `1 + 2^p` bytes.
    pub precision: u8,
}

impl Default for DistinctAgg {
    fn default() -> Self {
        DistinctAgg { precision: 12 }
    }
}

impl DistinctAgg {
    /// Decode a finished output value back into the distinct estimate.
    pub fn decode_estimate(out: &[u8]) -> u64 {
        dec_u64(out)
    }
}

impl Aggregator for DistinctAgg {
    fn init(&self, _key: &[u8], value: &[u8]) -> StateBuf {
        let mut state = onepass_sketch::HyperLogLog::new(self.precision).to_bytes();
        onepass_sketch::HyperLogLog::insert_raw(&mut state, value);
        state.into()
    }

    fn update(&self, _key: &[u8], state: &mut StateBuf, value: &[u8]) {
        let ok = onepass_sketch::HyperLogLog::insert_raw(state, value);
        debug_assert!(ok, "malformed HLL state");
    }

    fn merge(&self, _key: &[u8], state: &mut StateBuf, other: &[u8]) {
        let ok = onepass_sketch::HyperLogLog::merge_raw(state, other);
        debug_assert!(ok, "mismatched HLL states");
    }

    fn finish(&self, _key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        let est = onepass_sketch::HyperLogLog::from_bytes(state)
            .map(|h| h.estimate().round() as u64)
            .unwrap_or(0);
        out.extend_from_slice(&est.to_le_bytes());
    }
}

/// Adapter for inputs that are already partial aggregate *states* (map-side
/// combine ran): `init`/`update` route to the inner aggregate's `merge`.
/// Lets any [`GroupBy`](crate::GroupBy) operator consume combined shuffle
/// segments without a separate code path.
#[derive(Debug, Clone)]
pub struct StateInput<A>(pub A);

impl<A: Aggregator> Aggregator for StateInput<A> {
    fn init(&self, _key: &[u8], value: &[u8]) -> StateBuf {
        StateBuf::from_slice(value)
    }

    fn update(&self, key: &[u8], state: &mut StateBuf, value: &[u8]) {
        self.0.merge(key, state, value);
    }

    fn merge(&self, key: &[u8], state: &mut StateBuf, other_state: &[u8]) {
        self.0.merge(key, state, other_state);
    }

    fn finish(&self, key: &[u8], state: &[u8], out: &mut Vec<u8>) {
        self.0.finish(key, state, out)
    }

    fn combinable(&self) -> bool {
        self.0.combinable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `finish` into a fresh buffer.
    fn finished(agg: &dyn Aggregator, key: &[u8], state: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        agg.finish(key, state, &mut out);
        out
    }

    #[test]
    fn state_input_merges_partials() {
        let a = StateInput(SumAgg);
        // Two partial sums 5 and 7 arrive as "values".
        let mut s = a.init(b"k", &5u64.to_le_bytes());
        a.update(b"k", &mut s, &7u64.to_le_bytes());
        assert_eq!(dec_u64(&finished(&a, b"k", &s)), 12);

        let b = StateInput(CountAgg);
        // Partial counts 3 and 4 must add, not count-as-one.
        let mut s = b.init(b"k", &3u64.to_le_bytes());
        b.update(b"k", &mut s, &4u64.to_le_bytes());
        assert_eq!(dec_u64(&s), 7);
    }

    #[test]
    fn count_agg_counts_records() {
        let a = CountAgg;
        let mut s = a.init(b"k", b"whatever");
        a.update(b"k", &mut s, b"x");
        a.update(b"k", &mut s, b"y");
        assert_eq!(dec_u64(&s), 3);
        let other = a.init(b"k", b"z");
        a.merge(b"k", &mut s, &other);
        assert_eq!(dec_u64(&finished(&a, b"k", &s)), 4);
    }

    #[test]
    fn sum_agg_is_self_combining() {
        let a = SumAgg;
        let mut s = a.init(b"k", &5u64.to_le_bytes());
        a.update(b"k", &mut s, &7u64.to_le_bytes());
        // A partial sum used as a value gives the same result as merge.
        let mut s2 = s.clone();
        a.update(b"k", &mut s2, &100u64.to_le_bytes());
        let mut s3 = s.clone();
        a.merge(b"k", &mut s3, &100u64.to_le_bytes());
        assert_eq!(s2, s3);
        assert_eq!(dec_u64(&s2), 112);
    }

    #[test]
    fn max_agg() {
        let a = MaxAgg;
        let mut s = a.init(b"k", &5u64.to_le_bytes());
        a.update(b"k", &mut s, &3u64.to_le_bytes());
        assert_eq!(dec_u64(&s), 5);
        a.merge(b"k", &mut s, &9u64.to_le_bytes());
        assert_eq!(dec_u64(&s), 9);
    }

    #[test]
    fn distinct_agg_estimates_cardinality() {
        let a = DistinctAgg::default();
        let mut s = a.init(b"url", &0u32.to_le_bytes());
        for i in 1..2000u32 {
            a.update(b"url", &mut s, &i.to_le_bytes());
        }
        // Merge a partial covering 1000..3000 (overlap 1000..2000).
        let mut other = a.init(b"url", &1000u32.to_le_bytes());
        for i in 1001..3000u32 {
            a.update(b"url", &mut other, &i.to_le_bytes());
        }
        a.merge(b"url", &mut s, &other);
        let est = DistinctAgg::decode_estimate(&finished(&a, b"url", &s));
        let err = (est as f64 - 3000.0).abs() / 3000.0;
        assert!(err < 0.07, "estimate {est} vs 3000 (err {err:.3})");
        assert!(a.combinable());
    }

    #[test]
    fn avg_agg_is_algebraic() {
        let a = AvgAgg;
        let mut s = a.init(b"k", &10u64.to_le_bytes());
        a.update(b"k", &mut s, &20u64.to_le_bytes());
        // Merge a partial covering {30, 40}.
        let mut other = a.init(b"k", &30u64.to_le_bytes());
        a.update(b"k", &mut other, &40u64.to_le_bytes());
        a.merge(b"k", &mut s, &other);
        let mean = AvgAgg::decode_mean(&finished(&a, b"k", &s));
        assert!((mean - 25.0).abs() < 1e-12);
        assert!(a.combinable());
    }

    #[test]
    fn list_agg_roundtrip_and_merge() {
        let a = ListAgg;
        let mut s = a.init(b"k", b"one");
        a.update(b"k", &mut s, b"");
        a.update(b"k", &mut s, b"three");
        assert_eq!(
            ListAgg::decode(&s),
            vec![b"one".to_vec(), b"".to_vec(), b"three".to_vec()]
        );
        let other = a.init(b"k", b"four");
        a.merge(b"k", &mut s, &other);
        assert_eq!(ListAgg::decode(&s).len(), 4);
        assert!(!a.combinable());
        assert!(CountAgg.combinable());
    }
}
