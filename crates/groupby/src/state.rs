//! [`StateBuf`]: one key's aggregate state, as every holder keeps it.
//!
//! §V's prototype keeps per-key state in byte arrays so that hashing beats
//! sorting on CPU. Most states are a fixed handful of bytes — a count, a
//! sum, a max, a rank — and a `Vec<u8>` makes each of them a pointer to a
//! separate 8-byte heap allocation: one `malloc` per key per table, and
//! one `free` when the table drains. A [`StateBuf`] is the same 24 bytes
//! as that `Vec<u8>`, but holds up to [`INLINE_CAPACITY`] bytes in place,
//! so those states live in the table slot itself. A state that grows past
//! that (a session list, a posting list) moves to the heap once and then
//! behaves exactly like the `Vec<u8>` it replaced.

use std::ops::{Deref, DerefMut};

/// The longest state a [`StateBuf`] holds without a heap allocation.
pub const INLINE_CAPACITY: usize = 15;

/// A per-key aggregate state: a byte string, read and written through
/// `Deref<Target = [u8]>` and the growth methods below. Which
/// representation holds the bytes is invisible to its users; budget
/// charges read the length, never the representation.
#[derive(Clone)]
pub struct StateBuf(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]`, with `len <= INLINE_CAPACITY`.
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAPACITY],
    },
    /// Anything that ever outgrew the inline bytes.
    Heap(Vec<u8>),
}

// The whole point: a table of states costs what a table of `Vec`s did.
const _: () = assert!(std::mem::size_of::<StateBuf>() == std::mem::size_of::<Vec<u8>>());

impl StateBuf {
    /// An empty state, inline.
    pub const fn new() -> Self {
        StateBuf(Repr::Inline {
            len: 0,
            bytes: [0; INLINE_CAPACITY],
        })
    }

    /// A state holding a copy of `bytes`: inline when it fits.
    pub fn from_slice(bytes: &[u8]) -> Self {
        let mut state = StateBuf::new();
        state.extend_from_slice(bytes);
        state
    }

    /// Whether the bytes live in place (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Append `more`, moving to the heap if the result outgrows the
    /// inline bytes.
    pub fn extend_from_slice(&mut self, more: &[u8]) {
        match &mut self.0 {
            Repr::Heap(v) => v.extend_from_slice(more),
            Repr::Inline { len, bytes } => {
                let (old, new) = (*len as usize, *len as usize + more.len());
                if new <= INLINE_CAPACITY {
                    bytes[old..new].copy_from_slice(more);
                    // `new` fits a u8: it is at most INLINE_CAPACITY.
                    *len = new as u8;
                } else {
                    let mut v = Vec::with_capacity(new);
                    v.extend_from_slice(&bytes[..old]);
                    v.extend_from_slice(more);
                    self.0 = Repr::Heap(v);
                }
            }
        }
    }

    /// Replace the contents with `bytes`. A state already on the heap
    /// reuses its buffer.
    pub fn set(&mut self, bytes: &[u8]) {
        self.clear();
        self.extend_from_slice(bytes);
    }

    /// Remove every byte, keeping the representation (and a heap
    /// buffer's capacity).
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(v) => v.clear(),
        }
    }
}

impl Default for StateBuf {
    fn default() -> Self {
        StateBuf::new()
    }
}

impl Deref for StateBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl DerefMut for StateBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Repr::Inline { len, bytes } => &mut bytes[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

/// Takes the `Vec` over as it is: no copy, and it stays on the heap.
impl From<Vec<u8>> for StateBuf {
    fn from(v: Vec<u8>) -> Self {
        StateBuf(Repr::Heap(v))
    }
}

impl PartialEq for StateBuf {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for StateBuf {}

impl std::fmt::Debug for StateBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("StateBuf").field(&&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One operation on a state and on its `Vec<u8>` model.
    #[derive(Debug, Clone)]
    enum Op {
        Extend(Vec<u8>),
        Set(Vec<u8>),
        Clear,
        /// Overwrite byte `at % len` (if any) through `deref_mut`.
        Write(usize, u8),
        /// Replace the state with its clone.
        Clone,
        /// Replace the state with `From<Vec<u8>>` of its bytes.
        FromVec,
    }

    fn op() -> impl Strategy<Value = Op> {
        let bytes = prop::collection::vec(any::<u8>(), 0..24);
        (0u8..7, bytes, any::<usize>(), any::<u8>()).prop_map(|(which, bytes, at, b)| match which {
            // Short appends, twice as likely as the rest, so sequences
            // wander across the 15-byte boundary instead of leaving it
            // at the first step.
            0 | 1 => Op::Extend(bytes[..bytes.len().min(8)].to_vec()),
            2 => Op::Set(bytes),
            3 => Op::Clear,
            4 => Op::Write(at, b),
            5 => Op::Clone,
            _ => Op::FromVec,
        })
    }

    proptest! {
        #[test]
        fn matches_a_vec_model_across_the_inline_boundary(
            start in prop::collection::vec(any::<u8>(), 0..20),
            ops in prop::collection::vec(op(), 0..40),
        ) {
            let mut state = StateBuf::from_slice(&start);
            let mut model = start.clone();
            prop_assert_eq!(state.is_inline(), start.len() <= INLINE_CAPACITY);
            for op in ops {
                match op {
                    Op::Extend(more) => {
                        let was_heap = !state.is_inline();
                        state.extend_from_slice(&more);
                        model.extend_from_slice(&more);
                        // Inline exactly while it never outgrew the inline bytes.
                        let inline = !was_heap && model.len() <= INLINE_CAPACITY;
                        prop_assert_eq!(state.is_inline(), inline);
                    }
                    Op::Set(bytes) => {
                        state.set(&bytes);
                        model = bytes;
                    }
                    Op::Clear => {
                        state.clear();
                        model.clear();
                    }
                    Op::Write(at, b) => {
                        if !model.is_empty() {
                            let at = at % model.len();
                            state[at] = b;
                            model[at] = b;
                        }
                    }
                    Op::Clone => state = state.clone(),
                    Op::FromVec => state = StateBuf::from(state.to_vec()),
                }
                prop_assert_eq!(&*state, model.as_slice());
                prop_assert_eq!(state.len(), model.len());
            }
            prop_assert_eq!(state.to_vec(), model);
        }
    }

    #[test]
    fn fixed_width_states_stay_inline() {
        let mut s = StateBuf::from_slice(&7u64.to_le_bytes());
        assert!(s.is_inline());
        s[..8].copy_from_slice(&9u64.to_le_bytes());
        assert_eq!(&*s, &9u64.to_le_bytes());
        s.extend_from_slice(&[1; 7]);
        assert!(s.is_inline(), "15 bytes still fit");
        s.extend_from_slice(&[2]);
        assert!(!s.is_inline(), "the 16th byte moves the state to the heap");
        assert_eq!(s.len(), 16);
        assert_eq!(StateBuf::default(), StateBuf::from(Vec::new()));
    }
}
