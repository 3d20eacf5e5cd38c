//! The engine's one byte-keyed hash table.
//!
//! §V's prototype keeps its hash tables in byte arrays so that hashing
//! beats sorting on CPU; this is that table. Every holder of per-key
//! state — the map-side combiner, the incremental and hybrid hash
//! group-bys, the sort-merge snapshot, the frequent-items summary — sits
//! on an [`FpTable`], and every operation takes the key's
//! [`fingerprint`](crate::hashlib::fingerprint) from the caller, who
//! computes it once per record and reuses it for routing, probing and
//! inserting.
//!
//! Layout: an open-addressed slot array of entry indices (linear probing,
//! load under 7/8), and per entry a fingerprint, a key range into one
//! shared key arena and a value, all in insertion order. A probe compares
//! fingerprints before it touches key bytes; a miss appends the key to the
//! arena instead of boxing it; growth and [`FpTable::retain`] re-place
//! entries from the stored fingerprints and never re-read a key.

/// What a budgeted holder charges per entry on top of key and value
/// payload: the slot, the fingerprint, the key range and the value's
/// header.
pub const ENTRY_OVERHEAD: usize = 48;

/// Free marker in the slot array.
const EMPTY: u32 = u32::MAX;

/// Byte-string keys to `V`, probed by precomputed fingerprint. Callers
/// must pass the same fingerprint for the same key every time; which
/// function produced it is their business (tests force collisions).
#[derive(Debug, Clone)]
pub struct FpTable<V> {
    /// Entry indices, length zero or a power of two.
    slots: Vec<u32>,
    /// Per-entry fingerprints, parallel to `key_ranges` and `values`.
    fps: Vec<u64>,
    /// Per-entry `(start, end)` into `keys`.
    key_ranges: Vec<(u32, u32)>,
    values: Vec<V>,
    /// Key-byte arena, keys back to back in entry order.
    keys: Vec<u8>,
}

impl<V> Default for FpTable<V> {
    fn default() -> Self {
        FpTable {
            slots: Vec::new(),
            fps: Vec::new(),
            key_ranges: Vec::new(),
            values: Vec::new(),
            keys: Vec::new(),
        }
    }
}

impl<V> FpTable<V> {
    /// An empty table; allocates at the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table whose slot array already fits `entries`: for a
    /// holder that knows its size, one allocation up front and no doubling.
    pub fn with_capacity(entries: usize) -> Self {
        let mut table = Self::default();
        table.rebuild((entries * 8 / 7 + 1).next_power_of_two().max(64));
        table
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    fn key(&self, e: usize) -> &[u8] {
        let (start, end) = self.key_ranges[e];
        &self.keys[start as usize..end as usize]
    }

    /// The entry holding `key`, or the free slot its probe ends at. Needs
    /// a non-empty slot array (load under 7/8 leaves a free slot).
    #[inline]
    fn find(&self, fp: u64, key: &[u8]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = fp as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return Err(i);
            }
            let e = slot as usize;
            if self.fps[e] == fp && self.key(e) == key {
                return Ok(e);
            }
            i = (i + 1) & mask;
        }
    }

    /// The value of `key`, whose fingerprint is `fp`.
    #[inline]
    pub fn get(&self, fp: u64, key: &[u8]) -> Option<&V> {
        if self.fps.is_empty() {
            return None;
        }
        self.find(fp, key).ok().map(|e| &self.values[e])
    }

    /// The value of `key`, whose fingerprint is `fp`, to update in place.
    #[inline]
    pub fn get_mut(&mut self, fp: u64, key: &[u8]) -> Option<&mut V> {
        if self.fps.is_empty() {
            return None;
        }
        self.find(fp, key).ok().map(|e| &mut self.values[e])
    }

    /// Set `key`'s value, returning the one it replaces. A new key goes to
    /// the end of the iteration order.
    pub fn insert(&mut self, fp: u64, key: &[u8], value: V) -> Option<V> {
        if self.fps.len() >= self.slots.len() / 8 * 7 {
            self.rebuild((self.slots.len() * 2).max(64));
        }
        match self.find(fp, key) {
            Ok(e) => Some(std::mem::replace(&mut self.values[e], value)),
            Err(slot) => {
                let start = self.keys.len();
                self.keys.extend_from_slice(key);
                assert!(
                    self.keys.len() <= u32::MAX as usize,
                    "FpTable key arena over 4 GiB"
                );
                self.slots[slot] = self.fps.len() as u32;
                self.fps.push(fp);
                self.key_ranges.push((start as u32, self.keys.len() as u32));
                self.values.push(value);
                None
            }
        }
    }

    /// Size the slot array to `cap` and re-place every entry from its
    /// stored fingerprint.
    fn rebuild(&mut self, cap: usize) {
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        let mask = cap - 1;
        for (e, &fp) in self.fps.iter().enumerate() {
            let mut i = fp as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = e as u32;
        }
    }

    /// `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &V)> {
        self.values
            .iter()
            .enumerate()
            .map(|(e, value)| (self.key(e), value))
    }

    /// Hand every entry to `f` in insertion order and leave the table
    /// empty, its allocations kept for the next fill.
    pub fn drain(&mut self, mut f: impl FnMut(&[u8], V)) {
        for (&(start, end), value) in self.key_ranges.iter().zip(self.values.drain(..)) {
            f(&self.keys[start as usize..end as usize], value);
        }
        self.slots.fill(EMPTY);
        self.fps.clear();
        self.key_ranges.clear();
        self.keys.clear();
    }

    /// Keep the entries `keep(fingerprint, key, value)` says to, in order;
    /// drop the rest, close the gaps in the key arena and re-place the
    /// survivors.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &[u8], &mut V) -> bool) {
        let (mut kept, mut arena) = (0usize, 0usize);
        for e in 0..self.fps.len() {
            let (start, end) = self.key_ranges[e];
            let (start, end) = (start as usize, end as usize);
            if !keep(self.fps[e], &self.keys[start..end], &mut self.values[e]) {
                continue;
            }
            self.keys.copy_within(start..end, arena);
            self.key_ranges[kept] = (arena as u32, (arena + end - start) as u32);
            self.fps[kept] = self.fps[e];
            self.values.swap(kept, e);
            arena += end - start;
            kept += 1;
        }
        if kept == self.fps.len() {
            return;
        }
        self.fps.truncate(kept);
        self.key_ranges.truncate(kept);
        self.values.truncate(kept);
        self.keys.truncate(arena);
        self.rebuild(self.slots.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashlib::fingerprint;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Four fingerprints for every key there is: distinct keys collide.
    fn colliding(key: &[u8]) -> u64 {
        key.first().map_or(0, |&b| u64::from(b) % 4)
    }

    /// The table and its model: key → (insertion sequence, value).
    struct Pair {
        fp: fn(&[u8]) -> u64,
        table: FpTable<u32>,
        model: BTreeMap<Vec<u8>, (u64, u32)>,
        seq: u64,
    }

    impl Pair {
        fn new(fp: fn(&[u8]) -> u64) -> Self {
            Pair {
                fp,
                table: FpTable::new(),
                model: BTreeMap::new(),
                seq: 0,
            }
        }

        fn insert(&mut self, key: &[u8], value: u32) {
            self.seq += 1;
            let old = self.table.insert((self.fp)(key), key, value);
            let entry = self.model.entry(key.to_vec()).or_insert((self.seq, value));
            assert_eq!(old.is_some(), entry.0 != self.seq, "{key:?}");
            if let Some(old) = old {
                assert_eq!(old, entry.1);
            }
            entry.1 = value;
        }

        fn update(&mut self, key: &[u8], by: u32) {
            let got = self.table.get_mut((self.fp)(key), key);
            let want = self.model.get_mut(key);
            assert_eq!(got.is_some(), want.is_some(), "{key:?}");
            if let (Some(got), Some(want)) = (got, want) {
                *got = got.wrapping_add(by);
                want.1 = want.1.wrapping_add(by);
            }
        }

        fn retain(&mut self, keep: impl Fn(&[u8], u32) -> bool) {
            let fp = self.fp;
            self.table.retain(|stored, key, value| {
                assert_eq!(stored, fp(key), "retain hands back the stored fingerprint");
                keep(key, *value)
            });
            self.model.retain(|key, &mut (_, value)| keep(key, value));
        }

        fn in_order(&self) -> Vec<(Vec<u8>, u32)> {
            let mut entries: Vec<_> = self.model.iter().collect();
            entries.sort_by_key(|(_, &(seq, _))| seq);
            entries
                .into_iter()
                .map(|(key, &(_, value))| (key.clone(), value))
                .collect()
        }

        fn check(&self) {
            assert_eq!(self.table.len(), self.model.len());
            assert_eq!(self.table.is_empty(), self.model.is_empty());
            let got: Vec<_> = self
                .table
                .iter()
                .map(|(key, &value)| (key.to_vec(), value))
                .collect();
            assert_eq!(got, self.in_order(), "iteration is insertion order");
            for (key, &(_, value)) in &self.model {
                assert_eq!(self.table.get((self.fp)(key), key), Some(&value));
            }
        }

        fn drain(&mut self) {
            let mut got = Vec::new();
            self.table
                .drain(|key, value| got.push((key.to_vec(), value)));
            assert_eq!(got, self.in_order());
            self.model.clear();
        }
    }

    /// One step of the interleaving: `(operation, key id, value)`.
    fn apply(pair: &mut Pair, op: u8, id: u16, value: u32) {
        // Keys of 0–9 bytes that share prefixes and first bytes.
        let text = format!("{id:03}-{id}");
        let key = &text.as_bytes()[..(id as usize % 10).min(text.len())];
        match op {
            0..=5 => pair.insert(key, value),
            6..=9 => pair.update(key, value),
            10 => pair.retain(|_, v| v % 3 != value % 3),
            11 => pair.retain(|k, _| k.len() % 2 == id as usize % 2),
            12 => pair.retain(|_, _| false),
            _ => pair.drain(),
        }
    }

    proptest! {
        #[test]
        fn matches_a_btreemap_model_under_interleaved_operations(
            ops in prop::collection::vec((0u8..14, 0u16..400, any::<u32>()), 0..600),
        ) {
            for fp in [fingerprint as fn(&[u8]) -> u64, colliding] {
                let mut pair = Pair::new(fp);
                for &(op, id, value) in &ops {
                    apply(&mut pair, op, id, value);
                    if op >= 10 {
                        pair.check();
                    }
                }
                pair.check();
            }
        }
    }

    #[test]
    fn grows_through_several_doublings_and_keeps_every_entry() {
        for fp in [fingerprint as fn(&[u8]) -> u64, colliding] {
            let mut pair = Pair::new(fp);
            for i in 0..1000u32 {
                pair.insert(&i.to_le_bytes(), i);
            }
            pair.check();
            assert_eq!(pair.table.get(fp(b"absent"), b"absent"), None);
        }
    }

    #[test]
    fn a_presized_table_never_grows_within_its_capacity() {
        for entries in [0usize, 1, 55, 56, 57, 1024, 1793] {
            let mut t = FpTable::with_capacity(entries);
            let slots = t.slots.len();
            for i in 0..entries as u32 {
                t.insert(fingerprint(&i.to_le_bytes()), &i.to_le_bytes(), i);
            }
            assert_eq!(t.slots.len(), slots, "{entries} entries");
            assert_eq!(t.len(), entries);
        }
    }

    #[test]
    fn equal_fingerprints_on_distinct_keys_stay_distinct() {
        let mut t = FpTable::new();
        assert_eq!(t.insert(7, b"a", 1), None);
        assert_eq!(t.insert(7, b"b", 2), None);
        assert_eq!(t.insert(7, b"", 3), None);
        assert_eq!(t.insert(7, b"a", 10), Some(1));
        assert_eq!(
            (t.get(7, b"a"), t.get(7, b"b"), t.get(7, b"")),
            (Some(&10), Some(&2), Some(&3))
        );
        assert_eq!(t.get(7, b"c"), None);
        t.retain(|_, key, _| key != b"b");
        assert_eq!((t.get(7, b"a"), t.get(7, b"b")), (Some(&10), None));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn retain_removing_everything_leaves_a_usable_table() {
        let mut pair = Pair::new(fingerprint);
        for i in 0..200u32 {
            pair.insert(format!("k{i}").as_bytes(), i);
        }
        pair.retain(|_, _| false);
        pair.check();
        assert_eq!(pair.table.get_mut(fingerprint(b"k5"), b"k5"), None);
        for i in 0..300u32 {
            pair.insert(format!("k{i}").as_bytes(), i + 1);
        }
        pair.check();
        pair.drain();
        pair.check();
        pair.insert(b"again", 1);
        pair.check();
    }

    #[test]
    fn an_empty_table_answers_without_allocating() {
        let mut t: FpTable<u8> = FpTable::new();
        assert_eq!(t.get(1, b"x"), None);
        assert_eq!(t.get_mut(1, b"x"), None);
        t.retain(|_, _, _| true);
        t.drain(|_, _| panic!("nothing to drain"));
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.slots.capacity(), 0);
    }
}
