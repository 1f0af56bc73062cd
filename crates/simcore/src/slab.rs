//! Index-stable arena with free-list reuse.
//!
//! Long simulations allocate and retire millions of short-lived records
//! (DMA transfers, in-flight requests). A [`Slab`] keeps them in one
//! growable vector: [`Slab::insert`] returns a dense `u32` key that stays
//! valid until [`Slab::remove`], and removed slots go on a free list so
//! steady-state churn allocates nothing. Keys are plain indices — cheap
//! to store inside event payloads and to hand across module boundaries
//! (e.g. the bus model stamps each transfer's slab slot into the requests
//! it emits, so the engine resolves request → transfer record with one
//! vector index instead of a map lookup).
//!
//! Invariants:
//!
//! * A key returned by `insert` refers to the same value until `remove`d.
//! * `remove` is the only way to free a slot; freed slots are reused in
//!   LIFO order (newest-freed first), keeping the occupied prefix dense
//!   under steady-state churn.
//! * Indexing a vacant slot is a logic error and panics — the slab never
//!   silently resurrects freed records. (The workspace's simulators only
//!   index with live keys they minted; stale-key *detection* — e.g.
//!   generation counters — is deliberately out of scope because keys are
//!   engine-internal and never cross a trust boundary.)
//!
//! Determinism: key assignment depends only on the insert/remove call
//! sequence, so slab keys are as replay-stable as the event order that
//! produced them.
//!
//! # Example
//!
//! ```
//! use simcore::Slab;
//!
//! let mut slab: Slab<&'static str> = Slab::new();
//! let a = slab.insert("alpha");
//! let b = slab.insert("beta");
//! assert_eq!(slab[a], "alpha");
//! assert_eq!(slab.remove(b), "beta");
//! let c = slab.insert("gamma"); // reuses beta's slot
//! assert_eq!(c, b);
//! assert_eq!(slab.len(), 2);
//! ```

use std::ops::{Index, IndexMut};

enum Slot<T> {
    /// Occupied slot holding a live record.
    Full(T),
    /// Vacant slot; the payload is the next free slot index, or
    /// `u32::MAX` for the end of the free list.
    Free(u32),
}

/// End-of-free-list sentinel.
const NIL: u32 = u32::MAX;

/// A growable arena of `T` with stable `u32` keys and free-list reuse.
///
/// See the [module docs](self) for invariants and an example.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    len: u32,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// Creates an empty slab with room for `cap` records before growing.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free_head: NIL,
            len: 0,
        }
    }

    /// Stores `value` and returns its key. Reuses the most recently
    /// freed slot if one exists; otherwise appends.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if self.free_head != NIL {
            let key = self.free_head;
            let slot = &mut self.slots[key as usize];
            match *slot {
                Slot::Free(next) => {
                    self.free_head = next;
                    *slot = Slot::Full(value);
                    key
                }
                // simlint::allow(panic-path, "free-list links are only ever written to point at vacant slots; corruption here is memory-unsafe to continue from")
                Slot::Full(_) => unreachable!("free list points at an occupied slot"),
            }
        } else {
            let key = self.slots.len() as u32;
            assert!(key != NIL, "slab exceeded u32 key space");
            self.slots.push(Slot::Full(value));
            key
        }
    }

    /// Removes and returns the record at `key`, freeing its slot.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range or already vacant.
    pub fn remove(&mut self, key: u32) -> T {
        let slot = &mut self.slots[key as usize];
        match std::mem::replace(slot, Slot::Free(self.free_head)) {
            Slot::Full(value) => {
                self.free_head = key;
                self.len -= 1;
                value
            }
            Slot::Free(next) => {
                // Undo the replace so a caught panic leaves the slab intact.
                *slot = Slot::Free(next);
                // simlint::allow(panic-path, "double-remove is a use-after-free analogue; continuing would silently corrupt the arena")
                panic!("slab remove of vacant key {key}");
            }
        }
    }

    /// A shared reference to the record at `key`, or `None` if vacant or
    /// out of range.
    pub fn get(&self, key: u32) -> Option<&T> {
        match self.slots.get(key as usize) {
            Some(Slot::Full(value)) => Some(value),
            _ => None,
        }
    }

    /// A mutable reference to the record at `key`, or `None` if vacant
    /// or out of range.
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        match self.slots.get_mut(key as usize) {
            Some(Slot::Full(value)) => Some(value),
            _ => None,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no records are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live records, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|slot| match slot {
            Slot::Full(value) => Some(value),
            Slot::Free(_) => None,
        })
    }

    /// Total slots ever allocated (live + free): the arena's footprint.
    pub fn capacity_used(&self) -> usize {
        self.slots.len()
    }

    /// Drops all records and resets the free list. Slot storage is kept,
    /// so a cleared slab re-fills without allocating — but previously
    /// issued keys are invalidated and key assignment restarts from 0.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_head = NIL;
        self.len = 0;
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;

    fn index(&self, key: u32) -> &T {
        match &self.slots[key as usize] {
            Slot::Full(value) => value,
            // simlint::allow(panic-path, "Index contract mirrors Vec: a vacant key is a dangling handle, aborting beats aliasing")
            Slot::Free(_) => panic!("slab index of vacant key {key}"),
        }
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, key: u32) -> &mut T {
        match &mut self.slots[key as usize] {
            Slot::Full(value) => value,
            // simlint::allow(panic-path, "Index contract mirrors Vec: a vacant key is a dangling handle, aborting beats aliasing")
            Slot::Free(_) => panic!("slab index of vacant key {key}"),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slab")
            .field("len", &self.len)
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab[a], 10);
        assert_eq!(*slab.get(b).unwrap(), 20);
        slab[a] = 11;
        assert_eq!(slab.remove(a), 11);
        assert_eq!(slab.len(), 1);
        assert!(slab.get(a).is_none());
        assert_eq!(slab[b], 20);
    }

    #[test]
    fn iter_visits_live_records_only() {
        let mut slab = Slab::new();
        let keys: Vec<u32> = (0..4).map(|i| slab.insert(i)).collect();
        slab.remove(keys[1]);
        assert_eq!(slab.iter().copied().collect::<Vec<_>>(), [0, 2, 3]);
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut slab = Slab::new();
        let keys: Vec<u32> = (0..4).map(|i| slab.insert(i)).collect();
        assert_eq!(keys, [0, 1, 2, 3]);
        slab.remove(keys[1]);
        slab.remove(keys[2]);
        assert_eq!(slab.insert(92), keys[2], "newest-freed slot first");
        assert_eq!(slab.insert(91), keys[1]);
        assert_eq!(slab.insert(94), 4, "free list empty: append");
        assert_eq!(slab.capacity_used(), 5);
    }

    #[test]
    fn churn_does_not_grow_the_arena() {
        let mut slab = Slab::with_capacity(2);
        for round in 0..1000u32 {
            let k = slab.insert(round);
            assert_eq!(slab.remove(k), round);
        }
        assert_eq!(slab.capacity_used(), 1, "steady churn reuses one slot");
        assert!(slab.is_empty());
    }

    #[test]
    fn keys_are_deterministic_for_a_call_sequence() {
        let run = || {
            let mut slab = Slab::new();
            let a = slab.insert("a");
            let b = slab.insert("b");
            slab.remove(a);
            let c = slab.insert("c");
            (a, b, c)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clear_resets_keys() {
        let mut slab = Slab::new();
        slab.insert(1);
        slab.insert(2);
        slab.clear();
        assert!(slab.is_empty());
        assert_eq!(slab.insert(3), 0);
    }

    #[test]
    #[should_panic(expected = "vacant key")]
    fn indexing_a_freed_key_panics() {
        let mut slab = Slab::new();
        let k = slab.insert(5);
        slab.remove(k);
        let _ = slab[k];
    }

    #[test]
    #[should_panic(expected = "vacant key")]
    fn double_remove_panics() {
        let mut slab = Slab::new();
        let k = slab.insert(5);
        slab.remove(k);
        slab.remove(k);
    }
}
