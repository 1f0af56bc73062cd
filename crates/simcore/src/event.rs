//! Deterministic future-event list.
//!
//! [`EventQueue`] is a calendar (timing-wheel) queue with a one-entry
//! fast slot and an overflow heap for far-future events, designed for
//! the simulators' shallow, mostly-monotone schedules (calendar depth
//! tops out in the low hundreds while pushes run to tens of millions).
//!
//! It pops in (time, then insertion-sequence) order. Because that order
//! is **total** — no two entries ever share a `(time, seq)` key — any
//! correct priority structure pops the exact same sequence, so
//! determinism does not depend on queue internals. The reference
//! `BinaryHeap` queue in `crates/simcore/tests/support` is driven with
//! identical interleavings by `tests/queue_equiv.rs`, which asserts
//! identical pop sequences.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::prof::QueueStats;
use crate::slab::Slab;
use crate::SimTime;

/// Identifies the pop-order semantics of the default [`EventQueue`].
///
/// Engine baselines record this so a perf gate can distinguish "queue
/// implementation changed deliberately (re-record)" from silent counter
/// drift: queue-shape counters (pushes, pops, max depth) are only
/// comparable between reports recorded under the same kind.
pub const QUEUE_KIND: &str = "calendar-wheel-v1";

/// One scheduled entry: ordered by time, then by insertion sequence so that
/// simultaneous events pop in FIFO order (determinism).
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Buckets per wheel revolution (power of two: slot = abs & mask).
const SLOTS: usize = 1024;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// log2 picoseconds per bucket: 1.024 ns. Sized so the workspace's hot
/// schedules (memory service 2.5 ns, bus slots 7.52 ns, standby
/// thresholds ~19 ns) land in *distinct* buckets — the recorded fig5
/// depth is ~125 events packed into a few tens of nanoseconds, so a
/// coarser quantum degenerates the per-pop bucket min-scan into a scan
/// of the whole calendar. Far events (wake transitions at 6 µs, epoch
/// ticks, trace gaps) spill past the ~1 µs horizon into the overflow
/// heap, which is O(log n) on a set that stays tiny.
const QUANTUM_BITS: u32 = 10;
/// Occupancy bitmap words (64 slots per word).
const WORDS: usize = SLOTS / 64;
/// Null link in the per-bucket lists.
const NIL_NODE: u32 = u32::MAX;

/// One wheel-resident entry plus its intrusive bucket-list link. Nodes
/// live in a [`Slab`] arena so the whole calendar stays in a few cache
/// lines of contiguous memory (per-bucket `Vec`s at depth ~50 spend
/// their time pointer-chasing 1024 scattered allocations).
struct Node<E> {
    entry: Entry<E>,
    next: u32,
}

/// Position and key of the wheel's current minimum entry.
#[derive(Clone, Copy)]
struct MinPos {
    time: SimTime,
    seq: u64,
    slot: u32,
    node: u32,
}

impl MinPos {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A future-event list for discrete-event simulation: a calendar
/// (timing-wheel) queue.
///
/// Events pop in nondecreasing time order; ties break in scheduling (FIFO)
/// order, which keeps simulations deterministic regardless of queue
/// internals. The pop sequence is provably identical to a binary heap's
/// because `(time, seq)` is a total order (see the module docs).
///
/// Internally: a one-entry **fast slot** absorbs the schedule-then-pop
/// pattern the simulators' lockstep phases produce; everything else lands
/// in one of 1024 time-quantized **buckets** (intrusive lists threaded
/// through one slab arena, min-scanned on pop — calendar depth stays in
/// the low hundreds, so buckets hold a handful of entries at most and
/// the arena fits in L1); events beyond the wheel's horizon wait in
/// an **overflow heap** and are drained into the wheel as the window
/// advances. An event scheduled before the window start moves the
/// window back to its bucket, and the entries that the move pushes past
/// the horizon go to the overflow heap, so each bucket only ever holds
/// entries of its own 1.024 ns. Engines that serve from side lanes
/// schedule that way all the time: the queue head is often a far-off
/// event while the lanes run the near future.
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// let t1 = SimTime::ZERO + SimDuration::from_ns(1);
/// q.schedule(t1, "b");
/// q.schedule(t1, "c");
/// q.schedule(SimTime::ZERO, "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
pub struct EventQueue<E> {
    /// Fast slot: holds one entry, claimed by the first schedule into an
    /// empty slot. Popping compares it against the wheel minimum, so it
    /// is pure mechanism — never ordering policy.
    fast: Option<Entry<E>>,
    /// Arena holding every wheel-resident entry; buckets are intrusive
    /// singly-linked lists through it (`heads[slot]` → `Node::next`).
    arena: Slab<Node<E>>,
    heads: Vec<u32>,
    occupancy: [u64; WORDS],
    /// Second bitmap level: bit `w` set iff `occupancy[w] != 0`, so the
    /// next-occupied-bucket scan is O(1) instead of a word walk.
    summary: u16,
    /// Absolute bucket index (time >> QUANTUM_BITS) the window starts at:
    /// the wheel minimum's bucket while the wheel holds anything. The
    /// window covers `[cur_abs, cur_abs + SLOTS)`, a bijection onto
    /// slots, and every wheel-resident entry lies inside it.
    cur_abs: u64,
    wheel_len: usize,
    /// Cached wheel minimum; `None` iff `wheel_len == 0`.
    wheel_min: Option<MinPos>,
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
    stats: QueueStats,
    window_max_depth: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            fast: None,
            arena: Slab::new(),
            heads: vec![NIL_NODE; SLOTS],
            occupancy: [0; WORDS],
            summary: 0,
            cur_abs: 0,
            wheel_len: 0,
            wheel_min: None,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            stats: QueueStats::default(),
            window_max_depth: 0,
        }
    }

    /// The pop-order schema label of this implementation (recorded in
    /// engine baselines; see [`QUEUE_KIND`]).
    pub fn queue_kind(&self) -> &'static str {
        QUEUE_KIND
    }

    /// Allocates the next insertion sequence number without scheduling
    /// anything.
    ///
    /// Engines that keep side lanes of deterministic events (e.g. one
    /// armed policy timer per chip, overwritten instead of queued) draw
    /// their sequence numbers here so a merged pop by `(time, seq)`
    /// across queue and lanes reproduces the exact total order a single
    /// queue would have produced.
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Scheduling in the past is allowed at the type level; simulators that
    /// must forbid it assert on pop (see [`EventQueue::pop`] ordering
    /// guarantee).
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.alloc_seq();
        self.schedule_at_seq(time, seq, event);
    }

    /// Schedules `event` at `time` under a sequence number reserved
    /// earlier with [`alloc_seq`](EventQueue::alloc_seq).
    ///
    /// This is how a side lane hands its events back: each keeps the
    /// `(time, seq)` key it was given when it was created, so the queue
    /// pops it exactly where a direct [`schedule`](EventQueue::schedule)
    /// would have placed it. Counts as one push.
    pub fn schedule_at_seq(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.next_seq, "sequence number was never reserved");
        self.stats.pushes += 1;
        let entry = Entry { time, seq, event };
        if self.fast.is_none() {
            self.fast = Some(entry);
        } else {
            self.insert_wheel(entry);
        }
        let depth = self.len() as u64;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        self.window_max_depth = self.window_max_depth.max(depth);
    }

    #[inline]
    fn insert_wheel(&mut self, entry: Entry<E>) {
        let abs = entry.time.as_ps() >> QUANTUM_BITS;
        if self.wheel_len == 0 {
            // An empty wheel constrains nothing: re-anchor the window on
            // this entry, so a queue that sat near-empty while the clock
            // moved on (an engine serving from a side lane) does not push
            // near-future entries through the overflow heap.
            self.cur_abs = abs;
        } else if abs < self.cur_abs {
            self.rewind(abs);
        }
        if abs >= self.cur_abs + SLOTS as u64 {
            self.overflow.push(entry);
            return;
        }
        let slot = (abs & SLOT_MASK) as usize;
        let key = entry.key();
        let node = self.arena.insert(Node {
            entry,
            next: self.heads[slot],
        });
        self.heads[slot] = node;
        self.occupancy[slot >> 6] |= 1u64 << (slot & 63);
        self.summary |= 1u16 << (slot >> 6);
        self.wheel_len += 1;
        match &self.wheel_min {
            Some(m) if m.key() <= key => {}
            _ => {
                self.wheel_min = Some(MinPos {
                    time: key.0,
                    seq: key.1,
                    slot: slot as u32,
                    node,
                });
            }
        }
    }

    /// Moves the window back so that it starts at bucket `abs`, before
    /// the current start.
    ///
    /// The buckets the rewind uncovers share their slots with the last
    /// `cur_abs - abs` buckets of the old window, which now lie past the
    /// horizon: their entries move to the overflow heap (every entry,
    /// if the rewind spans a revolution or more). The wheel minimum sits
    /// in the old start bucket, so it stays put unless everything moved.
    fn rewind(&mut self, abs: u64) {
        let back = self.cur_abs - abs;
        self.cur_abs = abs;
        let span = back.min(SLOTS as u64) as usize;
        let start = (abs & SLOT_MASK) as usize;
        // Walk the uncovered slots a bitmap word at a time.
        let mut done = 0;
        while done < span {
            let slot = (start + done) & (SLOTS - 1);
            let bit = slot & 63;
            let len = (64 - bit).min(span - done);
            let mask = (u64::MAX >> (64 - len)) << bit;
            let mut hits = self.occupancy[slot >> 6] & mask;
            while hits != 0 {
                self.evict_slot((slot & !63) | hits.trailing_zeros() as usize);
                hits &= hits - 1;
            }
            done += len;
        }
        if self.wheel_len == 0 {
            self.wheel_min = None;
        }
    }

    /// Moves every entry of bucket list `slot` to the overflow heap.
    fn evict_slot(&mut self, slot: usize) {
        let mut cur = std::mem::replace(&mut self.heads[slot], NIL_NODE);
        while cur != NIL_NODE {
            let node = self.arena.remove(cur);
            cur = node.next;
            self.overflow.push(node.entry);
            self.wheel_len -= 1;
        }
        self.occupancy[slot >> 6] &= !(1u64 << (slot & 63));
        if self.occupancy[slot >> 6] == 0 {
            self.summary &= !(1u16 << (slot >> 6));
        }
    }

    /// The absolute bucket that `slot` stands for in the current window.
    #[inline]
    fn slot_bucket(&self, slot: usize) -> u64 {
        self.cur_abs + ((slot as u64).wrapping_sub(self.cur_abs) & SLOT_MASK)
    }

    /// First nonempty slot at or after the window start, as
    /// (slot, circular distance). O(1): the start word's high bits, then
    /// the [`summary`](Self::summary) picks the next nonempty word
    /// directly. Every wheel entry lives within one revolution of the
    /// window start (inserts rewind or overflow to guarantee it), so any
    /// set bit found cyclically is in-window.
    fn next_occupied(&self) -> Option<(usize, usize)> {
        if self.summary == 0 {
            return None;
        }
        let start = (self.cur_abs & SLOT_MASK) as usize;
        let sw = start >> 6;
        let sb = start & 63;
        // Bits at or after the window start within its own word.
        let first = self.occupancy[sw] >> sb;
        if first != 0 {
            let off = first.trailing_zeros() as usize;
            return Some(((start + off) & (SLOTS - 1), off));
        }
        let all = u32::from(self.summary);
        let after = all & !((1u32 << (sw + 1)) - 1);
        let before = all & ((1u32 << sw) - 1);
        let (w, word) = if after != 0 {
            let w = after.trailing_zeros() as usize;
            (w, self.occupancy[w])
        } else if before != 0 {
            let w = before.trailing_zeros() as usize;
            (w, self.occupancy[w])
        } else {
            // Only the start word is nonempty, and only below `sb`:
            // those slots sit a near-full revolution ahead.
            (sw, self.occupancy[sw] & ((1u64 << sb) - 1))
        };
        debug_assert_ne!(word, 0, "summary bit set for empty word");
        let off = word.trailing_zeros() as usize;
        let slot = (w << 6) | off;
        let dist = (slot + SLOTS - start) & (SLOTS - 1);
        debug_assert_ne!(dist, 0, "start slot handled by the fast path");
        Some((slot, dist))
    }

    /// Recomputes the cached wheel minimum (bitmap scan + bucket
    /// min-scan) and advances the window start to its bucket.
    fn recompute_wheel_min(&mut self) {
        if self.wheel_len == 0 {
            self.wheel_min = None;
            return;
        }
        let (slot, dist) = self
            .next_occupied()
            // simlint::allow(panic-path, "wheel_len counts exactly the entries in buckets; an empty wheel returned above")
            .expect("wheel_len > 0 but no occupied bucket");
        self.cur_abs += dist as u64;
        let mut cur = self.heads[slot];
        debug_assert_ne!(cur, NIL_NODE, "occupied bucket has entries");
        let mut best = cur;
        let mut best_key = self.arena[cur].entry.key();
        cur = self.arena[cur].next;
        while cur != NIL_NODE {
            let node = &self.arena[cur];
            let k = node.entry.key();
            if k < best_key {
                best_key = k;
                best = cur;
            }
            cur = node.next;
        }
        self.wheel_min = Some(MinPos {
            time: best_key.0,
            seq: best_key.1,
            slot: slot as u32,
            node: best,
        });
    }

    /// Moves overflow entries that fall inside the (possibly advanced)
    /// window into the wheel. Called when the overflow minimum undercuts
    /// the wheel minimum — which can only happen after the window
    /// advanced past an overflow entry's bucket.
    fn drain_overflow(&mut self) {
        if self.wheel_len == 0 {
            if let Some(top) = self.overflow.peek() {
                self.cur_abs = top.time.as_ps() >> QUANTUM_BITS;
            }
        }
        // An insert may rewind the window, so the horizon is read afresh
        // for every entry: entries the rewind evicts lie past it.
        while let Some(top) = self.overflow.peek() {
            if top.time.as_ps() >> QUANTUM_BITS >= self.cur_abs + SLOTS as u64 {
                break;
            }
            // simlint::allow(panic-path, "pop follows a successful peek on the same heap with exclusive access")
            let entry = self.overflow.pop().expect("peeked entry");
            self.insert_wheel(entry);
        }
    }

    /// True when the overflow minimum must be considered before the
    /// wheel minimum (wheel empty, or overflow undercuts it).
    #[inline]
    fn overflow_undercuts(&self) -> bool {
        match (self.overflow.peek(), &self.wheel_min) {
            (Some(top), Some(m)) => top.key() < m.key(),
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.overflow_undercuts() {
            self.drain_overflow();
            self.recompute_wheel_min();
        }
        let fast_key = self.fast.as_ref().map(Entry::key);
        let wheel_key = self.wheel_min.as_ref().map(MinPos::key);
        let popped = match (fast_key, wheel_key) {
            (None, None) => return None,
            // simlint::allow(panic-path, "fast_key was read from this very slot two lines up")
            (Some(_), None) => self.fast.take().expect("fast key implies entry"),
            (fk, Some(wk)) => {
                if fk.is_some_and(|k| k < wk) {
                    // simlint::allow(panic-path, "fast_key was read from this very slot above")
                    self.fast.take().expect("fast key implies entry")
                } else {
                    self.pop_wheel_min()
                }
            }
        };
        self.stats.pops += 1;
        Some((popped.time, popped.event))
    }

    fn pop_wheel_min(&mut self) -> Entry<E> {
        // simlint::allow(panic-path, "callers check wheel_min before dispatching here; recompute_wheel_min restores it after")
        let m = self.wheel_min.take().expect("wheel minimum cached");
        let slot = m.slot as usize;
        // Unlink the minimum from its bucket list (buckets hold a
        // handful of entries, so the prev-walk is a few arena reads).
        let head = self.heads[slot];
        if head == m.node {
            self.heads[slot] = self.arena[head].next;
        } else {
            let mut prev = head;
            while self.arena[prev].next != m.node {
                prev = self.arena[prev].next;
            }
            self.arena[prev].next = self.arena[m.node].next;
        }
        let node = self.arena.remove(m.node);
        debug_assert_eq!(
            node.entry.time.as_ps() >> QUANTUM_BITS,
            self.slot_bucket(slot),
            "wheel entry outside the bucket its slot stands for"
        );
        if self.heads[slot] == NIL_NODE {
            self.occupancy[slot >> 6] &= !(1u64 << (slot & 63));
            if self.occupancy[slot >> 6] == 0 {
                self.summary &= !(1u16 << (slot >> 6));
            }
        }
        self.wheel_len -= 1;
        self.recompute_wheel_min();
        node.entry
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(t, _)| t)
    }

    /// The `(time, seq)` key of the earliest pending event, if any.
    ///
    /// Keys are unique (the seq counter never repeats), so comparing a
    /// lane event's key against this yields the exact dispatch order a
    /// single queue would have produced.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.peek_entry().map(|(time, seq, _)| (time, seq))
    }

    /// The earliest pending entry as `(time, seq, &event)`, if any: the
    /// entry the next [`pop`](EventQueue::pop) returns.
    pub fn peek_entry(&self) -> Option<(SimTime, u64, &E)> {
        let mut best: Option<&Entry<E>> = self.fast.as_ref();
        if let Some(m) = &self.wheel_min {
            if best.is_none_or(|b| m.key() < b.key()) {
                best = Some(&self.arena[m.node].entry);
            }
        }
        if let Some(top) = self.overflow.peek() {
            if best.is_none_or(|b| top.key() < b.key()) {
                best = Some(top);
            }
        }
        best.map(|e| (e.time, e.seq, &e.event))
    }

    /// Every pending event with its time, in no particular order.
    ///
    /// For engines that need a bound over the whole pending set (the
    /// earliest event of some kind), not just the head. Costs one pass
    /// over the pending entries.
    pub fn pending(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.fast
            .iter()
            .chain(self.arena.iter().map(|node| &node.entry))
            .chain(self.overflow.iter())
            .map(|e| (e.time, &e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.fast.is_some() as usize + self.wheel_len + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events.
    ///
    /// Lifetime counters ([`EventQueue::stats`]) are kept: clearing is
    /// part of a queue's history, not a new queue. The **depth window**
    /// resets, so a queue reused across simulations attributes its
    /// high-water depth to the current run only (see
    /// [`EventQueue::window_max_depth`]).
    pub fn clear(&mut self) {
        self.fast = None;
        self.arena.clear();
        self.heads.fill(NIL_NODE);
        self.occupancy = [0; WORDS];
        self.summary = 0;
        self.cur_abs = 0;
        self.wheel_len = 0;
        self.wheel_min = None;
        self.overflow.clear();
        self.window_max_depth = 0;
    }

    /// Lifetime push/pop/depth counters (deterministic: they derive only
    /// from the schedule/pop call sequence).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// High-water pending depth since the last [`reset_window`] (or
    /// construction / [`clear`]). Composes with the sweep profiler's
    /// per-figure depth window ([`crate::prof`]): engines report this —
    /// not the lifetime [`stats`] max — so reusing a queue across
    /// simulations cannot leak one run's depth into the next.
    ///
    /// [`reset_window`]: EventQueue::reset_window
    /// [`clear`]: EventQueue::clear
    /// [`stats`]: EventQueue::stats
    pub fn window_max_depth(&self) -> u64 {
        self.window_max_depth
    }

    /// Starts a new depth window at the current depth.
    pub fn reset_window(&mut self) {
        self.window_max_depth = self.len() as u64;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    fn at(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at(30), 3);
        q.schedule(at(10), 1);
        q.schedule(at(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let expect: Vec<i32> = (0..100).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(at(7), ());
        q.schedule(at(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(at(3)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn pending_lists_fast_slot_wheel_and_overflow() {
        let mut q = EventQueue::new();
        // Fast slot, two wheel buckets, and one entry past the horizon.
        for (ns, e) in [(1, 'a'), (2, 'b'), (900, 'c'), (5_000_000, 'd')] {
            q.schedule(at(ns), e);
        }
        assert_eq!(q.pop(), Some((at(1), 'a')));
        let mut seen: Vec<(SimTime, char)> = q.pending().map(|(t, &e)| (t, e)).collect();
        seen.sort();
        assert_eq!(seen, [(at(2), 'b'), (at(900), 'c'), (at(5_000_000), 'd')]);
    }

    #[test]
    fn interleaved_schedule_pop_is_stable() {
        let mut q = EventQueue::new();
        q.schedule(at(1), "a");
        q.schedule(at(1), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(at(1), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn stats_track_pushes_pops_and_depth() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(at(i), i);
        }
        assert_eq!(q.pop().unwrap().1, 0);
        q.schedule(at(9), 9);
        let s = q.stats();
        assert_eq!(s.pushes, 6);
        assert_eq!(s.pops, 1);
        assert_eq!(s.max_depth, 5);
        q.clear();
        assert_eq!(q.stats(), s, "clear keeps lifetime counters");
        assert!(q.pop().is_none());
        assert_eq!(q.stats().pops, 1, "empty pop does not count");
    }

    #[test]
    fn window_depth_resets_while_lifetime_max_survives() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.schedule(at(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.stats().max_depth, 8);
        assert_eq!(q.window_max_depth(), 8);
        // The satellite bug: clear() kept the lifetime max (by design)
        // but a reused queue also reported the *old* depth as its own.
        q.clear();
        assert_eq!(q.window_max_depth(), 0, "clear starts a fresh window");
        q.schedule(at(1), 100);
        q.schedule(at(2), 101);
        assert_eq!(q.window_max_depth(), 2, "window sees only the new run");
        assert_eq!(q.stats().max_depth, 8, "lifetime max is untouched");
        // reset_window() mid-run starts the window at the current depth.
        q.reset_window();
        assert_eq!(q.window_max_depth(), 2);
        q.pop();
        assert_eq!(q.window_max_depth(), 2, "window is a high-water mark");
    }

    #[test]
    fn far_future_events_pass_through_the_overflow_heap() {
        let mut q = EventQueue::new();
        // Horizon is 1024 buckets of 1.024 ns each (~1 us); 1 ms is far
        // beyond it, so these take the overflow path and drain back.
        q.schedule(SimTime::ZERO + SimDuration::from_ms(1), "far");
        q.schedule(SimTime::ZERO + SimDuration::from_ms(2), "farther");
        q.schedule(at(1), "near");
        q.schedule(at(2), "near2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["near", "near2", "far", "farther"]);
    }

    #[test]
    fn window_advance_keeps_overflow_and_fresh_events_ordered() {
        let mut q = EventQueue::new();
        // Overflow entry just beyond the initial horizon.
        let far = SimTime::ZERO + SimDuration::from_us(9);
        q.schedule(far, "overflow");
        q.schedule(at(1), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        // The window advanced; schedule something *later* than the
        // overflow entry but now inside the window. The overflow entry
        // must still pop first.
        q.schedule(far + SimDuration::from_ns(100), "later");
        assert_eq!(q.pop().unwrap().1, "overflow");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn past_time_schedules_pop_before_pending_events() {
        let mut q = EventQueue::new();
        q.schedule(at(50), "future");
        assert_eq!(q.pop().unwrap().0, at(50));
        // "later" takes the fast slot and "latest" anchors the wheel at
        // bucket(70 ns); the schedule at 1 ns lies before it and rewinds
        // the window.
        q.schedule(at(60), "later");
        q.schedule(at(70), "latest");
        q.schedule(at(1), "past");
        assert_eq!(q.pop().unwrap(), (at(1), "past"));
        assert_eq!(q.pop().unwrap(), (at(60), "later"));
        assert_eq!(q.pop().unwrap(), (at(70), "latest"));
    }

    /// Every occupied bucket list holds only entries of the bucket its
    /// slot stands for (so every wheel entry lies inside the window).
    fn assert_buckets_pure<E>(q: &EventQueue<E>) {
        let mut resident = 0;
        for slot in 0..SLOTS {
            let occupied = q.occupancy[slot >> 6] >> (slot & 63) & 1 == 1;
            assert_eq!(occupied, q.heads[slot] != NIL_NODE, "slot {slot}");
            let mut cur = q.heads[slot];
            while cur != NIL_NODE {
                let node = &q.arena[cur];
                let bucket = node.entry.time.as_ps() >> QUANTUM_BITS;
                assert_eq!(bucket, q.slot_bucket(slot), "slot {slot}");
                resident += 1;
                cur = node.next;
            }
        }
        assert_eq!(resident, q.wheel_len);
    }

    #[test]
    fn schedules_before_the_head_rewind_without_mixing_buckets() {
        let mut q = EventQueue::new();
        // A head far ahead (as a side lane leaves it), then schedules
        // walking back one bucket at a time, each just before the head.
        let quantum = 1u64 << QUANTUM_BITS;
        let top = 3_000 * quantum;
        q.schedule(SimTime::from_ps(top), 0u64);
        for i in 1..2_500u64 {
            q.schedule(SimTime::from_ps(top - i * quantum + i % 7), i);
            assert_buckets_pure(&q);
        }
        // Payload i was scheduled with seq i, so pops run in (t, i) order.
        let mut last = None;
        while let Some((t, i)) = q.pop() {
            assert!(last < Some((t, i)), "pop order");
            last = Some((t, i));
            assert_buckets_pure(&q);
        }
        assert_eq!(q.stats().pops, 2_500);
    }

    #[test]
    fn alloc_seq_interleaves_with_scheduled_events() {
        let mut q = EventQueue::new();
        q.schedule(at(5), "queued");
        let lane_seq = q.alloc_seq();
        q.schedule(at(5), "tied");
        // The lane event (same time, seq between the two pushes) must
        // order between them under a merged (time, seq) pop.
        let qk = q.peek_key().unwrap();
        assert!(qk < (at(5), lane_seq));
        assert_eq!(q.pop().unwrap().1, "queued");
        let qk = q.peek_key().unwrap();
        assert!((at(5), lane_seq) < qk);
        assert_eq!(q.pop().unwrap().1, "tied");
    }

    #[test]
    fn reserved_seq_schedules_pop_in_reservation_order() {
        let mut q = EventQueue::new();
        let early = q.alloc_seq();
        q.schedule(at(5), "direct");
        let late = q.alloc_seq();
        // Handed back out of order, both land where a direct schedule at
        // reservation time would have put them.
        q.schedule_at_seq(at(5), late, "late");
        q.schedule_at_seq(at(5), early, "early");
        assert_eq!(q.stats().pushes, 3);
        assert_eq!(q.peek_entry(), Some((at(5), early, &"early")));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["early", "direct", "late"]);
    }

    #[test]
    fn peek_entry_sees_the_next_pop_in_every_tier() {
        let mut q = EventQueue::new();
        // Fast slot, wheel and overflow heap each hold the minimum once.
        q.schedule(at(40), 1);
        q.schedule(SimTime::ZERO + SimDuration::from_ms(1), 3);
        q.schedule(at(20), 0);
        q.schedule(at(60), 2);
        while let Some((t, seq, &e)) = q.peek_entry() {
            assert_eq!(q.peek_key(), Some((t, seq)));
            assert_eq!(q.pop(), Some((t, e)));
        }
        assert!(q.is_empty());
    }
}
