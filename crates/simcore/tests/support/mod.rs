//! The reference future-event list the calendar-wheel [`EventQueue`] is
//! proven against.
//!
//! [`EventQueue`]: simcore::EventQueue

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use simcore::prof::QueueStats;
use simcore::SimTime;

/// The queue kind of [`HeapQueue`].
pub const HEAP_QUEUE_KIND: &str = "binary-heap-v1";

/// One scheduled entry, ordered earliest `(time, seq)` first.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
    }
}

/// A binary heap ordered by `(time, seq)`, with the wheel's counters.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    stats: QueueStats,
    window_max_depth: u64,
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            stats: QueueStats::default(),
            window_max_depth: 0,
        }
    }

    /// The pop-order schema label of this implementation.
    pub fn queue_kind(&self) -> &'static str {
        HEAP_QUEUE_KIND
    }

    /// Allocates the next insertion sequence number without scheduling
    /// anything.
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.alloc_seq();
        self.schedule_at_seq(time, seq, event);
    }

    /// Schedules `event` at `time` under a sequence number reserved
    /// earlier with [`alloc_seq`](HeapQueue::alloc_seq).
    pub fn schedule_at_seq(&mut self, time: SimTime, seq: u64, event: E) {
        assert!(seq < self.next_seq, "sequence number was never reserved");
        self.heap.push(Entry { time, seq, event });
        self.stats.pushes += 1;
        let depth = self.heap.len() as u64;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        self.window_max_depth = self.window_max_depth.max(depth);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let popped = self.heap.pop().map(|e| (e.time, e.event));
        if popped.is_some() {
            self.stats.pops += 1;
        }
        popped
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// The `(time, seq)` key of the earliest pending event, if any.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(Entry::key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events (lifetime counters kept; the depth
    /// window resets).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.window_max_depth = 0;
    }

    /// Lifetime push/pop/depth counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// High-water pending depth since construction or [`clear`].
    ///
    /// [`clear`]: HeapQueue::clear
    pub fn window_max_depth(&self) -> u64 {
        self.window_max_depth
    }
}

impl<E> std::fmt::Debug for HeapQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapQueue")
            .field("len", &self.heap.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}
