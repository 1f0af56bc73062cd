//! Chips with no DMA work: their power-state events kept off the queue.
//!
//! A chip that no transfer feeds (`Engine::dma_free`) only serves
//! processor accesses and migration chunks and steps its power mode. Its
//! events — service completions, transition completions and policy
//! timers — touch that chip and integer counters, and nothing else reads
//! them. In runs with trains on, [`Engine::schedule`] hands them to
//! [`Lazy`] instead of the calendar wheel, each under a sequence number
//! reserved from the queue, and the run loop and every train window take
//! the earliest of the queue head, the [`Lazy`] head and the pending trace
//! instant (which waits off the queue too). Every event thus still runs
//! in the global `(time, seq)` order the queue alone would give, so no
//! handler sees another state, every sequence number is drawn in the same
//! order and no float accrues in another order; only the queue's push,
//! pop and depth counts change.
//!
//! Such a chip has at most one event that can act: the completion of
//! its service or transition, or its armed policy timer. That one waits
//! in the chip's slot, and a list of the slots' keys, sorted latest
//! first, keeps the earliest at its end. A policy timer that can no
//! longer act is *spent*:
//! superseded by a later arm, or armed before the chip began the service
//! it is in (the chip re-arms when that service ends, so the timer finds
//! it busy or superseded whenever it fires). A spent timer would pop,
//! return at once and be counted, so it waits in an unordered list and
//! is counted in bulk once the clock has passed it. Only the end of the
//! run can tell where it lies: the first spent timer after the last
//! dispatched event is the pop at which the queued path stops, and it
//! fixes the horizon. DESIGN §14 ("Chips with no DMA work") has the
//! exactness argument.
//!
//! A chip that gains DMA work (a transfer to it starts) hands its slot
//! and its spent timers back to the queue under their reserved keys, so
//! the train window's bound and settle scans see the queue they would
//! have seen.

use simcore::prof::Phase;
use simcore::SimTime;

use super::{Engine, Ev, LaneEntry};

/// Spent timers held before the run loop counts the ones the clock has
/// passed. Twice this is reserved once per engine, so the hot loop
/// rarely grows the list.
const SPENT_CAPACITY: usize = 256;

/// The pending events of chips with no DMA work.
///
/// Each chip's slot entry is also a *node* in `order`, a list sorted
/// latest first, so the earliest entry is the last node: taking it is a
/// pop, and a new entry, usually due soon, is placed near the end.
#[derive(Debug)]
pub(super) struct Lazy {
    /// Per chip: the one event of it that can still act, if any.
    slots: Vec<Option<LaneEntry>>,
    /// The nodes of the slot entries, latest first. A node packs an
    /// entry's `(time, seq)` key and its chip into one integer, in that
    /// order of significance, so one comparison orders two nodes.
    order: Vec<u128>,
    /// Bits of a node that hold the chip.
    chip_bits: u32,
    /// Spent policy timers, in no particular order.
    pub(super) spent: Vec<LaneEntry>,
    /// The run loop counts spent timers once `spent` is this long: at
    /// least [`SPENT_CAPACITY`], and twice what the last count left.
    limit: usize,
}

impl Lazy {
    pub(super) fn new(chips: usize) -> Self {
        Lazy {
            slots: vec![None; chips],
            order: Vec::with_capacity(chips),
            chip_bits: chips.next_power_of_two().trailing_zeros(),
            spent: Vec::with_capacity(2 * SPENT_CAPACITY),
            limit: SPENT_CAPACITY,
        }
    }

    /// The node of chip `chip`'s entry `e`.
    fn node(&self, chip: usize, e: &LaneEntry) -> u128 {
        debug_assert!(
            e.seq.leading_zeros() >= self.chip_bits,
            "sequence number overflow"
        );
        (u128::from(e.time.as_ps()) << 64) | u128::from(e.seq << self.chip_bits) | chip as u128
    }

    fn chip_of(&self, node: u128) -> usize {
        (node as usize) & ((1 << self.chip_bits) - 1)
    }

    /// Puts `e` in the empty slot of chip `chip`.
    fn put(&mut self, chip: usize, e: LaneEntry) {
        debug_assert!(self.slots[chip].is_none());
        let node = self.node(chip, &e);
        self.slots[chip] = Some(e);
        let at = self
            .order
            .iter()
            .rposition(|&n| n > node)
            .map_or(0, |i| i + 1);
        self.order.insert(at, node);
    }

    /// The slot entry of chip `chip`.
    fn slot(&self, chip: usize) -> Option<LaneEntry> {
        self.slots[chip]
    }

    /// Empties the slot of chip `chip` and returns its entry.
    fn take(&mut self, chip: usize) -> Option<LaneEntry> {
        let e = self.slots[chip].take()?;
        let node = self.node(chip, &e);
        if let Some(at) = self.order.iter().rposition(|&n| n == node) {
            self.order.remove(at);
        }
        Some(e)
    }

    /// The `(time, seq)` key of the earliest slot entry.
    #[inline]
    pub(super) fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.order.last().map(|&min| {
            (
                SimTime::from_ps((min >> 64) as u64),
                (min as u64) >> self.chip_bits,
            )
        })
    }

    /// The earliest slot entry.
    pub(super) fn peek(&self) -> Option<LaneEntry> {
        self.slots[self.chip_of(*self.order.last()?)]
    }

    /// Removes and returns the earliest slot entry.
    pub(super) fn pop(&mut self) -> Option<LaneEntry> {
        let node = self.order.pop()?;
        let chip = self.chip_of(node);
        self.slots[chip].take()
    }
}

impl Engine<'_> {
    /// Keeps `e`, an event of a chip with no DMA work, off the queue: a
    /// spent timer joins the spent list, anything else takes the chip's
    /// slot and displaces a spent timer from it. A second event that can
    /// act goes to the queue, where its key orders it just as well.
    #[inline(never)]
    pub(super) fn defer(&mut self, e: LaneEntry) {
        // simlint::allow(panic-path, "only per-chip events are deferred: `schedule` routes by `Ev::chip`")
        let chip = e.ev.chip().expect("a per-chip event");
        if self.timer_spent(e.ev) {
            self.lazy.spent.push(e);
            return;
        }
        match self.lazy.slot(chip) {
            Some(old) if self.timer_spent(old.ev) => {
                self.lazy.take(chip);
                self.lazy.spent.push(old);
            }
            Some(_) => {
                debug_assert!(false, "chip {chip} holds two events that can act");
                self.queue.schedule_at_seq(e.time, e.seq, e.ev);
                return;
            }
            None => {}
        }
        self.lazy.put(chip, e);
    }

    /// True when `ev` is a policy timer that can no longer act: it was
    /// superseded, or its chip is serving and re-arms its policy before
    /// the timer could find it idle.
    fn timer_spent(&self, ev: Ev) -> bool {
        matches!(ev, Ev::PolicyTimer { chip, gen }
            if gen != self.timer_gen[chip] || self.serving[chip].is_some())
    }

    /// Counts the spent timers that `keep` rejects: each would have
    /// popped, returned at once and been counted as a policy call.
    fn count_spent(&mut self, keep: impl Fn(&LaneEntry) -> bool) {
        let before = self.lazy.spent.len();
        self.lazy.spent.retain(|e| keep(e));
        let n = (before - self.lazy.spent.len()) as u64;
        self.phases.note_n(Phase::Policy, n);
        self.deferred_events += n;
    }

    /// Run-loop upkeep before the event with key `key` is dispatched (the
    /// run did not end at it): once the spent list is long, counts the
    /// spent timers before that key.
    #[inline]
    pub(super) fn tidy_spent(&mut self, key: (SimTime, u64)) {
        if self.lazy.spent.len() >= self.lazy.limit {
            self.count_spent(|e| e.key() >= key);
            self.lazy.limit = SPENT_CAPACITY.max(2 * self.lazy.spent.len());
        }
    }

    /// Chip `chip` has just gained DMA work: its slot entry and its spent
    /// timers go back to the queue under their reserved keys. Spent
    /// timers due no later than now are counted instead; the run cannot
    /// end before they would pop, since the new transfer is active.
    pub(super) fn hand_back_chip(&mut self, chip: usize) {
        if let Some(e) = self.lazy.take(chip) {
            self.queue.schedule_at_seq(e.time, e.seq, e.ev);
        }
        let now = self.now;
        let mut due = 0;
        let queue = &mut self.queue;
        self.lazy.spent.retain(|e| {
            if e.ev.chip() != Some(chip) {
                return true;
            }
            if e.time <= now {
                due += 1;
            } else {
                queue.schedule_at_seq(e.time, e.seq, e.ev);
            }
            false
        });
        self.phases.note_n(Phase::Policy, due);
        self.deferred_events += due;
    }

    /// Settles the spent timers still waiting when the run loop stops,
    /// and returns the time of the pop at which the queued path would
    /// have stopped: `stop`, the event the loop popped without
    /// dispatching, or an earlier spent timer. `last` is the key of the
    /// last dispatched event. When the run did not finish, every spent
    /// timer would have popped and the clock would stand at the last.
    pub(super) fn settle_spent(
        &mut self,
        last: (SimTime, u64),
        stop: Option<SimTime>,
    ) -> Option<SimTime> {
        if !self.finished() {
            let end = self.lazy.spent.iter().map(|e| e.time).max();
            self.count_spent(|_| false);
            return end.map(|t| t.max(self.now));
        }
        let first_after = self
            .lazy
            .spent
            .iter()
            .filter(|e| e.key() > last)
            .map(|e| e.time)
            .min();
        self.count_spent(|e| e.key() > last);
        self.lazy.spent.clear();
        stop.into_iter().chain(first_after).min()
    }
}
