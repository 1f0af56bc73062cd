//! Heap/wheel equivalence: the calendar-wheel [`EventQueue`] and the
//! reference [`HeapQueue`] are driven with identical random
//! schedule/pop interleavings — including same-time bursts, past-time
//! schedules, schedules just before the head that rewind the wheel's
//! window, bursts near the horizon that such a rewind evicts, reserved
//! sequence numbers handed back later, and far-future
//! (overflow-horizon) times — and must produce identical pop sequences,
//! peek keys, and lifetime stats.
//!
//! This is the load-bearing test for the queue swap: `(time, seq)` is a
//! total order, so any correct priority structure pops the same
//! sequence; here we check the wheel actually is one.

mod support;

use proptest::prelude::*;
use simcore::{EventQueue, SimDuration, SimTime, QUEUE_KIND};
use support::{HeapQueue, HEAP_QUEUE_KIND};

/// The wheel's bucket width (1.024 ns) and window (1024 buckets,
/// ~1.05 us). The ops below aim at these edges; the oracle does not
/// care.
const QUANTUM_PS: u64 = 1 << 10;
const REVOLUTION_PS: u64 = 1024 * QUANTUM_PS;

/// One step of a driver script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule `count` events at `now + offset_ps` (a burst shares one
    /// timestamp, exercising FIFO tie-breaks).
    Schedule { offset_ps: u64, count: u8 },
    /// Schedule one event `back_ps` before the last popped time (a
    /// past-time schedule once anything has popped).
    SchedulePast { back_ps: u64 },
    /// Schedule one event `back_ps` before the head, but not before the
    /// last popped time: the wheel rewinds by less than a revolution.
    ScheduleBeforeHead { back_ps: u64 },
    /// Schedule `count` events spread over the last buckets inside the
    /// horizon measured from the head, so the next rewind evicts them.
    HorizonBurst { spread_ps: u64, count: u8 },
    /// Reserve a sequence number now for an event at `now + offset_ps`,
    /// handed back later (as the engine's side lanes do).
    Reserve { offset_ps: u64 },
    /// Hand back reservation `pick` (modulo the number outstanding).
    HandBack { pick: u8 },
    /// Pop up to `count` events.
    Pop { count: u8 },
    /// Compare peeked keys without popping.
    Peek,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..8, 0u64..100_000_000, 1u8..6).prop_map(|(kind, raw, count)| match kind {
        // Offsets span sub-bucket (ps) to beyond the wheel horizon
        // (the wheel's window is ~1.05 us; 100ms >> horizon).
        0 => Op::Schedule {
            offset_ps: raw,
            count,
        },
        1 => Op::SchedulePast {
            back_ps: raw % 1_000_000,
        },
        2 => Op::ScheduleBeforeHead {
            back_ps: 1 + raw % REVOLUTION_PS,
        },
        3 => Op::HorizonBurst {
            spread_ps: raw % (64 * QUANTUM_PS),
            count: count * 4,
        },
        4 => Op::Reserve {
            // Mostly within a revolution, sometimes far out.
            offset_ps: if raw % 4 == 0 {
                raw
            } else {
                raw % REVOLUTION_PS
            },
        },
        5 => Op::HandBack { pick: count },
        6 => Op::Pop { count },
        _ => Op::Peek,
    })
}

/// Both queues, driven in lockstep.
struct Pair {
    wheel: EventQueue<u32>,
    heap: HeapQueue<u32>,
    /// Latest popped time.
    now: SimTime,
    payload: u32,
    /// Reserved `(time, seq)` keys not yet handed back.
    reserved: Vec<(SimTime, u64)>,
    pops: usize,
}

impl Pair {
    fn new() -> Self {
        Pair {
            wheel: EventQueue::new(),
            heap: HeapQueue::new(),
            now: SimTime::ZERO,
            payload: 0,
            reserved: Vec::new(),
            pops: 0,
        }
    }

    fn schedule(&mut self, t: SimTime) {
        self.wheel.schedule(t, self.payload);
        self.heap.schedule(t, self.payload);
        self.payload += 1;
    }

    fn hand_back(&mut self, i: usize) {
        let (t, seq) = self.reserved.swap_remove(i);
        self.wheel.schedule_at_seq(t, seq, self.payload);
        self.heap.schedule_at_seq(t, seq, self.payload);
        self.payload += 1;
    }

    /// Pops once from both; true if they were empty.
    fn pop(&mut self) -> Result<bool, TestCaseError> {
        let w = self.wheel.pop();
        prop_assert_eq!(w, self.heap.pop(), "pop #{} diverged", self.pops);
        match w {
            Some((t, _)) => {
                self.now = self.now.max(t);
                self.pops += 1;
                Ok(false)
            }
            None => Ok(true),
        }
    }

    fn step(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Schedule { offset_ps, count } => {
                let t = self.now + SimDuration::from_ps(offset_ps);
                for _ in 0..count {
                    self.schedule(t);
                }
            }
            Op::SchedulePast { back_ps } => {
                self.schedule(SimTime::from_ps(self.now.as_ps().saturating_sub(back_ps)));
            }
            Op::ScheduleBeforeHead { back_ps } => {
                if let Some(head) = self.heap.peek_time() {
                    let t = head.as_ps().saturating_sub(back_ps).max(self.now.as_ps());
                    self.schedule(SimTime::from_ps(t));
                }
            }
            Op::HorizonBurst { spread_ps, count } => {
                if let Some(head) = self.heap.peek_time() {
                    let edge = (head.as_ps() / QUANTUM_PS) * QUANTUM_PS + REVOLUTION_PS - 1;
                    for k in 0..u64::from(count) {
                        let back = spread_ps * k / u64::from(count);
                        self.schedule(SimTime::from_ps(edge - back));
                    }
                }
            }
            Op::Reserve { offset_ps } => {
                let seq = self.wheel.alloc_seq();
                prop_assert_eq!(seq, self.heap.alloc_seq());
                let t = self.now + SimDuration::from_ps(offset_ps);
                self.reserved.push((t, seq));
            }
            Op::HandBack { pick } => {
                if !self.reserved.is_empty() {
                    let i = usize::from(pick) % self.reserved.len();
                    self.hand_back(i);
                }
            }
            Op::Pop { count } => {
                for _ in 0..count {
                    if self.pop()? {
                        break;
                    }
                }
            }
            Op::Peek => {
                prop_assert_eq!(self.wheel.peek_key(), self.heap.peek_key());
                prop_assert_eq!(self.wheel.peek_time(), self.heap.peek_time());
            }
        }
        prop_assert_eq!(self.wheel.len(), self.heap.len());
        prop_assert_eq!(self.wheel.is_empty(), self.heap.is_empty());
        Ok(())
    }

    /// Hands back every outstanding reservation, then drains both
    /// queues: full pop sequences must match.
    fn finish(&mut self) -> Result<(), TestCaseError> {
        while !self.reserved.is_empty() {
            self.hand_back(self.reserved.len() - 1);
        }
        while !self.pop()? {}
        prop_assert_eq!(
            self.wheel.stats(),
            self.heap.stats(),
            "lifetime stats diverged"
        );
        prop_assert_eq!(self.wheel.window_max_depth(), self.heap.window_max_depth());
        Ok(())
    }
}

/// Drives both queues with the same script; fails on the first
/// divergence, returning the number of pops.
fn drive(ops: &[Op]) -> Result<usize, TestCaseError> {
    let mut pair = Pair::new();
    for &op in ops {
        pair.step(op)?;
    }
    pair.finish()?;
    Ok(pair.pops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleavings of schedules (bursts, past times,
    /// rewinds and the evictions they force, reserved hand-backs,
    /// overflow-horizon offsets), pops, and peeks behave identically.
    #[test]
    fn wheel_matches_heap_on_random_interleavings(ops in prop::collection::vec(op_strategy(), 1..120)) {
        drive(&ops)?;
    }

    /// A pure same-time burst pops in exact scheduling (FIFO) order on
    /// both queues.
    #[test]
    fn same_time_bursts_stay_fifo(count in 1usize..400, offset_ps in 0u64..10_000_000) {
        let mut wheel: EventQueue<usize> = EventQueue::new();
        let mut heap: HeapQueue<usize> = HeapQueue::new();
        let t = SimTime::ZERO + SimDuration::from_ps(offset_ps);
        for i in 0..count {
            wheel.schedule(t, i);
            heap.schedule(t, i);
        }
        for i in 0..count {
            let w = wheel.pop().unwrap();
            prop_assert_eq!(w, heap.pop().unwrap());
            prop_assert_eq!(w.1, i, "burst must pop in schedule order");
        }
        prop_assert!(wheel.pop().is_none() && heap.pop().is_none());
    }

    /// Schedules that walk back from a far head one step at a time, each
    /// just before the new head, rewind the wheel on every insert; a
    /// burst at the horizon rides along and is evicted bit by bit.
    #[test]
    fn repeated_rewinds_match_heap(
        steps in prop::collection::vec((1u64..4 * QUANTUM_PS, any::<bool>()), 1..300),
        burst in 0u8..40,
    ) {
        let mut pair = Pair::new();
        let far = SimTime::from_ps(400 * REVOLUTION_PS);
        pair.schedule(far);
        pair.step(Op::HorizonBurst { spread_ps: 2 * REVOLUTION_PS / 3, count: burst })?;
        for (back, pop) in steps {
            pair.step(Op::ScheduleBeforeHead { back_ps: back })?;
            if pop {
                pair.step(Op::Pop { count: 1 })?;
            }
        }
        pair.finish()?;
    }

    /// Clearing mid-script keeps the two queues in lockstep (lifetime
    /// stats kept, depth window reset — on both).
    #[test]
    fn clear_keeps_queues_in_lockstep(
        before in prop::collection::vec(op_strategy(), 1..40),
        after in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut pair = Pair::new();
        for op in before {
            pair.step(op)?;
        }
        pair.wheel.clear();
        pair.heap.clear();
        // A cleared queue starts a new run: time restarts and the old
        // run's reservations are dropped.
        pair.now = SimTime::ZERO;
        pair.reserved.clear();
        prop_assert_eq!(pair.wheel.len(), 0);
        prop_assert_eq!(pair.wheel.window_max_depth(), 0);
        prop_assert_eq!(pair.heap.window_max_depth(), 0);
        prop_assert_eq!(pair.wheel.stats(), pair.heap.stats());
        for op in after {
            pair.step(op)?;
        }
        pair.finish()?;
    }
}

#[test]
fn queue_kinds_are_distinct_and_stable() {
    let wheel: EventQueue<()> = EventQueue::new();
    let heap: HeapQueue<()> = HeapQueue::new();
    assert_eq!(wheel.queue_kind(), QUEUE_KIND);
    assert_eq!(heap.queue_kind(), HEAP_QUEUE_KIND);
    assert_ne!(wheel.queue_kind(), heap.queue_kind());
}

#[test]
fn debug_is_nonempty() {
    let q: EventQueue<()> = EventQueue::new();
    assert!(!format!("{q:?}").is_empty());
    let h: HeapQueue<()> = HeapQueue::new();
    assert!(!format!("{h:?}").is_empty());
}
