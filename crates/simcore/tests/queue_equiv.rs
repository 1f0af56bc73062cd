//! Heap/wheel equivalence: the calendar-wheel [`EventQueue`] and the
//! reference [`HeapQueue`] are driven with identical random
//! schedule/pop interleavings — including same-time bursts, past-time
//! schedules, and far-future (overflow-horizon) times — and must
//! produce identical pop sequences, peek keys, and lifetime stats.
//!
//! This is the load-bearing test for the queue swap: `(time, seq)` is a
//! total order, so any correct priority structure pops the same
//! sequence; here we check the wheel actually is one.

mod support;

use proptest::prelude::*;
use simcore::{EventQueue, SimDuration, SimTime, QUEUE_KIND};
use support::{HeapQueue, HEAP_QUEUE_KIND};

/// One step of a driver script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule `count` events at `now + offset_ps` (a burst shares one
    /// timestamp, exercising FIFO tie-breaks).
    Schedule { offset_ps: u64, count: u8 },
    /// Schedule one event `back_ps` before the last popped time (a
    /// past-time schedule once anything has popped).
    SchedulePast { back_ps: u64 },
    /// Pop up to `count` events.
    Pop { count: u8 },
    /// Compare peeked keys without popping.
    Peek,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 0u64..100_000_000, 1u8..6).prop_map(|(kind, raw, count)| match kind {
        // Offsets span sub-bucket (ps) to beyond the wheel horizon
        // (the wheel's window is ~8.4 us; 100ms >> horizon).
        0 => Op::Schedule {
            offset_ps: raw,
            count,
        },
        1 => Op::SchedulePast {
            back_ps: raw % 1_000_000,
        },
        2 => Op::Pop { count },
        _ => Op::Peek,
    })
}

/// Drives both queues with the same script; panics (via prop_assert in
/// the caller) on the first divergence, returning the pop log length.
fn drive(ops: &[Op]) -> Result<usize, TestCaseError> {
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut now = SimTime::ZERO;
    let mut payload = 0u32;
    let mut pops = 0usize;
    for op in ops {
        match *op {
            Op::Schedule { offset_ps, count } => {
                let t = now + SimDuration::from_ps(offset_ps);
                for _ in 0..count {
                    wheel.schedule(t, payload);
                    heap.schedule(t, payload);
                    payload += 1;
                }
            }
            Op::SchedulePast { back_ps } => {
                let t = SimTime::ZERO + SimDuration::from_ps(now.as_ps().saturating_sub(back_ps));
                wheel.schedule(t, payload);
                heap.schedule(t, payload);
                payload += 1;
            }
            Op::Pop { count } => {
                for _ in 0..count {
                    let w = wheel.pop();
                    let h = heap.pop();
                    prop_assert_eq!(w, h, "pop #{} diverged", pops);
                    match w {
                        Some((t, _)) => {
                            // Popped times must never go backwards past
                            // the true minimum: the heap is the oracle,
                            // equality above already guarantees this.
                            now = now.max(t);
                            pops += 1;
                        }
                        None => break,
                    }
                }
            }
            Op::Peek => {
                prop_assert_eq!(wheel.peek_key(), heap.peek_key());
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            }
        }
        prop_assert_eq!(wheel.len(), heap.len());
        prop_assert_eq!(wheel.is_empty(), heap.is_empty());
    }
    // Drain both to the end: full pop sequences must match.
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        prop_assert_eq!(w, h, "drain pop #{} diverged", pops);
        if w.is_none() {
            break;
        }
        pops += 1;
    }
    prop_assert_eq!(wheel.stats(), heap.stats(), "lifetime stats diverged");
    prop_assert_eq!(wheel.window_max_depth(), heap.window_max_depth());
    Ok(pops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleavings of schedules (bursts, past times,
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

    /// Clearing mid-script keeps the two queues in lockstep (lifetime
    /// stats kept, depth window reset — on both).
    #[test]
    fn clear_keeps_queues_in_lockstep(
        before in prop::collection::vec(op_strategy(), 1..40),
        after in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        let mut payload = 0u32;
        let mut run = |ops: &[Op], wheel: &mut EventQueue<u32>, heap: &mut HeapQueue<u32>| -> Result<(), TestCaseError> {
            let mut now = SimTime::ZERO;
            for op in ops {
                match *op {
                    Op::Schedule { offset_ps, count } => {
                        let t = now + SimDuration::from_ps(offset_ps);
                        for _ in 0..count {
                            wheel.schedule(t, payload);
                            heap.schedule(t, payload);
                            payload += 1;
                        }
                    }
                    Op::SchedulePast { .. } | Op::Peek => {
                        prop_assert_eq!(wheel.peek_key(), heap.peek_key());
                    }
                    Op::Pop { count } => {
                        for _ in 0..count {
                            let w = wheel.pop();
                            prop_assert_eq!(w, heap.pop());
                            if let Some((t, _)) = w {
                                now = now.max(t);
                            } else {
                                break;
                            }
                        }
                    }
                }
            }
            Ok(())
        };
        run(&before, &mut wheel, &mut heap)?;
        wheel.clear();
        heap.clear();
        prop_assert_eq!(wheel.len(), 0);
        prop_assert_eq!(wheel.window_max_depth(), 0);
        prop_assert_eq!(heap.window_max_depth(), 0);
        prop_assert_eq!(wheel.stats(), heap.stats());
        run(&after, &mut wheel, &mut heap)?;
        prop_assert_eq!(wheel.stats(), heap.stats());
        prop_assert_eq!(wheel.window_max_depth(), heap.window_max_depth());
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
