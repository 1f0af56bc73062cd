//! Property tests for the chip energy state machine.

use mempower::policy::{DynamicThresholdPolicy, PowerPolicy};
use mempower::{Accrual, Chip, EnergyCategory, PowerMode, PowerModel};
use proptest::prelude::*;
use simcore::{SimDuration, SimTime};

proptest! {
    /// Whatever sequence of serve / sleep / wake / idle operations a chip
    /// goes through, total energy equals the sum over phases of
    /// power x time, and total accounted time equals wall time.
    #[test]
    fn energy_and_time_are_conserved(ops in prop::collection::vec(0u8..4, 1..60)) {
        let model = PowerModel::rdram();
        let mut chip = Chip::new(0, model.clone());
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                // Serve for 4 cycles if possible.
                0 => {
                    if chip.is_free(now) {
                        chip.begin_service(now, SimDuration::from_ps(2500), EnergyCategory::ActiveServing);
                        now = chip.busy_until();
                    }
                }
                // Sleep one step deeper if possible.
                1 => {
                    if let Some(mode) = chip.mode() {
                        if let Some(deeper) = mode.deeper() {
                            if chip.is_free(now) || mode.is_low_power() {
                                let done = chip.begin_sleep(now, deeper);
                                chip.complete_transition(done);
                                now = done;
                            }
                        }
                    }
                }
                // Wake if sleeping.
                2 => {
                    if matches!(chip.mode(), Some(m) if m.is_low_power()) {
                        let done = chip.begin_wake(now);
                        chip.complete_transition(done);
                        now = done;
                    }
                }
                // Idle for a while.
                _ => {
                    now += SimDuration::from_ns(100);
                    chip.sync(now);
                }
            }
        }
        chip.sync(now);
        let e = chip.energy();
        let total_time: SimDuration = EnergyCategory::ALL.iter().map(|&c| e.time(c)).sum();
        prop_assert_eq!(total_time, now.elapsed_since(SimTime::ZERO), "time not conserved");
        // Energy bounded by active power x wall time and at least
        // powerdown x wall time.
        let wall = now.elapsed_since(SimTime::ZERO).as_secs_f64();
        prop_assert!(e.total_mj() <= 300.0 * wall + 1e-12);
        prop_assert!(e.total_mj() >= 3.0 * wall - 1e-12);
    }

    /// The dynamic policy's schedule is monotone: deeper modes fire later,
    /// and scaling thresholds scales fire times.
    #[test]
    fn dynamic_policy_schedule_monotone(scale in 0.1f64..8.0, idle_ns in 0u64..100_000) {
        let model = PowerModel::rdram();
        let p = DynamicThresholdPolicy::lebeck(&model).scaled(scale);
        let idle_start = SimTime::ZERO + SimDuration::from_ns(idle_ns);
        let mut mode = PowerMode::Active;
        let mut prev = idle_start;
        while let Some((next, when)) = p.next_step(mode, idle_start) {
            prop_assert!(next > mode, "policy went shallower");
            prop_assert!(when >= prev, "schedule went backwards");
            prev = when;
            mode = next;
        }
        prop_assert_eq!(mode, PowerMode::Powerdown);
    }

    /// Break-even times grow with wake latency and are positive.
    #[test]
    fn break_even_positive_for_any_bandwidth(bw in 5e8f64..1e10) {
        let model = PowerModel::rdram().with_bandwidth(bw);
        for mode in [PowerMode::Standby, PowerMode::Nap, PowerMode::Powerdown] {
            prop_assert!(model.break_even(mode) > SimDuration::ZERO);
        }
    }

    /// Idle classification: with no in-flight DMA, active idle time is all
    /// threshold idle; with in-flight DMA it is all DMA idle.
    #[test]
    fn idle_classification_is_exclusive(toggle in any::<bool>(), span_ns in 1u64..10_000) {
        let mut chip = Chip::new(0, PowerModel::rdram());
        let span = SimDuration::from_ns(span_ns);
        if toggle {
            chip.dma_transfer_started(SimTime::ZERO);
        }
        chip.sync(SimTime::ZERO + span);
        let e = chip.energy();
        if toggle {
            prop_assert_eq!(e.time(EnergyCategory::ActiveIdleDma), span);
            prop_assert_eq!(e.time(EnergyCategory::ActiveIdleThreshold), SimDuration::ZERO);
        } else {
            prop_assert_eq!(e.time(EnergyCategory::ActiveIdleThreshold), span);
            prop_assert_eq!(e.time(EnergyCategory::ActiveIdleDma), SimDuration::ZERO);
        }
    }

    /// Booking `k` rounds of a taped service period's accruals leaves the
    /// chip bit for bit where `k` more rounds of its `begin_service` calls
    /// would: energy and time per category, residency, services, and the
    /// accrual, busy and activity instants.
    #[test]
    fn booked_rounds_equal_service_calls(
        services in prop::collection::vec((1u64..20_000, 0u64..40_000), 1..4),
        dma in any::<bool>(),
        k in 1u64..10_001,
    ) {
        // Each service starts after the previous one's length plus a gap.
        let span = SimDuration::from_ps(services.iter().map(|&(s, g)| s + g).sum());
        let round = |chip: &mut Chip, start: SimTime, tape: &mut Vec<Accrual>| {
            let mut at = start;
            for &(s, g) in &services {
                chip.sync_noting(at, |a| tape.push(a));
                chip.begin_service(at, SimDuration::from_ps(s), EnergyCategory::ActiveServing);
                at += SimDuration::from_ps(s + g);
            }
        };
        let mut called = Chip::new(0, PowerModel::rdram());
        if dma {
            called.dma_transfer_started(SimTime::ZERO);
        }
        // The first round starts from a fresh chip; the second is steady.
        let mut tape = Vec::new();
        round(&mut called, SimTime::ZERO, &mut tape);
        tape.clear();
        round(&mut called, SimTime::ZERO + span, &mut tape);
        let mut booked = called.clone();
        booked.book_rounds(tape.iter().copied(), services.len() as u64, span, k);
        let mut scratch = Vec::new();
        for r in 2..k + 2 {
            round(&mut called, SimTime::ZERO + span * r, &mut scratch);
        }
        for c in EnergyCategory::ALL {
            prop_assert_eq!(
                booked.energy().energy_mj(c).to_bits(),
                called.energy().energy_mj(c).to_bits(),
                "energy of {:?}", c
            );
            prop_assert_eq!(booked.energy().time(c), called.energy().time(c));
        }
        prop_assert_eq!(booked.residency(), called.residency());
        prop_assert_eq!(booked.services(), called.services());
        prop_assert_eq!(booked.last_accrual(), called.last_accrual());
        prop_assert_eq!(booked.busy_until(), called.busy_until());
        prop_assert_eq!(booked.last_activity(), called.last_activity());
    }
}
