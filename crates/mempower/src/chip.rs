//! The per-chip power/energy state machine.
//!
//! A [`Chip`] is a *passive* model: the discrete-event simulator driving it
//! calls state-changing methods ([`Chip::begin_service`],
//! [`Chip::begin_sleep`], [`Chip::begin_wake`],
//! [`Chip::complete_transition`]) and the chip lazily accrues energy between
//! calls, classifying active-idle time as *DMA idle* versus *threshold idle*
//! from the number of in-flight DMA transfers the controller has registered
//! against it (paper Figure 2).

use crate::energy::{EnergyBreakdown, EnergyCategory};
use crate::model::{PowerMode, PowerModel};
use simcore::{SimDuration, SimTime};

/// Index of a memory chip in the system.
pub type ChipId = usize;

/// What a chip is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipPhase {
    /// Settled in a power mode.
    Steady(PowerMode),
    /// Transitioning from `Active` down to `to`; completes at `until`.
    GoingDown {
        /// Target low-power mode.
        to: PowerMode,
        /// Completion instant.
        until: SimTime,
    },
    /// Waking from `from` back to `Active`; completes at `until`.
    Waking {
        /// The low-power mode being left.
        from: PowerMode,
        /// Completion instant.
        until: SimTime,
    },
}

/// Time a chip spent settled in each power mode, plus time spent
/// transitioning between modes — the per-state residency view that DRAM
/// power studies report alongside energy (e.g. Jagtap et al.'s gem5
/// power-down integration). Sums to the simulated horizon for a chip
/// synced through the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeResidency {
    settled: [SimDuration; 4],
    transitioning: SimDuration,
}

impl ModeResidency {
    /// An empty residency ledger.
    pub fn new() -> Self {
        ModeResidency::default()
    }

    fn mode_slot(mode: PowerMode) -> usize {
        match mode {
            PowerMode::Active => 0,
            PowerMode::Standby => 1,
            PowerMode::Nap => 2,
            PowerMode::Powerdown => 3,
        }
    }

    fn note(&mut self, phase: ChipPhase, duration: SimDuration) {
        match phase {
            ChipPhase::Steady(mode) => self.settled[Self::mode_slot(mode)] += duration,
            ChipPhase::GoingDown { .. } | ChipPhase::Waking { .. } => {
                self.transitioning += duration;
            }
        }
    }

    /// Books `rounds` repetitions of `accruals`, each stretch to its phase.
    fn note_rounds(&mut self, accruals: impl Iterator<Item = Accrual>, rounds: u64) {
        let mut once = ModeResidency::new();
        for a in accruals {
            once.note(a.phase, a.duration);
        }
        for (settled, once) in self.settled.iter_mut().zip(once.settled) {
            *settled += once * rounds;
        }
        self.transitioning += once.transitioning * rounds;
    }

    /// Time settled in `mode`.
    pub fn in_mode(&self, mode: PowerMode) -> SimDuration {
        self.settled[Self::mode_slot(mode)]
    }

    /// Time spent in mode transitions (either direction).
    pub fn transitioning(&self) -> SimDuration {
        self.transitioning
    }

    /// Total accounted time (the simulated horizon for a fully-synced chip).
    pub fn total(&self) -> SimDuration {
        self.settled.iter().copied().sum::<SimDuration>() + self.transitioning
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &ModeResidency) {
        for i in 0..4 {
            self.settled[i] += other.settled[i];
        }
        self.transitioning += other.transitioning;
    }
}

/// One stretch of time that [`Chip::sync`] accrues: its energy category,
/// the millijoule operand it adds (`power × duration`, as
/// [`EnergyBreakdown::accrue`] computes it), its duration, and the phase
/// its residency is booked to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accrual {
    /// Where the energy goes.
    pub category: EnergyCategory,
    /// Energy added, in millijoules.
    pub energy_mj: f64,
    /// Time added to `category` and to the residency of `phase`.
    pub duration: SimDuration,
    /// The chip's phase over the stretch.
    pub phase: ChipPhase,
}

/// One memory chip: power mode, service occupancy, and energy ledger.
///
/// # Example
///
/// ```
/// use mempower::{Chip, EnergyCategory, PowerMode, PowerModel};
/// use simcore::{SimDuration, SimTime};
///
/// let mut chip = Chip::new(0, PowerModel::rdram());
/// let t0 = SimTime::ZERO;
/// let done = chip.begin_sleep(t0, PowerMode::Nap);
/// chip.complete_transition(done);
/// assert_eq!(chip.mode(), Some(PowerMode::Nap));
/// ```
#[derive(Debug, Clone)]
pub struct Chip {
    id: ChipId,
    model: PowerModel,
    phase: ChipPhase,
    last_accrual: SimTime,
    busy_until: SimTime,
    serve_category: EnergyCategory,
    inflight_dma: u32,
    energy: EnergyBreakdown,
    residency: ModeResidency,
    last_activity: SimTime,
    services: u64,
    wakes: u64,
}

impl Chip {
    /// Creates a chip in `Active` mode at simulation start.
    pub fn new(id: ChipId, model: PowerModel) -> Self {
        Chip {
            id,
            model,
            phase: ChipPhase::Steady(PowerMode::Active),
            last_accrual: SimTime::ZERO,
            busy_until: SimTime::ZERO,
            serve_category: EnergyCategory::ActiveServing,
            inflight_dma: 0,
            energy: EnergyBreakdown::new(),
            residency: ModeResidency::new(),
            last_activity: SimTime::ZERO,
            services: 0,
            wakes: 0,
        }
    }

    /// This chip's index.
    pub fn id(&self) -> ChipId {
        self.id
    }

    /// The power model in force.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Current phase.
    pub fn phase(&self) -> ChipPhase {
        self.phase
    }

    /// The settled power mode, or `None` while transitioning.
    pub fn mode(&self) -> Option<PowerMode> {
        match self.phase {
            ChipPhase::Steady(m) => Some(m),
            _ => None,
        }
    }

    /// True if the chip is settled in `Active` mode (it may still be busy
    /// serving; see [`Chip::is_free`]).
    pub fn is_active(&self) -> bool {
        self.phase == ChipPhase::Steady(PowerMode::Active)
    }

    /// True if the chip can start a new service at `now`: active and not
    /// currently serving.
    pub fn is_free(&self, now: SimTime) -> bool {
        self.is_active() && self.busy_until <= now
    }

    /// End of the in-progress service (equals or precedes "now" when idle).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Instant energy has been accrued up to (the last state change or
    /// [`Chip::sync`]).
    pub fn last_accrual(&self) -> SimTime {
        self.last_accrual
    }

    /// Instant of the most recent service completion or wake-up — the
    /// reference point for the low-level policy's idleness thresholds.
    pub fn last_activity(&self) -> SimTime {
        self.last_activity
    }

    /// Number of DMA transfers currently registered as in flight to this
    /// chip (controls idle-time classification).
    pub fn inflight_dma(&self) -> u32 {
        self.inflight_dma
    }

    /// Number of services performed.
    pub fn services(&self) -> u64 {
        self.services
    }

    /// Number of wake-ups performed.
    pub fn wakes(&self) -> u64 {
        self.wakes
    }

    /// The energy ledger so far (accrued up to the last state change; call
    /// [`Chip::sync`] first for an up-to-the-instant view).
    pub fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }

    /// The per-mode residency ledger so far (accrued up to the last state
    /// change; call [`Chip::sync`] first for an up-to-the-instant view).
    pub fn residency(&self) -> &ModeResidency {
        &self.residency
    }

    /// Accrues energy up to `now` without changing state.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last accrual instant.
    pub fn sync(&mut self, now: SimTime) {
        self.sync_noting(now, |_| {});
    }

    /// [`Chip::sync`], handing each stretch it accrues to `note`, in
    /// order: the operands [`Chip::book_rounds`] replays.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last accrual instant.
    #[inline]
    pub fn sync_noting(&mut self, now: SimTime, mut note: impl FnMut(Accrual)) {
        assert!(
            now >= self.last_accrual,
            "chip {} time went backwards: {} < {}",
            self.id,
            now,
            self.last_accrual
        );
        let mut t = self.last_accrual;
        while t < now {
            let (seg_end, category, power) = self.segment_after(t, now);
            let duration = seg_end - t;
            let a = Accrual {
                category,
                energy_mj: EnergyBreakdown::operand(power, duration),
                duration,
                phase: self.phase,
            };
            self.energy.add_operand(a.category, a.energy_mj, a.duration);
            self.residency.note(a.phase, a.duration);
            note(a);
            t = seg_end;
        }
        self.last_accrual = now;
    }

    /// Classifies the accrual segment starting at `t` (capped at `limit`):
    /// returns (segment end, category, power in mW).
    fn segment_after(&self, t: SimTime, limit: SimTime) -> (SimTime, EnergyCategory, f64) {
        match self.phase {
            ChipPhase::GoingDown { to, until } => {
                debug_assert!(t < until || limit <= until, "down transition overran");
                (
                    limit.min(until.max(t)),
                    EnergyCategory::Transition,
                    self.model.down(to).power_mw,
                )
            }
            ChipPhase::Waking { from, until } => (
                limit.min(until.max(t)),
                EnergyCategory::Transition,
                self.model.wake(from).power_mw,
            ),
            ChipPhase::Steady(PowerMode::Active) => {
                let active = self.model.mode_power_mw(PowerMode::Active);
                if t < self.busy_until {
                    (limit.min(self.busy_until), self.serve_category, active)
                } else if self.inflight_dma > 0 {
                    (limit, EnergyCategory::ActiveIdleDma, active)
                } else {
                    (limit, EnergyCategory::ActiveIdleThreshold, active)
                }
            }
            ChipPhase::Steady(mode) => (
                limit,
                EnergyCategory::LowPower,
                self.model.mode_power_mw(mode),
            ),
        }
    }

    /// Starts serving one request (or one migration chunk) at `now`, lasting
    /// `duration` and billed to `category`.
    ///
    /// # Panics
    ///
    /// Panics if the chip is not free at `now`, or if `category` is not a
    /// serving category (`ActiveServing` or `Migration`).
    pub fn begin_service(&mut self, now: SimTime, duration: SimDuration, category: EnergyCategory) {
        assert!(
            matches!(
                category,
                EnergyCategory::ActiveServing | EnergyCategory::Migration
            ),
            "not a serving category: {category:?}"
        );
        self.sync(now);
        assert!(
            self.is_free(now),
            "chip {} cannot serve at {now}: phase {:?}, busy until {}",
            self.id,
            self.phase,
            self.busy_until
        );
        self.busy_until = now + duration;
        self.serve_category = category;
        self.last_activity = self.busy_until;
        self.services += 1;
    }

    /// Books `rounds` more repetitions of a service period the chip just
    /// ran: `accruals` are the stretches its [`Chip::begin_service`] calls
    /// accrued, in order (see [`Chip::sync_noting`]), `services` how many
    /// calls there were, and `span` the period's length. The result equals
    /// `rounds` more rounds of the same calls, each round `span` after the
    /// one before, bit for bit, provided those calls would accrue the same
    /// stretches: the chip's state at the end of the period is its state at
    /// the start shifted by `span`, and nothing else acts on it. The
    /// caller checks that; every call of the taped period already passed
    /// `begin_service`'s asserts, and a shifted call passes them too.
    ///
    /// Each energy category receives its operands in order, one f64 add
    /// each. Time, residency and the service count grow in one step, and
    /// the accrual, busy and activity instants move on by `rounds × span`.
    pub fn book_rounds<I>(&mut self, accruals: I, services: u64, span: SimDuration, rounds: u64)
    where
        I: IntoIterator<Item = Accrual>,
        I::IntoIter: Clone,
    {
        let accruals = accruals.into_iter();
        // A period that serves leaves the last service's end as the last
        // activity; the shift keeps the two together.
        debug_assert!(
            services > 0 && self.last_activity == self.busy_until,
            "chip {} booked a period without a service",
            self.id
        );
        self.energy.accrue_rounds(accruals.clone(), rounds);
        self.residency.note_rounds(accruals, rounds);
        self.services += services * rounds;
        let shift = span * rounds;
        self.last_accrual += shift;
        self.busy_until += shift;
        self.last_activity += shift;
    }

    /// Begins a transition into the deeper low-power mode `to` at `now`,
    /// from `Active` (which must be idle) or from a shallower low-power
    /// mode (the dynamic policy's standby -> nap -> powerdown descent; the
    /// transition is billed with the `Active -> to` spec, the deepest cost
    /// in the RDRAM tables). Returns the completion instant; the caller
    /// must invoke [`Chip::complete_transition`] exactly then.
    ///
    /// # Panics
    ///
    /// Panics if `to` is `Active`, the chip is mid-transition or busy
    /// serving, or `to` is not deeper than the current mode.
    pub fn begin_sleep(&mut self, now: SimTime, to: PowerMode) -> SimTime {
        assert!(to.is_low_power(), "cannot sleep into active mode");
        self.sync(now);
        let current = match self.phase {
            ChipPhase::Steady(m) => m,
            // simlint::allow(panic-path, "documented API contract: begin_sleep panics on a mid-transition chip; MemSystem gates on phase() before calling")
            _ => panic!("chip {} cannot sleep mid-transition at {now}", self.id),
        };
        assert!(
            current < to,
            "chip {} cannot sleep from {current} into {to}",
            self.id
        );
        assert!(
            current != PowerMode::Active || self.busy_until <= now,
            "chip {} cannot sleep while serving (busy until {})",
            self.id,
            self.busy_until
        );
        let until = now + self.model.down(to).latency;
        self.phase = ChipPhase::GoingDown { to, until };
        until
    }

    /// Begins waking to `Active` at `now`. Returns the completion instant;
    /// the caller must invoke [`Chip::complete_transition`] exactly then.
    ///
    /// # Panics
    ///
    /// Panics if the chip is not settled in a low-power mode.
    pub fn begin_wake(&mut self, now: SimTime) -> SimTime {
        self.sync(now);
        let from = match self.phase {
            ChipPhase::Steady(m) if m.is_low_power() => m,
            // simlint::allow(panic-path, "documented API contract: begin_wake requires a settled low-power chip; callers gate on phase()")
            _ => panic!(
                "chip {} cannot wake at {now}: phase {:?}",
                self.id, self.phase
            ),
        };
        let until = now + self.model.wake(from).latency;
        self.phase = ChipPhase::Waking { from, until };
        self.wakes += 1;
        until
    }

    /// Completes an in-progress transition. `now` must match the instant
    /// returned by [`Chip::begin_sleep`]/[`Chip::begin_wake`].
    ///
    /// # Panics
    ///
    /// Panics if no transition is in progress or `now` mismatches.
    pub fn complete_transition(&mut self, now: SimTime) {
        self.sync(now);
        match self.phase {
            ChipPhase::GoingDown { to, until } => {
                assert_eq!(until, now, "chip {} down-transition time mismatch", self.id);
                self.phase = ChipPhase::Steady(to);
            }
            ChipPhase::Waking { until, .. } => {
                assert_eq!(until, now, "chip {} wake time mismatch", self.id);
                self.phase = ChipPhase::Steady(PowerMode::Active);
                self.last_activity = now;
            }
            // simlint::allow(panic-path, "documented API contract: complete_transition pairs 1:1 with a begin_* call; a steady chip here is a scheduler bug")
            ChipPhase::Steady(_) => panic!("chip {} has no transition to complete", self.id),
        }
    }

    /// Registers the start of a DMA transfer targeting this chip (idle time
    /// now classifies as [`EnergyCategory::ActiveIdleDma`]).
    pub fn dma_transfer_started(&mut self, now: SimTime) {
        self.sync(now);
        self.inflight_dma += 1;
    }

    /// Registers the completion of a DMA transfer targeting this chip.
    ///
    /// # Panics
    ///
    /// Panics if no transfer is in flight.
    pub fn dma_transfer_ended(&mut self, now: SimTime) {
        self.sync(now);
        assert!(
            self.inflight_dma > 0,
            "chip {} had no in-flight DMA",
            self.id
        );
        self.inflight_dma -= 1;
        if self.inflight_dma == 0 {
            // End of DMA activity: idleness (for threshold purposes) starts
            // no earlier than the end of the last service.
            self.last_activity = self.last_activity.max(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_ns(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::ZERO + ns(n)
    }

    #[test]
    fn serving_energy_is_active_power_times_time() {
        let mut c = Chip::new(0, PowerModel::rdram());
        c.begin_service(at(0), ns(100), EnergyCategory::ActiveServing);
        c.sync(at(100));
        let e = c.energy();
        // 300 mW * 100 ns = 3e-5 mJ.
        assert!((e.energy_mj(EnergyCategory::ActiveServing) - 3e-5).abs() < 1e-12);
        assert_eq!(e.time(EnergyCategory::ActiveServing), ns(100));
    }

    #[test]
    fn idle_classification_follows_inflight_dma() {
        let mut c = Chip::new(0, PowerModel::rdram());
        // 0-50 ns: no DMA in flight => threshold idle.
        c.dma_transfer_started(at(50));
        // 50-150 ns: DMA in flight, not serving => DMA idle.
        c.dma_transfer_ended(at(150));
        c.sync(at(200));
        let e = c.energy();
        assert_eq!(e.time(EnergyCategory::ActiveIdleThreshold), ns(100));
        assert_eq!(e.time(EnergyCategory::ActiveIdleDma), ns(100));
    }

    #[test]
    fn serving_splits_segments() {
        let mut c = Chip::new(0, PowerModel::rdram());
        c.dma_transfer_started(at(0));
        c.begin_service(at(0), ns(4), EnergyCategory::ActiveServing);
        // Accrue straight past the service end: 4 ns serving + 8 ns DMA idle.
        c.sync(at(12));
        let e = c.energy();
        assert_eq!(e.time(EnergyCategory::ActiveServing), ns(4));
        assert_eq!(e.time(EnergyCategory::ActiveIdleDma), ns(8));
        // Figure 2(a) shape: uf = 1/3.
        assert!((e.utilization_factor() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sleep_wake_cycle_accrues_transition_and_low_power() {
        let model = PowerModel::rdram();
        let mut c = Chip::new(0, model.clone());
        let down_done = c.begin_sleep(at(0), PowerMode::Nap);
        assert_eq!(
            down_done,
            SimTime::ZERO + model.down(PowerMode::Nap).latency
        );
        c.complete_transition(down_done);
        assert_eq!(c.mode(), Some(PowerMode::Nap));

        let wake_start = at(1000);
        let wake_done = c.begin_wake(wake_start);
        assert_eq!(wake_done, wake_start + ns(60));
        c.complete_transition(wake_done);
        assert!(c.is_active());
        assert_eq!(c.wakes(), 1);

        let e = c.energy();
        let down = model.down(PowerMode::Nap);
        let wake = model.wake(PowerMode::Nap);
        let expect_transition_mj =
            down.power_mw * down.latency.as_secs_f64() + wake.power_mw * wake.latency.as_secs_f64();
        assert!((e.energy_mj(EnergyCategory::Transition) - expect_transition_mj).abs() < 1e-15);
        assert!(e.time(EnergyCategory::LowPower) > SimDuration::ZERO);
        // Low-power span = 1000 ns - 5 ns down latency.
        assert_eq!(e.time(EnergyCategory::LowPower), ns(1000) - down.latency);
    }

    #[test]
    fn migration_service_bills_migration_category() {
        let mut c = Chip::new(0, PowerModel::rdram());
        c.begin_service(at(0), ns(10), EnergyCategory::Migration);
        c.sync(at(10));
        assert_eq!(c.energy().time(EnergyCategory::Migration), ns(10));
        assert_eq!(
            c.energy().time(EnergyCategory::ActiveServing),
            SimDuration::ZERO
        );
    }

    #[test]
    fn is_free_tracks_busy_and_mode() {
        let mut c = Chip::new(3, PowerModel::rdram());
        assert!(c.is_free(at(0)));
        c.begin_service(at(0), ns(10), EnergyCategory::ActiveServing);
        assert!(!c.is_free(at(5)));
        assert!(c.is_free(at(10)));
        let done = c.begin_sleep(at(10), PowerMode::Standby);
        assert!(!c.is_free(at(10)));
        c.complete_transition(done);
        assert!(!c.is_free(done));
        assert_eq!(c.mode(), Some(PowerMode::Standby));
    }

    #[test]
    fn last_activity_tracks_service_end_and_wake() {
        let mut c = Chip::new(0, PowerModel::rdram());
        c.begin_service(at(0), ns(7), EnergyCategory::ActiveServing);
        assert_eq!(c.last_activity(), at(7));
        c.sync(at(20));
        let done = c.begin_sleep(at(20), PowerMode::Nap);
        c.complete_transition(done);
        let wake_done = c.begin_wake(at(100));
        c.complete_transition(wake_done);
        assert_eq!(c.last_activity(), wake_done);
    }

    #[test]
    #[should_panic(expected = "cannot serve")]
    fn serving_while_asleep_panics() {
        let mut c = Chip::new(0, PowerModel::rdram());
        let done = c.begin_sleep(at(0), PowerMode::Nap);
        c.complete_transition(done);
        c.begin_service(at(100), ns(1), EnergyCategory::ActiveServing);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn sync_backwards_panics() {
        let mut c = Chip::new(0, PowerModel::rdram());
        c.sync(at(10));
        c.sync(at(5));
    }

    #[test]
    #[should_panic(expected = "no in-flight DMA")]
    fn unbalanced_dma_end_panics() {
        let mut c = Chip::new(0, PowerModel::rdram());
        c.dma_transfer_ended(at(0));
    }

    #[test]
    fn residency_partitions_the_synced_horizon() {
        let model = PowerModel::rdram();
        let mut c = Chip::new(0, model.clone());
        c.begin_service(at(0), ns(100), EnergyCategory::ActiveServing);
        c.sync(at(200));
        let down_done = c.begin_sleep(at(200), PowerMode::Nap);
        c.complete_transition(down_done);
        let wake_done = c.begin_wake(at(1000));
        c.complete_transition(wake_done);
        c.sync(at(2000));
        let r = *c.residency();
        let down = model.down(PowerMode::Nap).latency;
        let wake = model.wake(PowerMode::Nap).latency;
        assert_eq!(r.transitioning(), down + wake);
        assert_eq!(r.in_mode(PowerMode::Nap), ns(800) - down);
        assert_eq!(r.in_mode(PowerMode::Powerdown), SimDuration::ZERO);
        // Active time is everything else; the whole horizon is accounted.
        assert_eq!(r.total(), ns(2000));
        assert_eq!(
            r.in_mode(PowerMode::Active),
            ns(2000) - r.transitioning() - r.in_mode(PowerMode::Nap)
        );
    }

    #[test]
    fn booking_many_services_a_period_equals_serving_them() {
        // Twelve services of different lengths a period put more operands
        // in each category than the replay keeps at hand.
        let service = |i: u64| ns(2 + i);
        let gap = |i: u64| ns(1 + i * 7 % 5);
        let span = (0..12).map(|i| service(i) + gap(i)).sum::<SimDuration>();
        let round = |c: &mut Chip, start: SimTime, tape: &mut Vec<Accrual>| {
            let mut at = start;
            for i in 0..12 {
                c.sync_noting(at, |a| tape.push(a));
                c.begin_service(at, service(i), EnergyCategory::ActiveServing);
                at += service(i) + gap(i);
            }
        };
        let mut called = Chip::new(0, PowerModel::rdram());
        let mut tape = Vec::new();
        round(&mut called, at(0), &mut tape);
        tape.clear();
        round(&mut called, at(0) + span, &mut tape);
        assert_eq!(tape.len(), 24);
        let mut booked = called.clone();
        booked.book_rounds(tape.iter().copied(), 12, span, 50);
        for r in 2..52 {
            round(&mut called, at(0) + span * r, &mut Vec::new());
        }
        for cat in EnergyCategory::ALL {
            assert_eq!(
                booked.energy().energy_mj(cat).to_bits(),
                called.energy().energy_mj(cat).to_bits()
            );
        }
        assert_eq!(booked.energy(), called.energy());
        assert_eq!(booked.residency(), called.residency());
        assert_eq!(booked.services(), called.services());
        assert_eq!(booked.busy_until(), called.busy_until());
        assert_eq!(booked.last_accrual(), called.last_accrual());
    }

    #[test]
    fn residency_merge_adds_ledgers() {
        let mut a = ModeResidency::new();
        a.note(ChipPhase::Steady(PowerMode::Active), ns(10));
        let mut b = ModeResidency::new();
        b.note(ChipPhase::Steady(PowerMode::Active), ns(5));
        b.note(
            ChipPhase::Waking {
                from: PowerMode::Nap,
                until: at(1),
            },
            ns(3),
        );
        a.merge(&b);
        assert_eq!(a.in_mode(PowerMode::Active), ns(15));
        assert_eq!(a.transitioning(), ns(3));
        assert_eq!(a.total(), ns(18));
    }

    #[test]
    fn total_energy_is_conserved_across_classification() {
        // However idle time is classified, total energy must equal the sum
        // of per-mode power times time.
        let mut c = Chip::new(0, PowerModel::rdram());
        c.dma_transfer_started(at(10));
        c.begin_service(at(10), ns(4), EnergyCategory::ActiveServing);
        c.dma_transfer_ended(at(30));
        let down_done = c.begin_sleep(at(40), PowerMode::Powerdown);
        c.complete_transition(down_done);
        c.sync(at(100_000));
        let e = c.energy();
        let active_span = ns(40);
        let trans_span = PowerModel::rdram().down(PowerMode::Powerdown).latency;
        let low_span = at(100_000) - down_done;
        let expect = 300.0 * active_span.as_secs_f64()
            + 15.0 * trans_span.as_secs_f64()
            + 3.0 * low_span.as_secs_f64();
        assert!((e.total_mj() - expect).abs() < 1e-12);
    }
}
