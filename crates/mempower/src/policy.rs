//! Low-level memory power-management policies.
//!
//! The paper's DMA-aware techniques sit *on top of* a conventional policy
//! that decides when an idle chip descends into which low-power mode
//! (Section 2.2). This module provides:
//!
//! * [`DynamicThresholdPolicy`] — the dynamic scheme of Lebeck et al.
//!   (ASPLOS 2000), the paper's evaluation **baseline**: step down to the
//!   next lower mode after a per-mode idleness threshold.
//! * [`StaticPolicy`] — always drop to one fixed mode as soon as idle.
//! * [`AlwaysActive`] — no power management (used to measure the
//!   unconstrained request service time `T` and calibrate CP-Limit).
//! * [`SelfTuningPolicy`] — an adaptive-threshold extension in the spirit of
//!   Li et al. (ASPLOS 2004), used for the threshold-insensitivity ablation.

use crate::model::{PowerMode, PowerModel};
use simcore::{SimDuration, SimTime};

/// Decides when an idle chip transitions into which low-power mode.
///
/// The simulator calls [`PowerPolicy::next_step`] whenever a chip settles
/// into a mode while idle; the policy answers "begin transitioning to mode
/// `M` at instant `t`" (the simulator re-checks that the chip is still idle
/// when `t` arrives). Implementations must be deterministic.
pub trait PowerPolicy: std::fmt::Debug + Send {
    /// Given a chip settled in `current` and continuously idle since
    /// `idle_start`, returns the next down-transition as
    /// `(target mode, instant to begin)`, or `None` to stay put. A pure
    /// query: adaptive policies change state only in
    /// [`PowerPolicy::observe_idle_period`].
    fn next_step(&self, current: PowerMode, idle_start: SimTime) -> Option<(PowerMode, SimTime)>;

    /// Feedback hook: reports the length of a completed idle period (from
    /// idle start to the wake-triggering request). Adaptive policies use
    /// this; the default ignores it.
    fn observe_idle_period(&mut self, idle: SimDuration) {
        let _ = idle;
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// No power management: the chip never leaves `Active`.
///
/// # Example
///
/// ```
/// use mempower::policy::{AlwaysActive, PowerPolicy};
/// use mempower::PowerMode;
/// use simcore::SimTime;
///
/// let p = AlwaysActive;
/// assert_eq!(p.next_step(PowerMode::Active, SimTime::ZERO), None);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysActive;

impl PowerPolicy for AlwaysActive {
    fn next_step(&self, _current: PowerMode, _idle_start: SimTime) -> Option<(PowerMode, SimTime)> {
        None
    }

    fn name(&self) -> &'static str {
        "always-active"
    }
}

/// Static policy: as soon as the chip is idle, drop straight to a fixed
/// low-power mode; return to it after every service.
#[derive(Debug, Clone, Copy)]
pub struct StaticPolicy {
    mode: PowerMode,
}

impl StaticPolicy {
    /// Creates a static policy parked in `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is `Active` (use [`AlwaysActive`] for that).
    pub fn new(mode: PowerMode) -> Self {
        assert!(mode.is_low_power(), "static policy needs a low-power mode");
        StaticPolicy { mode }
    }

    /// The parking mode.
    pub fn mode(&self) -> PowerMode {
        self.mode
    }
}

impl PowerPolicy for StaticPolicy {
    fn next_step(&self, current: PowerMode, idle_start: SimTime) -> Option<(PowerMode, SimTime)> {
        if current == PowerMode::Active {
            Some((self.mode, idle_start))
        } else {
            None
        }
    }

    fn name(&self) -> &'static str {
        match self.mode {
            PowerMode::Active => unreachable!(),
            PowerMode::Standby => "static-standby",
            PowerMode::Nap => "static-nap",
            PowerMode::Powerdown => "static-powerdown",
        }
    }
}

/// The dynamic threshold policy of Lebeck et al. — the paper's baseline.
///
/// The chip steps `Active -> Standby -> Nap -> Powerdown`, entering each
/// deeper mode once *cumulative* idleness (measured from the start of the
/// idle period) passes that mode's threshold. A `None` threshold disables
/// the mode.
///
/// # Example
///
/// ```
/// use mempower::policy::{DynamicThresholdPolicy, PowerPolicy};
/// use mempower::{PowerMode, PowerModel};
/// use simcore::{SimDuration, SimTime};
///
/// let p = DynamicThresholdPolicy::lebeck(&PowerModel::rdram());
/// let (mode, when) = p.next_step(PowerMode::Active, SimTime::ZERO).unwrap();
/// assert_eq!(mode, PowerMode::Standby);
/// assert!(when > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DynamicThresholdPolicy {
    to_standby: Option<SimDuration>,
    to_nap: Option<SimDuration>,
    to_powerdown: Option<SimDuration>,
}

impl DynamicThresholdPolicy {
    /// Creates a policy with explicit cumulative-idleness thresholds.
    ///
    /// # Panics
    ///
    /// Panics if the enabled thresholds are not strictly increasing.
    pub fn new(
        to_standby: Option<SimDuration>,
        to_nap: Option<SimDuration>,
        to_powerdown: Option<SimDuration>,
    ) -> Self {
        let mut prev = SimDuration::ZERO;
        for th in [to_standby, to_nap, to_powerdown].into_iter().flatten() {
            assert!(th >= prev, "thresholds must be nondecreasing");
            prev = th;
        }
        DynamicThresholdPolicy {
            to_standby,
            to_nap,
            to_powerdown,
        }
    }

    /// Default thresholds in the spirit of Lebeck et al., derived from the
    /// power model's break-even times: ~30 memory cycles to standby (the
    /// paper notes the best active-to-low threshold is around 20-30 cycles),
    /// then break-even-scaled steps to nap and powerdown.
    pub fn lebeck(model: &PowerModel) -> Self {
        let standby = SimDuration::from_ps(625 * 30);
        let nap = model.break_even(PowerMode::Nap).mul_f64(2.0);
        let powerdown = model.break_even(PowerMode::Powerdown).mul_f64(1.5);
        DynamicThresholdPolicy::new(
            Some(standby.max(SimDuration::from_ps(1))),
            Some(nap.max(standby)),
            Some(powerdown.max(nap)),
        )
    }

    /// Threshold (cumulative idleness) for entering `mode`, if enabled.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is `Active`.
    pub fn threshold(&self, mode: PowerMode) -> Option<SimDuration> {
        match mode {
            // simlint::allow(panic-path, "documented contract (see # Panics): thresholds exist only for low-power modes")
            PowerMode::Active => panic!("active mode has no threshold"),
            PowerMode::Standby => self.to_standby,
            PowerMode::Nap => self.to_nap,
            PowerMode::Powerdown => self.to_powerdown,
        }
    }

    /// Returns a copy with every threshold scaled by `factor` (used by the
    /// threshold-sensitivity ablation).
    pub fn scaled(&self, factor: f64) -> Self {
        let scale = |t: Option<SimDuration>| t.map(|d| d.mul_f64(factor));
        DynamicThresholdPolicy {
            to_standby: scale(self.to_standby),
            to_nap: scale(self.to_nap),
            to_powerdown: scale(self.to_powerdown),
        }
    }

    fn step_from(&self, current: PowerMode) -> Option<(PowerMode, SimDuration)> {
        let mut mode = current;
        while let Some(next) = mode.deeper() {
            if let Some(th) = self.threshold(next) {
                return Some((next, th));
            }
            mode = next;
        }
        None
    }
}

impl PowerPolicy for DynamicThresholdPolicy {
    fn next_step(&self, current: PowerMode, idle_start: SimTime) -> Option<(PowerMode, SimTime)> {
        self.step_from(current)
            .map(|(mode, th)| (mode, idle_start + th))
    }

    fn name(&self) -> &'static str {
        "dynamic-threshold"
    }
}

/// An adaptive-threshold policy in the spirit of Li et al. (ASPLOS 2004):
/// thresholds double when idle periods turn out too short to pay for the
/// sleep (a mispredict) and decay multiplicatively when idle periods are
/// long, within `[base/4, base*8]`.
#[derive(Debug, Clone)]
pub struct SelfTuningPolicy {
    base: DynamicThresholdPolicy,
    factor: f64,
    reference: SimDuration,
}

impl SelfTuningPolicy {
    /// Creates a self-tuning policy around Lebeck-style base thresholds for
    /// `model`.
    pub fn new(model: &PowerModel) -> Self {
        SelfTuningPolicy {
            base: DynamicThresholdPolicy::lebeck(model),
            factor: 1.0,
            reference: model.break_even(PowerMode::Powerdown),
        }
    }

    /// Current threshold multiplier (starts at 1.0).
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

impl PowerPolicy for SelfTuningPolicy {
    fn next_step(&self, current: PowerMode, idle_start: SimTime) -> Option<(PowerMode, SimTime)> {
        self.base.scaled(self.factor).next_step(current, idle_start)
    }

    fn observe_idle_period(&mut self, idle: SimDuration) {
        if idle < self.reference {
            // Slept too eagerly: back off.
            self.factor = (self.factor * 2.0).min(8.0);
        } else {
            self.factor = (self.factor * 0.95).max(0.25);
        }
    }

    fn name(&self) -> &'static str {
        "self-tuning"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    fn dynamic_steps_down_in_order() {
        let p = DynamicThresholdPolicy::new(
            Some(SimDuration::from_ns(10)),
            Some(SimDuration::from_ns(100)),
            Some(SimDuration::from_ns(1000)),
        );
        let idle0 = at(500);
        let (m1, t1) = p.next_step(PowerMode::Active, idle0).unwrap();
        assert_eq!((m1, t1), (PowerMode::Standby, at(510)));
        let (m2, t2) = p.next_step(PowerMode::Standby, idle0).unwrap();
        assert_eq!((m2, t2), (PowerMode::Nap, at(600)));
        let (m3, t3) = p.next_step(PowerMode::Nap, idle0).unwrap();
        assert_eq!((m3, t3), (PowerMode::Powerdown, at(1500)));
        assert_eq!(p.next_step(PowerMode::Powerdown, idle0), None);
    }

    #[test]
    fn dynamic_skips_disabled_modes() {
        let p = DynamicThresholdPolicy::new(None, Some(SimDuration::from_ns(50)), None);
        let (m, t) = p.next_step(PowerMode::Active, at(0)).unwrap();
        assert_eq!((m, t), (PowerMode::Nap, at(50)));
        assert_eq!(p.next_step(PowerMode::Nap, at(0)), None);
    }

    #[test]
    fn lebeck_defaults_are_ordered_and_standby_is_30_cycles() {
        let model = PowerModel::rdram();
        let p = DynamicThresholdPolicy::lebeck(&model);
        let s = p.threshold(PowerMode::Standby).unwrap();
        let n = p.threshold(PowerMode::Nap).unwrap();
        let d = p.threshold(PowerMode::Powerdown).unwrap();
        assert_eq!(s, SimDuration::from_ps(625 * 30));
        assert!(s <= n && n <= d);
        // Powerdown threshold is microseconds (dominated by the 6 us wake).
        assert!(d > SimDuration::from_us(5));
    }

    #[test]
    fn static_policy_drops_immediately() {
        let p = StaticPolicy::new(PowerMode::Nap);
        let (m, t) = p.next_step(PowerMode::Active, at(42)).unwrap();
        assert_eq!((m, t), (PowerMode::Nap, at(42)));
        assert_eq!(p.next_step(PowerMode::Nap, at(42)), None);
        assert_eq!(p.name(), "static-nap");
    }

    #[test]
    #[should_panic(expected = "low-power mode")]
    fn static_active_panics() {
        let _ = StaticPolicy::new(PowerMode::Active);
    }

    #[test]
    fn always_active_never_sleeps() {
        let p = AlwaysActive;
        assert_eq!(p.next_step(PowerMode::Active, at(0)), None);
        assert_eq!(p.name(), "always-active");
    }

    #[test]
    fn self_tuning_backs_off_on_short_idle() {
        let model = PowerModel::rdram();
        let mut p = SelfTuningPolicy::new(&model);
        let base_t = p.next_step(PowerMode::Active, at(0)).unwrap().1;
        for _ in 0..3 {
            p.observe_idle_period(SimDuration::from_ns(10)); // way below break-even
        }
        assert!(p.factor() > 1.0);
        let tuned_t = p.next_step(PowerMode::Active, at(0)).unwrap().1;
        assert!(tuned_t > base_t);
        for _ in 0..200 {
            p.observe_idle_period(SimDuration::from_ms(10));
        }
        assert!(p.factor() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn unordered_thresholds_panic() {
        let _ = DynamicThresholdPolicy::new(
            Some(SimDuration::from_ns(100)),
            Some(SimDuration::from_ns(10)),
            None,
        );
    }

    #[test]
    fn scaled_multiplies_thresholds() {
        let p = DynamicThresholdPolicy::new(
            Some(SimDuration::from_ns(10)),
            Some(SimDuration::from_ns(20)),
            Some(SimDuration::from_ns(40)),
        )
        .scaled(3.0);
        assert_eq!(
            p.threshold(PowerMode::Standby),
            Some(SimDuration::from_ns(30))
        );
        assert_eq!(
            p.threshold(PowerMode::Powerdown),
            Some(SimDuration::from_ns(120))
        );
    }

    #[test]
    fn policies_are_object_safe() {
        let model = PowerModel::rdram();
        let mut policies: Vec<Box<dyn PowerPolicy>> = vec![
            Box::new(AlwaysActive),
            Box::new(StaticPolicy::new(PowerMode::Powerdown)),
            Box::new(DynamicThresholdPolicy::lebeck(&model)),
            Box::new(SelfTuningPolicy::new(&model)),
        ];
        for p in &mut policies {
            let _ = p.next_step(PowerMode::Active, at(0));
            p.observe_idle_period(SimDuration::from_us(1));
            assert!(!p.name().is_empty());
        }
    }
}
