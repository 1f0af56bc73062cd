//! Energy accounting in the paper's Figure 2(b) / Figure 6 categories.

use std::fmt;
use std::ops::{Add, AddAssign};

use simcore::SimDuration;

use crate::chip::Accrual;

/// Where a joule went. These are exactly the stacked-bar components of the
/// paper's Figures 2(b) and 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyCategory {
    /// Active mode, actually moving data for a DMA-memory request or a
    /// processor access.
    ActiveServing,
    /// Active mode, idle *between successive DMA-memory requests* of
    /// in-flight transfers — the waste the paper's techniques attack.
    ActiveIdleDma,
    /// Active mode, idle waiting for the low-level policy's idleness
    /// threshold to expire.
    ActiveIdleThreshold,
    /// Power-mode transitions (both directions).
    Transition,
    /// Steady time in standby/nap/powerdown.
    LowPower,
    /// Page-migration traffic of the popularity-based layout (Figure 6 adds
    /// this category for DMA-TA-PL).
    Migration,
}

impl EnergyCategory {
    /// All categories in Figure 2(b)/6 display order.
    pub const ALL: [EnergyCategory; 6] = [
        EnergyCategory::ActiveServing,
        EnergyCategory::ActiveIdleDma,
        EnergyCategory::ActiveIdleThreshold,
        EnergyCategory::Transition,
        EnergyCategory::LowPower,
        EnergyCategory::Migration,
    ];

    fn index(self) -> usize {
        match self {
            EnergyCategory::ActiveServing => 0,
            EnergyCategory::ActiveIdleDma => 1,
            EnergyCategory::ActiveIdleThreshold => 2,
            EnergyCategory::Transition => 3,
            EnergyCategory::LowPower => 4,
            EnergyCategory::Migration => 5,
        }
    }

    /// The legend label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            EnergyCategory::ActiveServing => "Active Serving",
            EnergyCategory::ActiveIdleDma => "Active Idle DMA",
            EnergyCategory::ActiveIdleThreshold => "Active Idle Threshold",
            EnergyCategory::Transition => "Transition",
            EnergyCategory::LowPower => "Low Power Modes",
            EnergyCategory::Migration => "Migration",
        }
    }
}

impl fmt::Display for EnergyCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated energy (millijoules) and time per [`EnergyCategory`].
///
/// # Example
///
/// ```
/// use mempower::{EnergyBreakdown, EnergyCategory};
/// use simcore::SimDuration;
///
/// let mut e = EnergyBreakdown::new();
/// e.accrue(EnergyCategory::ActiveServing, 300.0, SimDuration::from_us(1));
/// e.accrue(EnergyCategory::LowPower, 3.0, SimDuration::from_us(1));
/// assert!((e.total_mj() - 0.000303).abs() < 1e-9);
/// assert!(e.fraction(EnergyCategory::ActiveServing) > 0.98);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyBreakdown {
    energy_mj: [f64; 6],
    time: [SimDuration; 6],
}

impl EnergyBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        EnergyBreakdown::default()
    }

    /// Accrues `duration` of time at `power_mw` into `category`.
    ///
    /// # Panics
    ///
    /// Panics if `power_mw` is negative or not finite.
    pub fn accrue(&mut self, category: EnergyCategory, power_mw: f64, duration: SimDuration) {
        self.add_operand(category, Self::operand(power_mw, duration), duration);
    }

    /// The energy in millijoules that [`EnergyBreakdown::accrue`] adds for
    /// `duration` at `power_mw`.
    ///
    /// # Panics
    ///
    /// Panics if `power_mw` is negative or not finite.
    pub(crate) fn operand(power_mw: f64, duration: SimDuration) -> f64 {
        assert!(
            power_mw >= 0.0 && power_mw.is_finite(),
            "invalid power: {power_mw}"
        );
        power_mw * duration.as_secs_f64()
    }

    /// Adds `energy_mj` (an [`EnergyBreakdown::operand`]) and `duration`
    /// to `category`.
    pub(crate) fn add_operand(
        &mut self,
        category: EnergyCategory,
        energy_mj: f64,
        duration: SimDuration,
    ) {
        let i = category.index();
        self.energy_mj[i] += energy_mj;
        self.time[i] += duration;
    }

    /// Adds `rounds` back-to-back repetitions of `accruals`. Each
    /// category's energy receives its operands in the order that many
    /// passes of [`EnergyBreakdown::accrue`] would give it, one f64 add
    /// each; categories are separate accumulators, so they are replayed
    /// one after another. Each category's time grows by `rounds` times one
    /// pass's durations, in one step.
    pub(crate) fn accrue_rounds<I>(&mut self, accruals: I, rounds: u64)
    where
        I: Iterator<Item = Accrual> + Clone,
    {
        for category in EnergyCategory::ALL {
            let mine = accruals.clone().filter(|a| a.category == category);
            // The category's operands in one pass, kept at hand when few.
            let mut ops = [0.0; 8];
            let (mut m, mut per_round) = (0, SimDuration::ZERO);
            for a in mine.clone() {
                if let Some(op) = ops.get_mut(m) {
                    *op = a.energy_mj;
                }
                m += 1;
                per_round += a.duration;
            }
            if m == 0 {
                continue;
            }
            let i = category.index();
            let mut e = self.energy_mj[i];
            if let Some(ops) = ops.get(..m) {
                for _ in 0..rounds {
                    for &op in ops {
                        e += op;
                    }
                }
            } else {
                for _ in 0..rounds {
                    for a in mine.clone() {
                        e += a.energy_mj;
                    }
                }
            }
            self.energy_mj[i] = e;
            self.time[i] += per_round * rounds;
        }
    }

    /// Energy accumulated in `category`, in millijoules.
    pub fn energy_mj(&self, category: EnergyCategory) -> f64 {
        self.energy_mj[category.index()]
    }

    /// Time accumulated in `category`.
    pub fn time(&self, category: EnergyCategory) -> SimDuration {
        self.time[category.index()]
    }

    /// Total energy across categories, in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.energy_mj.iter().sum()
    }

    /// Fraction of total energy in `category` (0 when empty).
    pub fn fraction(&self, category: EnergyCategory) -> f64 {
        let total = self.total_mj();
        if total == 0.0 {
            0.0
        } else {
            self.energy_mj(category) / total
        }
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        for i in 0..6 {
            self.energy_mj[i] += other.energy_mj[i];
            self.time[i] += other.time[i];
        }
    }

    /// Energy saved relative to `baseline`, as a fraction of the baseline
    /// total (the y-axis of the paper's Figures 5, 8, 9, 10). Negative when
    /// this breakdown consumes *more* than the baseline.
    ///
    /// # Panics
    ///
    /// Panics if the baseline total is zero.
    pub fn savings_vs(&self, baseline: &EnergyBreakdown) -> f64 {
        let base = baseline.total_mj();
        assert!(base > 0.0, "baseline consumed no energy");
        (base - self.total_mj()) / base
    }

    /// The utilization factor `uf = T_useful / T_tot` of Section 5.3:
    /// time actively serving divided by total active time attributable to
    /// DMA activity (serving + idle-between-requests).
    ///
    /// Returns 1.0 when no DMA activity was recorded.
    pub fn utilization_factor(&self) -> f64 {
        let useful = self.time(EnergyCategory::ActiveServing);
        let tot = useful + self.time(EnergyCategory::ActiveIdleDma);
        if tot.is_zero() {
            1.0
        } else {
            useful.ratio(tot)
        }
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn add(mut self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        self.merge(&rhs);
        self
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        self.merge(&rhs);
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<24}{:>12}  {:>7}", "category", "energy (mJ)", "share")?;
        for cat in EnergyCategory::ALL {
            writeln!(
                f,
                "{:<24}{:>12.4}  {:>6.1}%",
                cat.label(),
                self.energy_mj(cat),
                self.fraction(cat) * 100.0
            )?;
        }
        write!(f, "{:<24}{:>12.4}", "TOTAL", self.total_mj())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_energy_and_time() {
        let mut e = EnergyBreakdown::new();
        // 300 mW for 1 ms = 0.3 mJ.
        e.accrue(
            EnergyCategory::ActiveServing,
            300.0,
            SimDuration::from_ms(1),
        );
        assert!((e.energy_mj(EnergyCategory::ActiveServing) - 0.3).abs() < 1e-12);
        assert_eq!(
            e.time(EnergyCategory::ActiveServing),
            SimDuration::from_ms(1)
        );
        assert_eq!(e.energy_mj(EnergyCategory::LowPower), 0.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut e = EnergyBreakdown::new();
        for (i, cat) in EnergyCategory::ALL.into_iter().enumerate() {
            e.accrue(cat, (i + 1) as f64 * 10.0, SimDuration::from_us(7));
        }
        let sum: f64 = EnergyCategory::ALL.iter().map(|&c| e.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        let e = EnergyBreakdown::new();
        assert_eq!(e.total_mj(), 0.0);
        assert_eq!(e.fraction(EnergyCategory::Transition), 0.0);
        assert_eq!(e.utilization_factor(), 1.0);
    }

    #[test]
    fn savings_vs_baseline() {
        let mut base = EnergyBreakdown::new();
        base.accrue(
            EnergyCategory::ActiveIdleDma,
            100.0,
            SimDuration::from_ms(1),
        );
        let mut better = EnergyBreakdown::new();
        better.accrue(EnergyCategory::ActiveIdleDma, 60.0, SimDuration::from_ms(1));
        assert!((better.savings_vs(&base) - 0.4).abs() < 1e-12);
        let mut worse = EnergyBreakdown::new();
        worse.accrue(
            EnergyCategory::ActiveIdleDma,
            150.0,
            SimDuration::from_ms(1),
        );
        assert!(worse.savings_vs(&base) < 0.0);
    }

    #[test]
    fn utilization_factor_one_third() {
        // Figure 2(a): serving 4 of every 12 cycles => uf = 1/3.
        let mut e = EnergyBreakdown::new();
        e.accrue(
            EnergyCategory::ActiveServing,
            300.0,
            SimDuration::from_ns(4),
        );
        e.accrue(
            EnergyCategory::ActiveIdleDma,
            300.0,
            SimDuration::from_ns(8),
        );
        assert!((e.utilization_factor() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_and_add_agree() {
        let mut a = EnergyBreakdown::new();
        a.accrue(EnergyCategory::Transition, 15.0, SimDuration::from_us(2));
        let mut b = EnergyBreakdown::new();
        b.accrue(EnergyCategory::Transition, 15.0, SimDuration::from_us(3));
        let mut merged = a.clone();
        merged.merge(&b);
        let added = a + b;
        assert_eq!(merged, added);
        assert_eq!(
            merged.time(EnergyCategory::Transition),
            SimDuration::from_us(5)
        );
    }

    #[test]
    fn display_contains_labels_and_total() {
        let mut e = EnergyBreakdown::new();
        e.accrue(EnergyCategory::Migration, 300.0, SimDuration::from_us(1));
        let s = e.to_string();
        assert!(s.contains("Migration"));
        assert!(s.contains("TOTAL"));
        assert!(s.contains("Active Idle DMA"));
    }
}
