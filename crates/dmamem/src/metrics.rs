//! Simulation results and derived metrics.

use mempower::{EnergyBreakdown, EnergyCategory, ModeResidency};
use simcore::obs::trace::TraceBuffer;
use simcore::stats::DurationStats;
use simcore::{EngineProfile, SimDuration};

use crate::obs::{RunObs, SlackSummary};

/// Everything a simulation run measured.
///
/// Produced by [`crate::ServerSimulator::run`]; the experiment harness
/// combines several of these into the paper's tables and figures.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Scheme label ("baseline", "DMA-TA", "DMA-TA-PL(2)", ...).
    pub scheme: String,
    /// Aggregate energy breakdown across all chips.
    pub energy: EnergyBreakdown,
    /// Per-chip total energy in millijoules (hot/cold structure).
    pub per_chip_mj: Vec<f64>,
    /// Per-chip energy breakdowns (same category split as [`Self::energy`],
    /// one ledger per chip; drives the per-chip attribution report).
    pub per_chip_energy: Vec<EnergyBreakdown>,
    /// Per-chip power-mode residency (time settled in each mode plus
    /// transitioning; sums to the horizon per chip).
    pub per_chip_residency: Vec<ModeResidency>,
    /// Simulated horizon (start to last accounted instant).
    pub horizon: SimDuration,
    /// DMA-memory requests served.
    pub dma_requests: u64,
    /// DMA transfers completed.
    pub transfers: u64,
    /// Processor accesses served.
    pub proc_accesses: u64,
    /// Per-DMA-memory-request service time (controller arrival to service
    /// completion) — the quantity the performance guarantee bounds.
    pub request_service: DurationStats,
    /// Per-transfer response time (transfer arrival to last request
    /// served) — the client-perceived latency proxy.
    pub transfer_response: DurationStats,
    /// Time chips spent actively serving DMA-memory requests (excludes
    /// processor accesses) — `T_useful` of the utilization factor.
    pub dma_serving: SimDuration,
    /// Chip wake-ups performed.
    pub wakes: u64,
    /// First requests the controller delayed (DMA-TA gathering).
    pub delayed_firsts: u64,
    /// Page moves performed by PL.
    pub page_moves: u64,
    /// Largest number of hot chips any PL plan of the run chose (0 when
    /// no plan ran). The sweep engine reads it to tell whether a PL(K)
    /// run would plan exactly as its PL(2) twin did (see
    /// [`crate::controller::pl::agrees_with_two_groups`]).
    pub max_hot_chips: usize,
    /// The `mu` budget in force (0 when TA is off).
    pub mu: f64,
    /// The system's sleep-floor power (all chips in the deepest mode), in
    /// milliwatts — used to extend runs to a common horizon for fair
    /// energy comparison.
    pub sleep_floor_mw: f64,
    /// Final slack-account summary (present when DMA-TA ran with a
    /// guarantee budget).
    pub slack: Option<SlackSummary>,
    /// Observability report — metrics snapshot and the recorded event
    /// stream (see [`crate::ServerSimulator::with_observability`]).
    pub obs: Option<RunObs>,
    /// Causal span trace, if tracing was requested (see
    /// [`crate::ServerSimulator::with_tracing`]).
    pub trace: Option<TraceBuffer>,
    /// Engine self-profile: deterministic hot-path counters.
    pub profile: EngineProfile,
}

impl SimResult {
    /// The utilization factor `uf = T_useful / T_tot` (Section 5.3):
    /// DMA serving time over total chip-active time attributable to DMA
    /// transfers (serving + inter-request idle). 1.0 when no DMA activity.
    pub fn utilization_factor(&self) -> f64 {
        let idle = self.energy.time(EnergyCategory::ActiveIdleDma);
        let tot = self.dma_serving + idle;
        if tot.is_zero() {
            1.0
        } else {
            self.dma_serving.ratio(tot)
        }
    }

    /// Average power over the horizon, in milliwatts.
    pub fn avg_power_mw(&self) -> f64 {
        let secs = self.horizon.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            // mJ / s = mW.
            self.energy.total_mj() / secs
        }
    }

    /// Total energy if the run were extended to horizon `h` with every
    /// chip asleep at the floor (how a longer-tailed comparison run would
    /// behave after this one finishes its work).
    pub fn energy_mj_at(&self, h: SimDuration) -> f64 {
        let extra = h.saturating_sub(self.horizon);
        self.energy.total_mj() + self.sleep_floor_mw * extra.as_secs_f64()
    }

    /// Fractional energy savings versus `baseline` (positive = saved).
    ///
    /// Schemes that delay work can run slightly longer than the baseline;
    /// both runs are extended to the later horizon at the sleep-floor power
    /// so neither side is charged or credited for idle tail time the other
    /// does not see.
    pub fn savings_vs(&self, baseline: &SimResult) -> f64 {
        let h = self.horizon.max(baseline.horizon);
        let base = baseline.energy_mj_at(h);
        assert!(base > 0.0, "baseline consumed no energy");
        (base - self.energy_mj_at(h)) / base
    }

    /// Client-perceived degradation versus `baseline`: relative increase of
    /// the mean transfer response time. Negative values (faster than
    /// baseline) are possible and clamp naturally.
    pub fn response_degradation_vs(&self, baseline: &SimResult) -> f64 {
        let base = baseline.transfer_response.mean_ns();
        if base == 0.0 {
            0.0
        } else {
            (self.transfer_response.mean_ns() - base) / base
        }
    }

    /// Whether the per-request soft guarantee held: the mean DMA-memory
    /// request service time stayed within `(1 + mu)` of the reference time
    /// `t_ref` (measured on a no-alignment, no-power-management run, per
    /// Section 4.1.2).
    pub fn guarantee_met(&self, t_ref: SimDuration) -> bool {
        self.request_service.mean_ns() <= (1.0 + self.mu) * t_ref.as_ns_f64() + 1e-9
    }
}

impl std::fmt::Display for SimResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {:.3} mJ over {} ({:.1} mW), uf={:.2}",
            self.scheme,
            self.energy.total_mj(),
            self.horizon,
            self.avg_power_mw(),
            self.utilization_factor()
        )?;
        write!(
            f,
            "  {} transfers, {} requests (mean service {:.1} ns), {} proc, {} wakes, {} delayed firsts, {} moves",
            self.transfers,
            self.dma_requests,
            self.request_service.mean_ns(),
            self.proc_accesses,
            self.wakes,
            self.delayed_firsts,
            self.page_moves
        )?;
        if let Some(s) = &self.slack {
            write!(
                f,
                "\n  slack: {} credits, debits epoch {:.1}/wake {:.1}/proc {:.1}/queue {:.1} us, final {:.1} us (min {:.1})",
                s.credited,
                s.debit_epoch_ps / 1e6,
                s.debit_wake_ps / 1e6,
                s.debit_proc_ps / 1e6,
                s.debit_queue_ps / 1e6,
                s.final_ps / 1e6,
                s.min_ps / 1e6
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(total_serving_ns: u64, idle_dma_ns: u64) -> SimResult {
        let mut energy = EnergyBreakdown::new();
        energy.accrue(
            EnergyCategory::ActiveServing,
            300.0,
            SimDuration::from_ns(total_serving_ns),
        );
        energy.accrue(
            EnergyCategory::ActiveIdleDma,
            300.0,
            SimDuration::from_ns(idle_dma_ns),
        );
        SimResult {
            scheme: "test".into(),
            energy,
            per_chip_mj: vec![],
            per_chip_energy: vec![],
            per_chip_residency: vec![],
            horizon: SimDuration::from_us(1),
            dma_requests: 10,
            transfers: 1,
            proc_accesses: 0,
            request_service: DurationStats::new(),
            transfer_response: DurationStats::new(),
            dma_serving: SimDuration::from_ns(total_serving_ns),
            wakes: 0,
            delayed_firsts: 0,
            page_moves: 0,
            max_hot_chips: 0,
            mu: 0.0,
            sleep_floor_mw: 96.0,
            slack: None,
            obs: None,
            trace: None,
            profile: EngineProfile::default(),
        }
    }

    #[test]
    fn utilization_factor_matches_figure2a() {
        let r = mk(4, 8);
        assert!((r.utilization_factor() - 1.0 / 3.0).abs() < 1e-9);
        let full = mk(12, 0);
        assert_eq!(full.utilization_factor(), 1.0);
    }

    #[test]
    fn savings_and_power() {
        let base = mk(4, 8);
        let better = mk(4, 2);
        assert!(better.savings_vs(&base) > 0.0);
        assert!(base.avg_power_mw() > 0.0);
    }

    #[test]
    fn guarantee_check_uses_mu() {
        let mut r = mk(4, 8);
        r.request_service.record(SimDuration::from_ns(9));
        r.mu = 0.5;
        assert!(r.guarantee_met(SimDuration::from_ns(8))); // limit 12 ns
        r.mu = 0.0;
        assert!(!r.guarantee_met(SimDuration::from_ns(8)));
    }

    #[test]
    fn display_mentions_scheme() {
        let r = mk(1, 1);
        let s = r.to_string();
        assert!(s.contains("test") && s.contains("uf="));
    }
}
