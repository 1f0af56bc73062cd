//! System and scheme configuration.

use iobus::BusConfig;
use mempower::policy::{
    AlwaysActive, DynamicThresholdPolicy, PowerPolicy, SelfTuningPolicy, StaticPolicy,
};
use mempower::{PowerMode, PowerModel};
use simcore::SimDuration;

/// Which low-level power-management policy runs under the DMA-aware schemes
/// (paper Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// No power management; chips stay active (used for calibration).
    AlwaysActive,
    /// Drop to a fixed mode whenever idle.
    Static(PowerMode),
    /// The dynamic threshold policy of Lebeck et al. — the paper's baseline.
    /// `scale` multiplies the default thresholds (1.0 = defaults); the
    /// threshold-sensitivity ablation sweeps it.
    Dynamic {
        /// Threshold multiplier.
        scale: f64,
    },
    /// Adaptive thresholds in the spirit of Li et al. (extension).
    SelfTuning,
}

impl PolicyKind {
    /// Instantiates one policy (per chip; adaptive policies keep per-chip
    /// state).
    pub fn build(&self, model: &PowerModel) -> Box<dyn PowerPolicy> {
        match *self {
            PolicyKind::AlwaysActive => Box::new(AlwaysActive),
            PolicyKind::Static(mode) => Box::new(StaticPolicy::new(mode)),
            PolicyKind::Dynamic { scale } => {
                Box::new(DynamicThresholdPolicy::lebeck(model).scaled(scale))
            }
            PolicyKind::SelfTuning => Box::new(SelfTuningPolicy::new(model)),
        }
    }
}

/// DMA-TA (temporal alignment) parameters — paper Section 4.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaConfig {
    /// The per-request performance-degradation budget `mu`: the average
    /// DMA-memory request service time may grow to `(1 + mu) * T`.
    /// Derived off-line from a client-perceived limit via
    /// [`crate::calibrate::mu_for_cp_limit`].
    pub mu: f64,
    /// Epoch length for the pessimistic slack-debit accounting.
    pub epoch: SimDuration,
    /// Upper bound on how long any single first request may be held.
    /// Delaying past the workload's per-chip arrival timescale gathers
    /// nothing more (Section 4.1.2: no need to delay beyond what full
    /// utilization requires), so the controller caps individual delays.
    pub max_delay: SimDuration,
}

impl TaConfig {
    /// Creates a TA configuration with the default 1-us epoch.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is negative or not finite.
    pub fn new(mu: f64) -> Self {
        assert!(mu >= 0.0 && mu.is_finite(), "invalid mu: {mu}");
        TaConfig {
            mu,
            epoch: SimDuration::from_us(1),
            max_delay: SimDuration::from_us(500),
        }
    }
}

/// PL (popularity-based layout) parameters — paper Section 4.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlConfig {
    /// Number of popularity groups `K` (paper: 2 works best; 3 and 6 are
    /// evaluated in Figure 5).
    pub groups: usize,
    /// Fraction of accesses the hot chips should absorb (paper's `p`,
    /// default 60 %).
    pub p: f64,
    /// Reorganization interval (layout recomputation + migration).
    pub interval: SimDuration,
    /// Cost-benefit gate (paper future work): skip migrating pages whose
    /// recent access count is below this threshold (filters sampling-noise
    /// singletons out of the hot set). 0 disables the gate.
    pub min_count_to_migrate: u32,
    /// Upper bound on page moves per interval (controller translation-table
    /// and shuffle-time budget).
    pub max_moves_per_interval: usize,
    /// Migration copy granularity in bytes. The paper evaluates whole-page
    /// copies (the default) but describes an optimization (Section 4.2.2)
    /// that copies in small chunks so the traffic hides inside the chip's
    /// active-idle cycles; set this to the DMA-memory request size (8) or a
    /// cache line (64) to enable it.
    pub migration_chunk_bytes: u64,
}

impl PlConfig {
    /// Creates a PL configuration with `groups` groups and defaults
    /// elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `groups < 2`.
    pub fn new(groups: usize) -> Self {
        assert!(groups >= 2, "PL needs at least a hot and a cold group");
        PlConfig {
            groups,
            p: 0.6,
            interval: SimDuration::from_ms(5),
            min_count_to_migrate: 2,
            max_moves_per_interval: 8192,
            migration_chunk_bytes: 8192,
        }
    }
}

impl Default for PlConfig {
    fn default() -> Self {
        PlConfig::new(2)
    }
}

/// The memory-management scheme under evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheme {
    /// Temporal alignment, if enabled.
    pub ta: Option<TaConfig>,
    /// Popularity-based layout, if enabled.
    pub pl: Option<PlConfig>,
}

impl Scheme {
    /// The paper's baseline: low-level dynamic policy only.
    pub fn baseline() -> Self {
        Scheme { ta: None, pl: None }
    }

    /// DMA-TA only, with performance budget `mu`.
    pub fn dma_ta(mu: f64) -> Self {
        Scheme {
            ta: Some(TaConfig::new(mu)),
            pl: None,
        }
    }

    /// DMA-TA plus popularity-based layout with `groups` groups.
    pub fn dma_ta_pl(mu: f64, groups: usize) -> Self {
        Scheme {
            ta: Some(TaConfig::new(mu)),
            pl: Some(PlConfig::new(groups)),
        }
    }

    /// Validates the controller parameters.
    ///
    /// # Panics
    ///
    /// Panics if the DMA-TA epoch or the PL interval is zero (either
    /// would re-arm its periodic event at the same instant forever).
    pub fn validate(&self) {
        if let Some(ta) = self.ta {
            assert!(!ta.epoch.is_zero(), "DMA-TA epoch must be positive");
        }
        if let Some(pl) = self.pl {
            assert!(!pl.interval.is_zero(), "PL interval must be positive");
        }
    }

    /// A short label for reports ("baseline", "DMA-TA", "DMA-TA-PL(2)").
    pub fn label(&self) -> String {
        match (self.ta, self.pl) {
            (None, None) => "baseline".to_string(),
            (Some(_), None) => "DMA-TA".to_string(),
            (Some(_), Some(pl)) => format!("DMA-TA-PL({})", pl.groups),
            (None, Some(pl)) => format!("PL({})", pl.groups),
        }
    }
}

/// Full system configuration: memory, buses, working set, low-level policy.
///
/// The default reproduces the paper's simulated system (Section 5.1): 32
/// 32-MB 1600-MHz RDRAM chips (1 GB), three 133-MHz 64-bit PCI-X buses,
/// 8-byte DMA-memory requests, 8-KB pages, dynamic threshold policy.
///
/// # Example
///
/// ```
/// use dmamem::SystemConfig;
///
/// let c = SystemConfig::default();
/// assert_eq!(c.chips, 32);
/// assert_eq!(c.buses.len(), 3);
/// assert_eq!(c.frames_per_chip(), 4096);
/// assert_eq!(c.k_buses_to_saturate(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of memory chips.
    pub chips: usize,
    /// The chip power/timing model.
    pub power_model: PowerModel,
    /// One config per I/O bus.
    pub buses: Vec<BusConfig>,
    /// Page size in bytes (the DMA transfer unit).
    pub page_bytes: u64,
    /// Logical working-set size in pages (must fit in the chips).
    pub pages: usize,
    /// Low-level power-management policy.
    pub policy: PolicyKind,
    /// Processor access size in bytes (one cache line).
    pub cache_line_bytes: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            chips: 32,
            power_model: PowerModel::rdram(),
            buses: vec![BusConfig::pci_x(); 3],
            page_bytes: 8192,
            pages: 65_536,
            policy: PolicyKind::Dynamic { scale: 1.0 },
            cache_line_bytes: 64,
        }
    }
}

impl SystemConfig {
    /// Page frames each chip holds.
    pub fn frames_per_chip(&self) -> usize {
        (self.power_model.chip_bytes() / self.page_bytes) as usize
    }

    /// Total page frames in the system.
    pub fn total_frames(&self) -> usize {
        self.frames_per_chip() * self.chips
    }

    /// `k = ceil(Rm / Rb)`: how many buses of the first bus's rate saturate
    /// one memory chip (paper Section 4.1.2).
    ///
    /// # Panics
    ///
    /// Panics if there are no buses.
    pub fn k_buses_to_saturate(&self) -> usize {
        assert!(!self.buses.is_empty(), "no buses configured");
        let rm = self.power_model.bandwidth_bytes_per_sec();
        let rb = self.buses[0].bytes_per_sec;
        // A 2% tolerance mirrors the paper's treatment of the 3.2/1.064
        // ratio (3.0075) as exactly 3: a bus set within a hair of full
        // utilization counts as saturating.
        ((rm / rb * 0.98).ceil() as usize).max(1)
    }

    /// The reference DMA-memory request time `T` used by the performance
    /// guarantee: the bus slot period (the pace of an unimpeded transfer).
    pub fn t_request(&self) -> SimDuration {
        self.buses[0].slot_period()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the working set does not fit in memory, there are no buses
    /// or chips, or the request size exceeds the page size.
    pub fn validate(&self) {
        assert!(self.chips > 0, "no memory chips");
        assert!(!self.buses.is_empty(), "no buses");
        assert!(self.pages > 0, "empty working set");
        assert!(
            self.pages <= self.total_frames(),
            "working set ({} pages) exceeds memory ({} frames)",
            self.pages,
            self.total_frames()
        );
        for b in &self.buses {
            assert!(
                b.request_bytes <= self.page_bytes,
                "request size {} exceeds page size {}",
                b.request_bytes,
                self.page_bytes
            );
        }
        assert!(
            self.cache_line_bytes > 0 && self.cache_line_bytes <= self.page_bytes,
            "bad cache line size"
        );
    }

    /// Replaces every bus with `n` copies of `bus`.
    pub fn with_buses(mut self, n: usize, bus: BusConfig) -> Self {
        self.buses = vec![bus; n];
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_system() {
        let c = SystemConfig::default();
        c.validate();
        assert_eq!(c.total_frames(), 131_072);
        // Rm/Rb = 3.2/1.064 ~ 3.
        assert_eq!(c.k_buses_to_saturate(), 3);
        // T = one 8-byte PCI-X slot ~ 7.5 ns ~ 12 memory cycles.
        let t = c.t_request();
        assert!(t.as_ns_f64() > 7.0 && t.as_ns_f64() < 8.0);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::baseline().label(), "baseline");
        assert_eq!(Scheme::dma_ta(0.5).label(), "DMA-TA");
        assert_eq!(Scheme::dma_ta_pl(0.5, 2).label(), "DMA-TA-PL(2)");
        assert_eq!(
            Scheme {
                ta: None,
                pl: Some(PlConfig::new(3))
            }
            .label(),
            "PL(3)"
        );
    }

    #[test]
    fn policy_kinds_build() {
        let model = PowerModel::rdram();
        for kind in [
            PolicyKind::AlwaysActive,
            PolicyKind::Static(PowerMode::Nap),
            PolicyKind::Dynamic { scale: 1.0 },
            PolicyKind::SelfTuning,
        ] {
            let p = kind.build(&model);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn ratio_sweep_changes_k() {
        // Figure 10: vary the I/O bus rate with memory fixed at 3.2 GB/s.
        let mk = |rate: f64| {
            SystemConfig::default()
                .with_buses(3, BusConfig::with_rate(rate))
                .k_buses_to_saturate()
        };
        assert_eq!(mk(3.2e9), 1);
        assert_eq!(mk(2.0e9), 2);
        assert_eq!(mk(1.064e9), 3);
        assert_eq!(mk(0.5e9), 7);
    }

    #[test]
    #[should_panic(expected = "exceeds memory")]
    fn oversized_working_set_panics() {
        let c = SystemConfig {
            pages: 200_000,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least a hot and a cold")]
    fn single_group_pl_panics() {
        let _ = PlConfig::new(1);
    }

    #[test]
    fn ta_config_defaults() {
        let ta = TaConfig::new(0.3);
        assert_eq!(ta.epoch, SimDuration::from_us(1));
    }
}
