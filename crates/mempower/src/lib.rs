//! RDRAM-style multi-power-mode DRAM energy model.
//!
//! This crate implements the memory power model of the paper's Section 2.2:
//! chips that independently operate in one of four power modes (active,
//! standby, nap, powerdown), with the mode powers and transition costs of the
//! paper's **Table 1** (512-Mb 1600 MHz RDRAM), plus:
//!
//! * [`EnergyBreakdown`] — energy accounting in exactly the categories of the
//!   paper's Figures 2(b) and 6 (`ActiveServing`, `ActiveIdleDma`,
//!   `ActiveIdleThreshold`, `Transition`, `LowPower`, `Migration`).
//! * [`Chip`] — a lazily-accruing per-chip power/energy state machine driven
//!   by a discrete-event simulator.
//! * [`policy`] — the low-level power-management policies the paper layers
//!   its DMA-aware techniques on: the dynamic threshold policy of Lebeck et
//!   al. (the evaluation baseline), static policies, and a self-tuning
//!   variant in the spirit of Li et al.
//!
//! # Example
//!
//! ```
//! use mempower::{Chip, EnergyCategory, PowerModel};
//! use simcore::{SimDuration, SimTime};
//!
//! let model = PowerModel::rdram();
//! let mut chip = Chip::new(0, model);
//! let t0 = SimTime::ZERO;
//! // Serve a request for 2.5 ns (4 memory cycles), then idle.
//! chip.begin_service(t0, SimDuration::from_ps(2500), EnergyCategory::ActiveServing);
//! chip.sync(t0 + SimDuration::from_ns(10));
//! let e = chip.energy();
//! assert!(e.energy_mj(EnergyCategory::ActiveServing) > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Engine code must not panic on recoverable conditions; test code may
// unwrap freely (CI runs clippy with -D warnings, so this stays a
// lib-only gate).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod chip;
mod energy;
mod model;
pub mod policy;

pub use chip::{Accrual, Chip, ChipId, ChipPhase, ModeResidency};
pub use energy::{EnergyBreakdown, EnergyCategory};
pub use model::{PowerMode, PowerModel, TransitionSpec};
