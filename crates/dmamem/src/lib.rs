//! DMA-aware memory energy management — the paper's core contribution.
//!
//! This crate implements the memory controller techniques of *"DMA-Aware
//! Memory Energy Management"* (Pandey, Jiang, Zhou, Bianchini — HPCA 2006)
//! and the whole-system simulator that evaluates them:
//!
//! * **DMA-TA (temporal alignment, Section 4.1)** — the controller delays
//!   the first DMA-memory request of a transfer that targets a chip in a
//!   low-power mode, gathering transfers from different I/O buses until the
//!   chip can run them in lockstep at full utilization, bounded by a
//!   slack-based soft performance guarantee.
//! * **PL (popularity-based layout, Section 4.2)** — interval-based page
//!   migration concentrates hot pages on a few hot chips (exponential group
//!   sizes; 2 groups is the paper's sweet spot), multiplying DMA-TA's
//!   alignment opportunities and letting cold chips sleep.
//! * **[`ServerSimulator`]** — a discrete-event simulation of the full data
//!   server path: trace-driven DMA transfers paced over PCI-X buses
//!   ([`iobus`]), multi-power-mode RDRAM chips under a low-level policy
//!   ([`mempower`]), processor accesses with priority, and the controller
//!   schemes above.
//! * **[`experiments`]** — one runner per table/figure of the paper's
//!   evaluation section.
//! * **[`sweep`]** — the parallel sweep engine the runners use: memoized
//!   simulation results and shared traces over a work-stealing pool, with
//!   bit-identical output at any thread count.
//!
//! # Quickstart
//!
//! ```
//! use dmamem::{Scheme, ServerSimulator, SystemConfig};
//! use dma_trace::{SyntheticStorageGen, TraceGen};
//! use simcore::SimDuration;
//!
//! let trace = SyntheticStorageGen::default().generate(SimDuration::from_ms(2), 7);
//! let config = SystemConfig::default();
//! let baseline = ServerSimulator::new(config.clone(), Scheme::baseline()).run(&trace);
//! let ta = ServerSimulator::new(config, Scheme::dma_ta(0.5)).run(&trace);
//! // Temporal alignment never uses more energy than the baseline here.
//! assert!(ta.energy.total_mj() <= baseline.energy.total_mj() * 1.02);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Engine code must not panic on recoverable conditions; test code may
// unwrap freely (CI runs clippy with -D warnings, so this stays a
// lib-only gate).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod calibrate;
mod config;
pub mod controller;
pub mod experiments;
mod layout;
mod metrics;
pub mod obs;
pub mod sweep;
mod system;
pub mod tracing;

pub use config::{PlConfig, PolicyKind, Scheme, SystemConfig, TaConfig};
pub use layout::PageMap;
pub use metrics::SimResult;
pub use obs::{replay_slack, RunObs, SimEvent, SlackReplay, SlackSummary, SlackTotals};
pub use system::{ServerSimulator, ENGINE_QUEUE_KIND};
pub use tracing::{attribution_json, RunAttribution, Tracer, WasteBuckets};
