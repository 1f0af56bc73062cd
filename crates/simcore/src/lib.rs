//! Discrete-event simulation substrate for the `dma-aware-mem` workspace.
//!
//! This crate provides the building blocks every simulator crate in the
//! workspace shares:
//!
//! * [`SimTime`] / [`SimDuration`] — integer picosecond time types, so every
//!   model (1600 MHz memory cycles, 133 MHz bus slots, microsecond disk
//!   seeks) composes without rounding surprises.
//! * [`EventQueue`] — a deterministic future-event list with stable FIFO
//!   ordering among simultaneous events (a calendar/timing-wheel queue).
//! * [`Slab`] — an index-stable arena with free-list reuse for the
//!   record churn of long simulations (transfers, requests).
//! * [`rng::DetRng`] — a seedable, deterministic random-number generator with
//!   the samplers the workload generators need (exponential inter-arrivals,
//!   Zipf page popularity).
//! * [`stats`] — online statistics (mean/variance, histograms, quantiles)
//!   used for energy and response-time accounting.
//! * [`obs`] — the observability layer: a named-metric registry (counters,
//!   gauges, log-scale histograms), a ring-buffered typed-event sink with
//!   JSONL export, a causal span trace, and the live telemetry server.
//! * [`prof`] — engine self-profiling: deterministic hot-path counters
//!   ([`EngineProfile`]), so the simulator itself is as observable as the
//!   systems it models.
//! * [`par`] — a std-only scoped-thread work-stealing pool with
//!   input-order results and per-job panic isolation, used by the
//!   experiment sweep engine.
//!
//! # Example
//!
//! ```
//! use simcore::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_ns(5), "later");
//! q.schedule(SimTime::ZERO, "now");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::ZERO, "now"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dist;
mod event;
pub mod obs;
pub mod par;
pub mod prof;
pub mod rng;
pub mod slab;
pub mod stats;
mod time;

pub use event::{EventQueue, QUEUE_KIND};
pub use prof::EngineProfile;
pub use slab::Slab;
pub use time::{SimDuration, SimTime};
