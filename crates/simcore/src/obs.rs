//! Observability layer: metrics registry, structured event tracing, and
//! the live telemetry server.
//!
//! Everything here is std-only and single-threaded by design (the
//! simulator event loop is single-threaded, and cheap `Rc`-based handles
//! keep instrumentation off the hot path's allocator).
//!
//! The layer has four pillars:
//!
//! * [`metrics`] — a [`MetricsRegistry`] that components register
//!   **counters**, **gauges**, and log₂-bucketed streaming **histograms**
//!   into by dotted name (`"<subsystem>.<quantity>[_<unit>]"`, e.g.
//!   `dmamem.wakes` or `dmamem.request_service_ns`). Snapshots are
//!   mergeable across runs and export as JSON.
//! * [`events`] — a ring-buffered [`EventSink`] of typed simulation
//!   events with sim-timestamps, exportable as JSONL (one JSON object per
//!   line: `seq`, `t_ps`, `kind`, then event-specific fields).
//! * [`trace`] — a causal [`TraceBuffer`] of begin/end/instant/counter
//!   records over simulated time, exportable as Chrome/Perfetto
//!   `trace_event` JSON.
//! * [`serve`] — the live telemetry layer: a shared [`LiveState`] of
//!   sweep progress plus a std-only HTTP server exposing `/metrics`
//!   (Prometheus text exposition), `/status` (JSON progress), and
//!   `/events` (JSONL tail).
//!
//! A tiny dependency-free JSON writer (and the matching minimal parser the
//! trace tooling uses to re-read its own exports) lives in [`json`]; all
//! exporters use it.
//!
//! # Example
//!
//! ```
//! use simcore::obs::metrics::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let wakes = registry.counter("dmamem.wakes");
//! wakes.inc();
//! wakes.add(2);
//! assert_eq!(registry.snapshot().counter("dmamem.wakes"), Some(3));
//! ```

pub mod events;
pub mod json;
pub mod metrics;
pub mod serve;
pub mod trace;

pub use events::{EventSink, ObsEvent};
pub use json::JsonObject;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use serve::{render_prometheus, LiveState, ServerHandle};
pub use trace::{SpanId, SpanTape, SpillSink, TraceBuffer, TraceStats, TrackId, TrackKind};
