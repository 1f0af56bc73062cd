//! Memory-access traces and workload generators for data-server simulation.
//!
//! The paper evaluates with four traces (its Table 2): two captured from
//! real systems (`OLTP-St`, a storage server behind IBM DB2 running TPC-C;
//! `OLTP-Db`, DB2 itself on Simics/GEMS) and two synthetic (`Synthetic-St`,
//! `Synthetic-Db`). The real traces are proprietary, so this crate provides
//! **calibrated synthetic stand-ins** that match every characteristic the
//! paper publishes:
//!
//! | trace | contents | published characteristics matched |
//! |---|---|---|
//! | [`OltpStGen`] | network + disk DMAs | 45.0 network + 16.7 disk transfers/ms; Figure 4 popularity skew (~20 % of pages get ~60 % of accesses) |
//! | [`SyntheticStorageGen`] | network + disk DMAs | Zipf(1) popularity, Poisson arrivals at 100 transfers/ms |
//! | [`OltpDbGen`] | processor accesses + network DMAs | 100 transfers/ms, ~23,300 proc accesses/ms (≈233 per transfer) |
//! | [`SyntheticDbGen`] | processor accesses + network DMAs | Zipf(1), Poisson 100 transfers/ms + Poisson 10,000 proc accesses/ms |
//!
//! A [`Trace`] is a time-ordered sequence of [`TraceEvent`]s — large DMA
//! transfers and 64-byte processor accesses — plus statistics
//! ([`TraceStats`], for regenerating Table 2) and the popularity CDF of
//! Figure 4 ([`PopularityCdf`]).
//!
//! Database traces are almost all processor accesses, so a trace is
//! stored by column: 8 bytes per processor access (a page and the time
//! since the previous record), DMA transfers in a column of their own,
//! and an escape column for the rare record that fits neither. Records
//! are read by value through a forward [`Cursor`]. The generators, the
//! readers and every operation that makes a trace share one packer,
//! which sorts by time in place without holding a [`TraceEvent`] per
//! record. The database generators let it pack as they go, so
//! generating one holds its packed columns and a bounded staging area,
//! not a staged record per event.
//!
//! # Example
//!
//! ```
//! use dma_trace::{SyntheticStorageGen, TraceGen};
//! use simcore::SimDuration;
//!
//! let gen = SyntheticStorageGen::default();
//! let trace = gen.generate(SimDuration::from_ms(2), 42);
//! assert!(trace.len() > 100);
//! let stats = trace.stats();
//! assert!(stats.dma_rate_per_ms() > 50.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod binio;
mod event;
pub mod generators;
mod io;
mod lru;
mod popularity;
mod stats;

pub use event::{Cursor, DmaRecord, ProcRecord, Trace, TraceEvent};
pub use generators::{
    OltpDbGen, OltpStGen, SyntheticDbGen, SyntheticStorageGen, TpchScanGen, TraceGen,
};
pub use io::ParseTraceError;
pub use lru::LruSet;
pub use popularity::PopularityCdf;
pub use stats::TraceStats;
