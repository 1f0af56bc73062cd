//! TPC-H-style scan workload (the paper's future-work extension).

use iobus::{DmaDirection, DmaSource};
use simcore::rng::DetRng;
use simcore::{SimDuration, SimTime};

use crate::event::{DmaRecord, ProcRecord, Trace, TraceBuilder, TraceEvent};
use crate::generators::TraceGen;

/// A decision-support (TPC-H-like) workload: several concurrent sequential
/// table scans, each shipping pages out over network DMA at a steady rate,
/// with a few processor accesses per page for aggregation. Unlike OLTP,
/// popularity is nearly uniform — the stress case for popularity-based
/// layout (PL should help little here, which the ablation bench verifies).
///
/// # Example
///
/// ```
/// use dma_trace::{TpchScanGen, TraceGen};
/// use simcore::SimDuration;
///
/// let t = TpchScanGen::default().generate(SimDuration::from_ms(5), 2);
/// // Scans are nearly uniform: the top 20% of pages get ~20% of accesses.
/// let share = t.popularity_cdf().share_of_top(0.2);
/// assert!(share < 0.4);
/// ```
#[derive(Debug, Clone)]
pub struct TpchScanGen {
    /// Number of concurrent scan streams.
    pub streams: usize,
    /// Pages scanned per millisecond per stream.
    pub pages_per_ms_per_stream: f64,
    /// Working-set (table) size in pages.
    pub pages: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Number of I/O buses.
    pub buses: usize,
    /// Mean processor accesses per scanned page (aggregation work).
    pub proc_per_page: f64,
    /// Jitter applied to each inter-page gap (fraction of the gap).
    pub jitter: f64,
}

impl Default for TpchScanGen {
    fn default() -> Self {
        TpchScanGen {
            streams: 4,
            pages_per_ms_per_stream: 25.0,
            pages: 65_536,
            page_bytes: 8192,
            buses: 3,
            proc_per_page: 2.0,
            jitter: 0.2,
        }
    }
}

impl TraceGen for TpchScanGen {
    fn generate(&self, duration: SimDuration, seed: u64) -> Trace {
        assert!(self.streams > 0, "no scan streams");
        assert!(self.buses > 0, "need at least one bus");
        assert!(self.pages > 0, "empty table");
        let mut root = DetRng::new(seed);
        let end = SimTime::ZERO + duration;
        let gap = SimDuration::from_secs_f64(1e-3 / self.pages_per_ms_per_stream);

        let mut trace = TraceBuilder::default();
        for stream in 0..self.streams {
            let mut rng = root.fork(stream as u64 + 1);
            let mut page = rng.below(self.pages as u64);
            let mut t = SimTime::ZERO + gap.mul_f64(rng.uniform());
            let bus = stream % self.buses;
            while t < end {
                trace.push(TraceEvent::Dma(DmaRecord {
                    time: t,
                    bus,
                    page,
                    bytes: self.page_bytes,
                    direction: DmaDirection::FromMemory,
                    source: DmaSource::Network,
                }));
                let procs = rng.exponential(self.proc_per_page.max(1e-9)).round() as u64;
                for _ in 0..procs {
                    trace.push(TraceEvent::Proc(ProcRecord {
                        time: t + gap.mul_f64(rng.uniform() * 0.5),
                        page,
                        bytes: 64,
                    }));
                }
                page = (page + 1) % self.pages as u64;
                let jitter = 1.0 + self.jitter * (rng.uniform() - 0.5) * 2.0;
                t += gap.mul_f64(jitter.max(0.01));
            }
        }
        trace.build()
    }

    fn name(&self) -> &'static str {
        "TPC-H-Scan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_rate_matches_config() {
        let g = TpchScanGen::default();
        let s = g.generate(SimDuration::from_ms(10), 4).stats();
        // 4 streams x 25 pages/ms = ~100 transfers/ms.
        let rate = s.dma_rate_per_ms();
        assert!((rate - 100.0).abs() < 15.0, "rate {rate}");
    }

    #[test]
    fn pages_are_sequential_per_stream() {
        let g = TpchScanGen {
            streams: 1,
            jitter: 0.0,
            proc_per_page: 0.0,
            ..Default::default()
        };
        let t = g.generate(SimDuration::from_ms(2), 8);
        let pages: Vec<u64> = t
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Dma(d) => Some(d.page),
                _ => None,
            })
            .collect();
        for w in pages.windows(2) {
            assert_eq!(w[1], (w[0] + 1) % 65_536);
        }
    }

    #[test]
    fn popularity_is_flat() {
        let t = TpchScanGen::default().generate(SimDuration::from_ms(20), 6);
        let cdf = t.popularity_cdf();
        assert!(cdf.share_of_top(0.5) < 0.65);
    }

    #[test]
    fn streams_spread_over_buses() {
        let g = TpchScanGen::default();
        let t = g.generate(SimDuration::from_ms(2), 4);
        let mut buses: Vec<usize> = t
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Dma(d) => Some(d.bus),
                _ => None,
            })
            .collect();
        buses.sort_unstable();
        buses.dedup();
        assert_eq!(buses, vec![0, 1, 2]);
    }
}
