//! The paper's synthetic traces: Zipf page popularity, Poisson arrivals.

use iobus::{DmaDirection, DmaSource};
use simcore::dist::{PoissonProcess, Zipf};
use simcore::rng::DetRng;
use simcore::{SimDuration, SimTime};

use crate::event::{DmaRecord, ProcRecord, Trace, TraceBuilder, TraceEvent};
use crate::generators::{rank_permutation, TraceGen};

/// `Synthetic-St` (paper Table 2): storage-server memory workload with
/// network and disk DMA transfers only. Zipf(alpha = 1) page popularity and
/// Poisson transfer arrivals at 100 transfers/ms, exactly as Section 5.1
/// describes.
///
/// # Example
///
/// ```
/// use dma_trace::{SyntheticStorageGen, TraceGen};
/// use simcore::SimDuration;
///
/// let gen = SyntheticStorageGen { transfers_per_ms: 50.0, ..Default::default() };
/// let trace = gen.generate(SimDuration::from_ms(4), 1);
/// assert!((trace.stats().dma_rate_per_ms() - 50.0).abs() < 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticStorageGen {
    /// Average DMA transfer arrival rate (paper default: 100/ms).
    pub transfers_per_ms: f64,
    /// Zipf exponent of page popularity (paper default: 1.0).
    pub zipf_alpha: f64,
    /// Working-set size in pages.
    pub pages: usize,
    /// Transfer size in bytes (8-KB pages).
    pub page_bytes: u64,
    /// Number of I/O buses transfers round-robin over.
    pub buses: usize,
    /// Fraction of transfers initiated by disk DMAs (cache fills).
    pub disk_fraction: f64,
}

impl Default for SyntheticStorageGen {
    fn default() -> Self {
        SyntheticStorageGen {
            transfers_per_ms: 100.0,
            zipf_alpha: 1.0,
            pages: 65_536,
            page_bytes: 8192,
            buses: 3,
            disk_fraction: 0.25,
        }
    }
}

impl TraceGen for SyntheticStorageGen {
    fn generate(&self, duration: SimDuration, seed: u64) -> Trace {
        assert!(self.buses > 0, "need at least one bus");
        assert!(self.pages > 0, "empty working set");
        let mut root = DetRng::new(seed);
        let mut arrivals_rng = root.fork(1);
        let mut pages_rng = root.fork(2);
        let mut perm_rng = root.fork(3);
        let perm = rank_permutation(self.pages, &mut perm_rng);
        let zipf = Zipf::new(self.pages, self.zipf_alpha);
        let mut poisson = PoissonProcess::new(self.transfers_per_ms * 1e3);
        let end = SimTime::ZERO + duration;

        let mut trace = TraceBuilder::default();
        let mut bus_rr = 0usize;
        loop {
            let t = poisson.next_arrival(&mut arrivals_rng);
            if t >= end {
                break;
            }
            let rank = zipf.sample(&mut pages_rng);
            let page = perm[rank];
            let is_disk = pages_rng.chance(self.disk_fraction);
            let (source, direction) = if is_disk {
                (DmaSource::Disk, DmaDirection::ToMemory)
            } else {
                (DmaSource::Network, DmaDirection::FromMemory)
            };
            trace.push(TraceEvent::Dma(DmaRecord {
                time: t,
                bus: bus_rr,
                page,
                bytes: self.page_bytes,
                direction,
                source,
            }));
            bus_rr = (bus_rr + 1) % self.buses;
        }
        trace.build()
    }

    fn name(&self) -> &'static str {
        "Synthetic-St"
    }
}

/// `Synthetic-Db` (paper Table 2): database-server memory workload with
/// network DMAs *and* processor accesses. DMA transfers arrive Poisson at
/// 100/ms; each transfer drags a burst of 64-byte processor accesses with it
/// (query processing touches the data it ships), averaging
/// `proc_per_transfer` accesses per transfer — the knob the paper sweeps in
/// Figure 9. The default (100) yields the paper's 10,000 proc accesses/ms.
#[derive(Debug, Clone)]
pub struct SyntheticDbGen {
    /// Average network DMA transfer rate (paper default: 100/ms).
    pub transfers_per_ms: f64,
    /// Zipf exponent of page popularity (paper default: 1.0).
    pub zipf_alpha: f64,
    /// Working-set size in pages.
    pub pages: usize,
    /// Transfer size in bytes.
    pub page_bytes: u64,
    /// Number of I/O buses.
    pub buses: usize,
    /// Mean processor accesses accompanying each DMA transfer (Figure 9's
    /// x-axis; paper default workload: 100).
    pub proc_per_transfer: f64,
    /// Window after a transfer's start over which its processor burst is
    /// spread.
    pub proc_burst_window: SimDuration,
    /// Probability a burst access touches the transferred page (the rest go
    /// to random index pages).
    pub proc_locality: f64,
}

impl Default for SyntheticDbGen {
    fn default() -> Self {
        SyntheticDbGen {
            transfers_per_ms: 100.0,
            zipf_alpha: 1.0,
            pages: 65_536,
            page_bytes: 8192,
            buses: 3,
            proc_per_transfer: 100.0,
            proc_burst_window: SimDuration::from_us(100),
            proc_locality: 0.85,
        }
    }
}

impl SyntheticDbGen {
    /// Returns a copy with a different mean processor-access burst size
    /// (Figure 9 sweep).
    pub fn with_proc_per_transfer(mut self, n: f64) -> Self {
        assert!(n >= 0.0 && n.is_finite(), "invalid burst size: {n}");
        self.proc_per_transfer = n;
        self
    }
}

impl TraceGen for SyntheticDbGen {
    fn generate(&self, duration: SimDuration, seed: u64) -> Trace {
        assert!(self.buses > 0, "need at least one bus");
        assert!(self.pages > 0, "empty working set");
        let mut root = DetRng::new(seed);
        let mut arrivals_rng = root.fork(1);
        let mut pages_rng = root.fork(2);
        let mut perm_rng = root.fork(3);
        let mut proc_rng = root.fork(4);
        let perm = rank_permutation(self.pages, &mut perm_rng);
        let zipf = Zipf::new(self.pages, self.zipf_alpha);
        let mut poisson = PoissonProcess::new(self.transfers_per_ms * 1e3);
        let end = SimTime::ZERO + duration;

        let mut trace = TraceBuilder::default();
        let mut bus_rr = 0usize;
        loop {
            let t = poisson.next_arrival(&mut arrivals_rng);
            if t >= end {
                break;
            }
            // Arrivals come in time order and a burst starts at most half
            // a window before its transfer.
            trace.settle(
                SimTime::ZERO + t.saturating_since(SimTime::ZERO + self.proc_burst_window / 2),
            );
            let rank = zipf.sample(&mut pages_rng);
            let page = perm[rank];
            trace.push(TraceEvent::Dma(DmaRecord {
                time: t,
                bus: bus_rr,
                page,
                bytes: self.page_bytes,
                direction: DmaDirection::FromMemory,
                source: DmaSource::Network,
            }));
            bus_rr = (bus_rr + 1) % self.buses;

            // Processor burst: Poisson-distributed count with the configured
            // mean, spread uniformly over a window centered on the transfer
            // (query processing surrounds the shipping of a page).
            if self.proc_per_transfer > 0.0 {
                let count = sample_poisson_count(&mut proc_rng, self.proc_per_transfer);
                for _ in 0..count {
                    let offset = self.proc_burst_window.mul_f64(proc_rng.uniform());
                    let at = (t + offset).max(SimTime::ZERO + self.proc_burst_window / 2)
                        - self.proc_burst_window / 2;
                    let proc_page = if proc_rng.chance(self.proc_locality) {
                        page
                    } else {
                        perm[zipf.sample(&mut proc_rng)]
                    };
                    trace.push(TraceEvent::Proc(ProcRecord {
                        time: at,
                        page: proc_page,
                        bytes: 64,
                    }));
                }
            }
        }
        trace.build()
    }

    fn name(&self) -> &'static str {
        "Synthetic-Db"
    }
}

/// Draws a Poisson-distributed count with the given mean. Uses Knuth's
/// product method for small means and a normal approximation above 50 (bursts
/// of hundreds of accesses; exactness is irrelevant there).
pub(crate) fn sample_poisson_count(rng: &mut DetRng, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 50.0 {
        // Normal approximation with continuity correction.
        let u1 = 1.0 - rng.uniform();
        let u2 = rng.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        return (mean + z * mean.sqrt()).round().max(0.0) as u64;
    }
    let limit = (-mean).exp();
    let mut product = rng.uniform();
    let mut count = 0u64;
    while product > limit {
        count += 1;
        product *= rng.uniform();
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_rate_matches_config() {
        let g = SyntheticStorageGen::default();
        let t = g.generate(SimDuration::from_ms(10), 11);
        let rate = t.stats().dma_rate_per_ms();
        assert!((rate - 100.0).abs() < 12.0, "rate {rate}");
    }

    #[test]
    fn storage_mixes_sources() {
        let g = SyntheticStorageGen::default();
        let s = g.generate(SimDuration::from_ms(10), 11).stats();
        let disk_frac = s.disk_transfers as f64 / s.dma_transfers() as f64;
        assert!((disk_frac - 0.25).abs() < 0.06, "disk fraction {disk_frac}");
        assert!(s.proc_accesses == 0);
    }

    #[test]
    fn storage_popularity_is_zipf_skewed() {
        let g = SyntheticStorageGen {
            pages: 10_000,
            ..Default::default()
        };
        let cdf = g.generate(SimDuration::from_ms(50), 3).popularity_cdf();
        // Zipf(1): hottest 10% of *touched* pages take well over 30%.
        assert!(cdf.share_of_top(0.1) > 0.3, "{}", cdf.share_of_top(0.1));
    }

    #[test]
    fn storage_round_robins_buses() {
        let g = SyntheticStorageGen::default();
        let t = g.generate(SimDuration::from_ms(3), 5);
        let mut per_bus = [0u64; 3];
        for e in &t {
            if let TraceEvent::Dma(d) = e {
                per_bus[d.bus] += 1;
            }
        }
        let max = *per_bus.iter().max().unwrap();
        let min = *per_bus.iter().min().unwrap();
        assert!(max - min <= 1, "unbalanced: {per_bus:?}");
    }

    #[test]
    fn db_proc_rate_tracks_burst_size() {
        let g = SyntheticDbGen::default();
        let s = g.generate(SimDuration::from_ms(10), 7).stats();
        // 100 transfers/ms x 100 accesses => ~10,000/ms.
        assert!(
            (s.proc_rate_per_ms() - 10_000.0).abs() < 1_500.0,
            "proc rate {}",
            s.proc_rate_per_ms()
        );
        let per = s.proc_accesses_per_transfer();
        assert!((per - 100.0).abs() < 10.0, "per-transfer {per}");
    }

    #[test]
    fn db_burst_size_zero_emits_no_proc() {
        let g = SyntheticDbGen::default().with_proc_per_transfer(0.0);
        let s = g.generate(SimDuration::from_ms(5), 7).stats();
        assert_eq!(s.proc_accesses, 0);
    }

    #[test]
    fn db_bursts_cluster_near_their_transfer() {
        let g = SyntheticDbGen {
            transfers_per_ms: 1.0, // sparse, so bursts are attributable
            ..Default::default()
        };
        let t = g.generate(SimDuration::from_ms(20), 9);
        let dma_times: Vec<SimTime> = t
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Dma(d) => Some(d.time),
                _ => None,
            })
            .collect();
        for e in &t {
            if let TraceEvent::Proc(p) = e {
                // Bursts are centered on their transfer: within half a
                // window on either side.
                let near = dma_times.iter().any(|&d| {
                    p.time.saturating_since(d) <= SimDuration::from_us(50)
                        && d.saturating_since(p.time) <= SimDuration::from_us(50)
                });
                assert!(near, "orphan proc access at {}", p.time);
            }
        }
    }

    #[test]
    fn poisson_count_mean_small_and_large() {
        let mut rng = DetRng::new(21);
        for mean in [3.0, 233.0] {
            let n = 5_000;
            let sum: u64 = (0..n).map(|_| sample_poisson_count(&mut rng, mean)).sum();
            let observed = sum as f64 / n as f64;
            assert!(
                (observed - mean).abs() < mean * 0.1 + 0.5,
                "mean {mean}: observed {observed}"
            );
        }
        assert_eq!(sample_poisson_count(&mut rng, 0.0), 0);
    }
}
