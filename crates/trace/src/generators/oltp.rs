//! Calibrated stand-ins for the paper's proprietary OLTP traces.
//!
//! The real `OLTP-St` and `OLTP-Db` traces were captured from production
//! systems the paper does not publish. These generators reconstruct them
//! from everything the paper *does* publish (Section 5.1, Table 2,
//! Figure 4):
//!
//! * `OLTP-St`: a storage server behind IBM DB2/TPC-C — network DMAs at
//!   45.0 transfers/ms and disk DMAs at 16.7 transfers/ms, with the
//!   Figure 4 popularity skew (~20 % of pages take ~60 % of accesses).
//!   [`OltpStGen`] models the actual server path: client requests hit an
//!   LRU buffer cache; misses go to a [`disksim::DiskArray`] whose timing
//!   dictates when the disk DMA reaches memory.
//! * `OLTP-Db`: DB2 itself — network DMAs at 100 transfers/ms plus 23,300
//!   processor accesses/ms (≈233 per transfer) clustered around the
//!   transfers they serve.

use disksim::{DiskArray, DiskParams, DiskRequest, RequestKind};
use iobus::{DmaDirection, DmaSource};
use simcore::dist::{PoissonProcess, Zipf};
use simcore::rng::DetRng;
use simcore::{SimDuration, SimTime};

use crate::event::{DmaRecord, ProcRecord, Trace, TraceBuilder, TraceEvent};
use crate::generators::synthetic::sample_poisson_count;
use crate::generators::{rank_permutation, TraceGen};
use crate::lru::LruSet;

/// Storage-server trace generator calibrated to the paper's `OLTP-St`.
///
/// Defaults reproduce the published characteristics: 45 client requests/ms
/// (one network DMA each), a buffer cache sized so that the disk-DMA rate
/// lands near the paper's 16.7/ms, and popularity skew `alpha = 0.68` so the
/// hottest 20 % of pages draw ~60 % of DMA accesses (Figure 4).
///
/// # Example
///
/// ```
/// use dma_trace::{OltpStGen, TraceGen};
/// use simcore::SimDuration;
///
/// let trace = OltpStGen::default().generate(SimDuration::from_ms(10), 42);
/// let s = trace.stats();
/// assert!(s.network_rate_per_ms() > 20.0);
/// assert!(s.disk_transfers > 0);
/// ```
#[derive(Debug, Clone)]
pub struct OltpStGen {
    /// Client request arrival rate (paper: network DMA rate = 45.0/ms).
    pub client_req_per_ms: f64,
    /// Working-set size in pages.
    pub pages: usize,
    /// Page (and DMA transfer) size in bytes.
    pub page_bytes: u64,
    /// Number of I/O buses.
    pub buses: usize,
    /// Buffer-cache capacity in pages (controls the disk-DMA rate).
    pub cache_pages: usize,
    /// Zipf exponent; 0.68 matches Figure 4's 20 % -> 60 % skew.
    pub zipf_alpha: f64,
    /// Fraction of client requests that are writes.
    pub write_fraction: f64,
    /// Processor time to parse a request before the DMA starts.
    pub parse_delay: SimDuration,
    /// Delay before a written page is destaged to disk.
    pub destage_delay: SimDuration,
    /// Number of disks in the backing RAID-0 array.
    pub disks: usize,
}

impl Default for OltpStGen {
    fn default() -> Self {
        OltpStGen {
            client_req_per_ms: 45.0,
            pages: 16_384,
            page_bytes: 8192,
            buses: 3,
            cache_pages: 5_376,
            zipf_alpha: 0.68,
            write_fraction: 0.10,
            parse_delay: SimDuration::from_us(5),
            destage_delay: SimDuration::from_ms(2),
            disks: 128,
        }
    }
}

impl OltpStGen {
    /// Maps a page to its array LBA, spreading pages across the array.
    fn page_lba(&self, page: u64, array: &DiskArray) -> u64 {
        let sectors_per_page = self.page_bytes.div_ceil(512);
        let slots = array.capacity_sectors() / sectors_per_page;
        (page % slots) * sectors_per_page
    }
}

impl TraceGen for OltpStGen {
    fn generate(&self, duration: SimDuration, seed: u64) -> Trace {
        assert!(self.buses > 0, "need at least one bus");
        assert!(self.cache_pages > 0, "empty buffer cache");
        let mut root = DetRng::new(seed);
        let mut arrivals_rng = root.fork(1);
        let mut pages_rng = root.fork(2);
        let mut perm_rng = root.fork(3);
        let perm = rank_permutation(self.pages, &mut perm_rng);
        let zipf = Zipf::new(self.pages, self.zipf_alpha);
        let mut poisson = PoissonProcess::new(self.client_req_per_ms * 1e3);
        let mut cache = LruSet::new(self.cache_pages);
        // Warm start: a steady-state server holds the hottest pages already
        // (touched coldest-first so the hottest end up most recently used).
        for rank in (0..self.cache_pages.min(self.pages)).rev() {
            cache.touch(perm[rank]);
        }
        let mut array = DiskArray::new(DiskParams::server_15k(), self.disks, 128);
        let end = SimTime::ZERO + duration;
        let sectors_per_page = self.page_bytes.div_ceil(512);
        // Time for the HBA to burst one page over its bus, used to place the
        // network DMA after a miss fill.
        let page_burst = SimDuration::from_bytes_at_rate(self.page_bytes, 1.064e9);

        let mut trace = TraceBuilder::default();
        let mut bus_rr = 0usize;
        let next_bus = |rr: &mut usize| {
            let b = *rr;
            *rr = (*rr + 1) % self.buses;
            b
        };

        loop {
            let t = poisson.next_arrival(&mut arrivals_rng);
            if t >= end {
                break;
            }
            let page = perm[zipf.sample(&mut pages_rng)];
            let is_write = pages_rng.chance(self.write_fraction);
            let started = t + self.parse_delay;

            if is_write {
                // Data arrives from the SAN into the cache...
                trace.push(TraceEvent::Dma(DmaRecord {
                    time: started,
                    bus: next_bus(&mut bus_rr),
                    page,
                    bytes: self.page_bytes,
                    direction: DmaDirection::ToMemory,
                    source: DmaSource::Network,
                }));
                cache.touch(page);
                // ...and is destaged to disk later: the disk DMA reads
                // memory when the destage is submitted.
                let destage_at = started + self.destage_delay;
                trace.push(TraceEvent::Dma(DmaRecord {
                    time: destage_at,
                    bus: next_bus(&mut bus_rr),
                    page,
                    bytes: self.page_bytes,
                    direction: DmaDirection::FromMemory,
                    source: DmaSource::Disk,
                }));
                let _ = array.submit(
                    destage_at,
                    DiskRequest {
                        lba: self.page_lba(page, &array),
                        sectors: sectors_per_page,
                        kind: RequestKind::Write,
                    },
                );
                continue;
            }

            let hit = cache.touch(page);
            if hit {
                // Buffer-cache hit: ship straight out to the SAN.
                trace.push(TraceEvent::Dma(DmaRecord {
                    time: started,
                    bus: next_bus(&mut bus_rr),
                    page,
                    bytes: self.page_bytes,
                    direction: DmaDirection::FromMemory,
                    source: DmaSource::Network,
                }));
            } else {
                // Miss: fetch from disk (DMA into memory once the drive has
                // the data buffered), then ship out.
                let access = array.submit(
                    started,
                    DiskRequest {
                        lba: self.page_lba(page, &array),
                        sectors: sectors_per_page,
                        kind: RequestKind::Read,
                    },
                );
                let fill_at = access.complete;
                trace.push(TraceEvent::Dma(DmaRecord {
                    time: fill_at,
                    bus: next_bus(&mut bus_rr),
                    page,
                    bytes: self.page_bytes,
                    direction: DmaDirection::ToMemory,
                    source: DmaSource::Disk,
                }));
                trace.push(TraceEvent::Dma(DmaRecord {
                    time: fill_at + page_burst + self.parse_delay,
                    bus: next_bus(&mut bus_rr),
                    page,
                    bytes: self.page_bytes,
                    direction: DmaDirection::FromMemory,
                    source: DmaSource::Network,
                }));
            }
        }
        trace.build()
    }

    fn name(&self) -> &'static str {
        "OLTP-St"
    }
}

/// Database-server trace generator calibrated to the paper's `OLTP-Db`:
/// network DMAs at 100 transfers/ms, each accompanied by a burst of 64-byte
/// processor accesses averaging 233 per transfer (the paper's measured DB2
/// figure), with Figure-4-like popularity skew.
///
/// # Example
///
/// ```
/// use dma_trace::{OltpDbGen, TraceGen};
/// use simcore::SimDuration;
///
/// let s = OltpDbGen::default().generate(SimDuration::from_ms(5), 1).stats();
/// assert!(s.proc_accesses_per_transfer() > 150.0);
/// ```
#[derive(Debug, Clone)]
pub struct OltpDbGen {
    /// Network DMA transfer rate (paper: 100.0/ms).
    pub transfers_per_ms: f64,
    /// Mean processor accesses per transfer (paper: ≈233).
    pub proc_per_transfer: f64,
    /// Working-set size in pages.
    pub pages: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Number of I/O buses.
    pub buses: usize,
    /// Zipf exponent of page popularity.
    pub zipf_alpha: f64,
    /// Window over which a transfer's processor burst is spread.
    pub proc_burst_window: SimDuration,
    /// Probability a burst access touches the transferred page.
    pub proc_locality: f64,
}

impl Default for OltpDbGen {
    fn default() -> Self {
        OltpDbGen {
            transfers_per_ms: 100.0,
            proc_per_transfer: 233.0,
            pages: 16_384,
            page_bytes: 8192,
            buses: 3,
            zipf_alpha: 0.85,
            proc_burst_window: SimDuration::from_us(100),
            proc_locality: 0.9,
        }
    }
}

impl TraceGen for OltpDbGen {
    fn generate(&self, duration: SimDuration, seed: u64) -> Trace {
        assert!(self.buses > 0, "need at least one bus");
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
            let page = perm[zipf.sample(&mut pages_rng)];
            trace.push(TraceEvent::Dma(DmaRecord {
                time: t,
                bus: bus_rr,
                page,
                bytes: self.page_bytes,
                direction: DmaDirection::FromMemory,
                source: DmaSource::Network,
            }));
            bus_rr = (bus_rr + 1) % self.buses;

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
        trace.build()
    }

    fn name(&self) -> &'static str {
        "OLTP-Db"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oltp_st_rates_match_table2() {
        // Paper Table 2 / Section 5.1: network 45.0/ms, disk 16.7/ms.
        let t = OltpStGen::default().generate(SimDuration::from_ms(60), 17);
        let s = t.stats();
        let net = s.network_rate_per_ms();
        let disk = s.disk_rate_per_ms();
        assert!((net - 45.0).abs() < 7.0, "network rate {net}");
        assert!((disk - 16.7).abs() < 7.0, "disk rate {disk}");
        assert_eq!(s.proc_accesses, 0);
    }

    #[test]
    fn oltp_st_popularity_matches_figure4() {
        // Figure 4: ~20% of pages receive ~60% of DMA accesses.
        let gen = OltpStGen {
            pages: 4096,
            cache_pages: 1344,
            ..Default::default()
        };
        let t = gen.generate(SimDuration::from_ms(500), 3);
        let cdf = t.popularity_cdf();
        let share = cdf.share_of_top(0.2);
        assert!((0.45..=0.80).contains(&share), "top-20% share {share}");
    }

    #[test]
    fn oltp_st_miss_fills_precede_network_send() {
        let t = OltpStGen::default().generate(SimDuration::from_ms(20), 5);
        // Every disk ToMemory fill is followed by a network FromMemory of
        // the same page.
        let events: Vec<TraceEvent> = t.iter().collect();
        let mut checked = 0;
        for (i, e) in events.iter().enumerate() {
            if let TraceEvent::Dma(d) = e {
                if d.source == DmaSource::Disk && d.direction == DmaDirection::ToMemory {
                    let follow = events[i..].iter().any(|f| match f {
                        TraceEvent::Dma(n) => {
                            n.page == d.page
                                && n.source == DmaSource::Network
                                && n.direction == DmaDirection::FromMemory
                                && n.time >= d.time
                        }
                        _ => false,
                    });
                    assert!(follow, "fill of page {} never shipped", d.page);
                    checked += 1;
                }
            }
        }
        assert!(checked > 10, "too few misses to check ({checked})");
    }

    #[test]
    fn oltp_st_writes_produce_destages() {
        let gen = OltpStGen {
            write_fraction: 1.0,
            ..Default::default()
        };
        let t = gen.generate(SimDuration::from_ms(5), 9);
        let s = t.stats();
        // All writes: every request yields one network ToMemory and one
        // disk FromMemory destage.
        assert_eq!(s.network_transfers, s.disk_transfers);
        for e in &t {
            if let TraceEvent::Dma(d) = e {
                match d.source {
                    DmaSource::Network => assert_eq!(d.direction, DmaDirection::ToMemory),
                    DmaSource::Disk => assert_eq!(d.direction, DmaDirection::FromMemory),
                }
            }
        }
    }

    #[test]
    fn oltp_db_matches_table2() {
        // 100 transfers/ms, ~233 proc accesses per transfer (23,300/ms).
        let s = OltpDbGen::default()
            .generate(SimDuration::from_ms(10), 23)
            .stats();
        let rate = s.network_rate_per_ms();
        assert!((rate - 100.0).abs() < 15.0, "transfer rate {rate}");
        let per = s.proc_accesses_per_transfer();
        assert!((per - 233.0).abs() < 25.0, "proc per transfer {per}");
        assert_eq!(s.disk_transfers, 0);
    }

    #[test]
    fn oltp_db_proc_accesses_follow_transfers() {
        let gen = OltpDbGen {
            transfers_per_ms: 2.0,
            ..Default::default()
        };
        let t = gen.generate(SimDuration::from_ms(10), 31);
        let dma_times: Vec<SimTime> = t
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Dma(d) => Some(d.time),
                _ => None,
            })
            .collect();
        for e in &t {
            if let TraceEvent::Proc(p) = e {
                let near = dma_times.iter().any(|&d| {
                    p.time.saturating_since(d) <= SimDuration::from_us(50)
                        && d.saturating_since(p.time) <= SimDuration::from_us(50)
                });
                assert!(near, "orphan proc access at {}", p.time);
            }
        }
    }
}
