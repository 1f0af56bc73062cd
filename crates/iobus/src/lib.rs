//! I/O bus and DMA engine model.
//!
//! The paper's data-server memory traffic arrives over PCI-X-style I/O buses
//! (Section 3): a large DMA transfer (e.g. an 8-KB page) is broken into many
//! small **DMA-memory requests** (8 bytes by default) that a DMA engine
//! places on the bus one per bus slot. Because the bus is ~3x slower than
//! the memory chip, the chip idles between successive requests — the energy
//! waste the paper attacks.
//!
//! This crate models exactly that pacing:
//!
//! * [`BusConfig`] — bus byte rate and DMA-memory request size;
//!   [`BusConfig::pci_x`] gives the paper's 1.064 GB/s, 8-byte default.
//! * [`DmaTransfer`] — one large transfer (page in/out) bound to a bus.
//! * [`Bus`] — the slot-paced scheduler: at most one request per
//!   `request_bytes / byte_rate` slot, round-robin across the bus's active
//!   transfers, and — crucially for DMA-TA — a transfer's **first** request
//!   must be acknowledged by the memory controller before its subsequent
//!   requests are issued (paper Section 4.1.1).
//!
//! # Example
//!
//! ```
//! use iobus::{Bus, BusConfig, DmaDirection, DmaSource, DmaTransfer, IssueOutcome};
//! use simcore::SimTime;
//!
//! let mut bus = Bus::new(0, BusConfig::pci_x());
//! let t = DmaTransfer::new(1, 0, 77, 8192, DmaDirection::FromMemory, DmaSource::Network);
//! bus.add_transfer(SimTime::ZERO, t);
//! match bus.issue(SimTime::ZERO) {
//!     IssueOutcome::Issued(req) => {
//!         assert!(req.is_first);
//!         assert_eq!(req.page, 77);
//!     }
//!     IssueOutcome::Idle => unreachable!("a ready stream must issue"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use simcore::{SimDuration, SimTime};

/// Index of an I/O bus in the system.
pub type BusId = usize;

/// Unique identifier of a DMA transfer.
pub type TransferId = u64;

/// A logical page number (the unit DMA transfers address).
pub type PageId = u64;

/// Direction of a DMA transfer relative to main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaDirection {
    /// Memory is read; data flows out (e.g. buffer cache to network).
    FromMemory,
    /// Memory is written; data flows in (e.g. disk read into the cache).
    ToMemory,
}

/// Which device class initiated a DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaSource {
    /// A network interface (SAN / NIC).
    Network,
    /// A disk or disk-array controller.
    Disk,
}

impl std::fmt::Display for DmaSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmaSource::Network => f.write_str("network"),
            DmaSource::Disk => f.write_str("disk"),
        }
    }
}

/// How concurrent DMA streams share a bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusDiscipline {
    /// Each DMA engine paces its own stream at the bus data rate,
    /// independent of other streams (split-transaction / multi-master
    /// behavior; transient oversubscription is allowed). This is the
    /// paper's model: Figure 2(a) fixes each transfer's request cadence at
    /// the bus rate, and Figure 3 interleaves such streams freely.
    PerEngine,
    /// Strict time-division multiplexing: at most one request per slot,
    /// round-robin across streams (a conservative physical model, kept for
    /// ablation).
    TimeDivision,
}

/// Static configuration of one I/O bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusConfig {
    /// Sustained bus data rate in bytes per second.
    pub bytes_per_sec: f64,
    /// Size of one DMA-memory request in bytes.
    pub request_bytes: u64,
    /// Stream-sharing discipline.
    pub discipline: BusDiscipline,
}

impl BusConfig {
    /// The paper's PCI-X bus: 133 MHz x 64 bit = 1.064 GB/s, 8-byte
    /// DMA-memory requests.
    pub fn pci_x() -> Self {
        BusConfig {
            bytes_per_sec: 1.064e9,
            request_bytes: 8,
            discipline: BusDiscipline::PerEngine,
        }
    }

    /// A custom bus rate with the PCI-X request size.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive and finite.
    pub fn with_rate(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "invalid bus rate: {bytes_per_sec}"
        );
        BusConfig {
            bytes_per_sec,
            request_bytes: 8,
            discipline: BusDiscipline::PerEngine,
        }
    }

    /// Replaces the DMA-memory request size (the paper's granularity
    /// ablation knob).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn with_request_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "zero-byte requests");
        self.request_bytes = bytes;
        self
    }

    /// Replaces the stream-sharing discipline.
    pub fn with_discipline(mut self, discipline: BusDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// The bus slot period: time to move one DMA-memory request.
    pub fn slot_period(&self) -> SimDuration {
        SimDuration::from_bytes_at_rate(self.request_bytes, self.bytes_per_sec)
    }

    /// Number of DMA-memory requests a transfer of `bytes` needs.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn requests_for(&self, bytes: u64) -> u64 {
        assert!(bytes > 0, "zero-byte transfer");
        bytes.div_ceil(self.request_bytes)
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig::pci_x()
    }
}

/// One large DMA operation: a page-sized block moving between memory and a
/// device over a specific bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaTransfer {
    /// Unique transfer id.
    pub id: TransferId,
    /// Bus carrying the transfer.
    pub bus: BusId,
    /// Logical page accessed.
    pub page: PageId,
    /// Total bytes moved.
    pub bytes: u64,
    /// Direction relative to memory.
    pub direction: DmaDirection,
    /// Initiating device class.
    pub source: DmaSource,
    /// Engine-side arena slot for this transfer's bookkeeping record
    /// (see [`DmaTransfer::with_slot`]); propagated onto every
    /// [`DmaRequest`] so the controller resolves request → record with
    /// one stable index instead of a map probe. Zero when unused.
    pub slot: u32,
}

impl DmaTransfer {
    /// Creates a transfer description.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn new(
        id: TransferId,
        bus: BusId,
        page: PageId,
        bytes: u64,
        direction: DmaDirection,
        source: DmaSource,
    ) -> Self {
        assert!(bytes > 0, "zero-byte transfer");
        DmaTransfer {
            id,
            bus,
            page,
            bytes,
            direction,
            source,
            slot: 0,
        }
    }

    /// Attaches the engine's arena slot for this transfer (builder
    /// style); the bus stamps it on every issued request.
    pub fn with_slot(mut self, slot: u32) -> Self {
        self.slot = slot;
        self
    }
}

/// One DMA-memory request as it appears at the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaRequest {
    /// Transfer this request belongs to.
    pub transfer: TransferId,
    /// Bus it arrived on.
    pub bus: BusId,
    /// Logical page accessed.
    pub page: PageId,
    /// 0-based sequence number within the transfer.
    pub seq: u64,
    /// Bytes in this request.
    pub bytes: u64,
    /// True for the transfer's first request (the only one DMA-TA may
    /// delay).
    pub is_first: bool,
    /// True for the transfer's last request.
    pub is_last: bool,
    /// Initiating device class (propagated from the transfer).
    pub source: DmaSource,
    /// Engine-side arena slot (propagated from the transfer).
    pub slot: u32,
}

/// Result of asking a bus to issue at a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IssueOutcome {
    /// A request went out on the bus.
    Issued(DmaRequest),
    /// No stream was eligible (all awaiting ack, or none active).
    Idle,
}

/// A read-only view of a Ready stream (see [`Bus::ready_streams`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyStream {
    /// Engine-side arena slot of the stream's transfer.
    pub slot: u32,
    /// Sequence number the stream's next request will carry.
    pub next_seq: u64,
    /// Requests in the whole transfer.
    pub total: u64,
    /// Earliest instant the stream's next request may issue (per-engine
    /// pacing).
    pub next_due: SimTime,
}

impl ReadyStream {
    /// True when the next request is neither the transfer's first nor its
    /// last.
    pub fn next_is_middle(&self) -> bool {
        self.next_seq > 0 && self.next_seq + 1 < self.total
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamPhase {
    /// May issue its next request at the next slot.
    Ready,
    /// First request issued; waiting for the controller's ack.
    AwaitingAck,
}

#[derive(Debug, Clone)]
struct Stream {
    transfer: DmaTransfer,
    issued: u64,
    total: u64,
    phase: StreamPhase,
    /// Earliest instant this stream's next request may issue (per-engine
    /// pacing).
    next_due: SimTime,
}

/// A slot-paced I/O bus multiplexing the DMA transfers assigned to it.
///
/// Determinism: streams are serviced round-robin in arrival order;
/// [`Bus::issue`] never allocates.
#[derive(Debug, Clone)]
pub struct Bus {
    id: BusId,
    config: BusConfig,
    /// `config.slot_period()`, cached: the config is fixed at
    /// construction and the period is consulted on every issue.
    slot_period: SimDuration,
    streams: Vec<Stream>,
    rr_next: usize,
    next_free_slot: SimTime,
    issued_total: u64,
}

impl Bus {
    /// Creates an idle bus.
    pub fn new(id: BusId, config: BusConfig) -> Self {
        Bus {
            id,
            slot_period: config.slot_period(),
            config,
            streams: Vec::new(),
            rr_next: 0,
            next_free_slot: SimTime::ZERO,
            issued_total: 0,
        }
    }

    /// This bus's index.
    pub fn id(&self) -> BusId {
        self.id
    }

    /// The bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// The slot period: time to move one DMA-memory request.
    pub fn slot_period(&self) -> SimDuration {
        self.slot_period
    }

    /// Number of active (incomplete) transfers on the bus.
    pub fn active_transfers(&self) -> usize {
        self.streams.len()
    }

    /// Total requests issued since construction.
    pub fn issued_total(&self) -> u64 {
        self.issued_total
    }

    /// Registers a new transfer, eligible to issue from `now` on.
    ///
    /// # Panics
    ///
    /// Panics if the transfer belongs to a different bus.
    pub fn add_transfer(&mut self, now: SimTime, transfer: DmaTransfer) {
        assert_eq!(transfer.bus, self.id, "transfer routed to wrong bus");
        let total = self.config.requests_for(transfer.bytes);
        self.streams.push(Stream {
            transfer,
            issued: 0,
            total,
            phase: StreamPhase::Ready,
            next_due: now,
        });
    }

    /// Acknowledges the first request of `transfer` at `now`, unblocking
    /// its stream; the next request issues one slot period later (the
    /// engine resumes once the first request is accepted). No-op if the
    /// stream already completed or was never blocked (acks of non-first
    /// requests are implicit).
    pub fn ack_first(&mut self, transfer: TransferId, now: SimTime) {
        if let Some(s) = self.streams.iter_mut().find(|s| s.transfer.id == transfer) {
            if s.phase == StreamPhase::AwaitingAck {
                s.phase = StreamPhase::Ready;
                s.next_due = s.next_due.max(now + self.slot_period);
            }
        }
    }

    /// True if at least one stream could issue right now (slot timing
    /// aside).
    pub fn has_eligible_stream(&self) -> bool {
        self.streams.iter().any(|s| s.phase == StreamPhase::Ready)
    }

    /// Read-only views of the streams that are Ready to issue (streams
    /// awaiting an ack are skipped), in stream order.
    ///
    /// A simulator uses this to see, without issuing, which transfers the
    /// bus's next requests belong to and where in each transfer they fall.
    pub fn ready_streams(&self) -> impl Iterator<Item = ReadyStream> + '_ {
        self.streams
            .iter()
            .filter(|s| s.phase == StreamPhase::Ready)
            .map(|s| ReadyStream {
                slot: s.transfer.slot,
                next_seq: s.issued,
                total: s.total,
                next_due: s.next_due,
            })
    }

    /// Index of the stream the next round-robin probe starts from.
    pub fn rr_cursor(&self) -> usize {
        self.rr_next
    }

    /// The earliest instant at or after `now` at which the bus could issue a
    /// request, or `None` if no stream is eligible.
    pub fn next_issue_time(&self, now: SimTime) -> Option<SimTime> {
        match self.config.discipline {
            BusDiscipline::TimeDivision => self
                .has_eligible_stream()
                .then(|| now.max(self.next_free_slot)),
            BusDiscipline::PerEngine => self
                .streams
                .iter()
                .filter(|s| s.phase == StreamPhase::Ready)
                .map(|s| s.next_due.max(now))
                .min(),
        }
    }

    /// Moves the bus `by` later, as if it had repeated `times` over a
    /// steady period in which every Ready stream issued `issued(slot)`
    /// requests of its transfer (looked up by the transfer's slot) and
    /// none finished. Due times and the slot clock move by `by`; the
    /// round-robin cursor, which comes back to its place every period,
    /// stays. A simulator that has proved a run of periods identical uses
    /// this instead of issuing each of their requests.
    pub fn repeat(&mut self, by: SimDuration, times: u64, issued: impl Fn(u32) -> u64) {
        let mut moved = false;
        for s in &mut self.streams {
            if s.phase == StreamPhase::Ready {
                let n = issued(s.transfer.slot) * times;
                s.issued += n;
                debug_assert!(s.issued < s.total, "repeat reached a last request");
                s.next_due += by;
                self.issued_total += n;
                moved = true;
            }
        }
        if moved {
            self.next_free_slot += by;
        }
    }

    /// Issues one request at `now` from the next eligible stream in
    /// round-robin order. Returns [`IssueOutcome::Idle`] when no stream is
    /// eligible or the slot is not free yet (callers may safely poll).
    pub fn issue(&mut self, now: SimTime) -> IssueOutcome {
        if self.streams.is_empty() {
            return IssueOutcome::Idle;
        }
        if self.config.discipline == BusDiscipline::TimeDivision && now < self.next_free_slot {
            return IssueOutcome::Idle;
        }
        let n = self.streams.len();
        for probe in 0..n {
            let idx = (self.rr_next + probe) % n;
            if self.streams[idx].phase != StreamPhase::Ready {
                continue;
            }
            if self.config.discipline == BusDiscipline::PerEngine
                && self.streams[idx].next_due > now
            {
                continue;
            }
            let request = {
                let s = &mut self.streams[idx];
                let seq = s.issued;
                s.issued += 1;
                let is_first = seq == 0;
                let is_last = s.issued == s.total;
                // Last request may be short.
                let bytes = if is_last {
                    s.transfer.bytes - (s.total - 1) * self.config.request_bytes
                } else {
                    self.config.request_bytes
                };
                if is_first {
                    s.phase = StreamPhase::AwaitingAck;
                } else {
                    s.next_due = now + self.slot_period;
                }
                DmaRequest {
                    transfer: s.transfer.id,
                    bus: self.id,
                    page: s.transfer.page,
                    seq,
                    bytes,
                    is_first,
                    is_last,
                    source: s.transfer.source,
                    slot: s.transfer.slot,
                }
            };
            if request.is_last {
                self.streams.remove(idx);
                self.rr_next = if self.streams.is_empty() {
                    0
                } else if idx < self.rr_next {
                    // Removal shifted the RR cursor left.
                    (self.rr_next - 1) % self.streams.len()
                } else {
                    idx % self.streams.len()
                };
            } else {
                self.rr_next = (idx + 1) % n;
            }
            self.next_free_slot = now + self.slot_period;
            self.issued_total += 1;
            return IssueOutcome::Issued(request);
        }
        IssueOutcome::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xfer(id: TransferId, page: PageId, bytes: u64) -> DmaTransfer {
        DmaTransfer::new(
            id,
            0,
            page,
            bytes,
            DmaDirection::FromMemory,
            DmaSource::Network,
        )
    }

    fn drain(bus: &mut Bus, mut now: SimTime, auto_ack: bool) -> Vec<(SimTime, DmaRequest)> {
        let mut out = Vec::new();
        while bus.active_transfers() > 0 {
            match bus.next_issue_time(now) {
                Some(t) => now = now.max(t),
                None => break,
            }
            if let IssueOutcome::Issued(r) = bus.issue(now) {
                if r.is_first && auto_ack {
                    bus.ack_first(r.transfer, now);
                }
                out.push((now, r));
            }
        }
        out
    }

    #[test]
    fn pci_x_slot_period_matches_paper() {
        let c = BusConfig::pci_x();
        // 8 bytes at 1.064 GB/s: ~7.52 ns, i.e. ~12 memory cycles of 625 ps.
        let p = c.slot_period();
        assert!(p.as_ns_f64() > 7.4 && p.as_ns_f64() < 7.6, "{p}");
        assert_eq!(c.requests_for(8192), 1024);
        assert_eq!(c.requests_for(512), 64);
    }

    #[test]
    fn single_stream_paces_at_slot_period() {
        let mut bus = Bus::new(0, BusConfig::pci_x());
        bus.add_transfer(SimTime::ZERO, xfer(1, 5, 64)); // 8 requests
        let reqs = drain(&mut bus, SimTime::ZERO, true);
        assert_eq!(reqs.len(), 8);
        let period = BusConfig::pci_x().slot_period();
        for (i, window) in reqs.windows(2).enumerate() {
            let gap = window[1].0 - window[0].0;
            assert_eq!(gap, period, "gap {i} was {gap}");
        }
        assert!(reqs[0].1.is_first && reqs[7].1.is_last);
        let seqs: Vec<u64> = reqs.iter().map(|(_, r)| r.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn first_request_gates_the_stream() {
        let mut bus = Bus::new(0, BusConfig::pci_x());
        bus.add_transfer(SimTime::ZERO, xfer(1, 5, 64));
        let r = match bus.issue(SimTime::ZERO) {
            IssueOutcome::Issued(r) => r,
            IssueOutcome::Idle => panic!("should issue"),
        };
        assert!(r.is_first);
        // Without an ack, the bus has nothing eligible.
        assert_eq!(bus.next_issue_time(SimTime::ZERO), None);
        let later = SimTime::ZERO + SimDuration::from_us(1);
        assert_eq!(bus.issue(later), IssueOutcome::Idle);
        // After the ack it resumes, one slot period after the ack.
        bus.ack_first(1, later);
        let resume = bus.next_issue_time(later).unwrap();
        assert_eq!(resume, later + BusConfig::pci_x().slot_period());
        match bus.issue(resume) {
            IssueOutcome::Issued(r2) => assert_eq!(r2.seq, 1),
            IssueOutcome::Idle => panic!("ack did not unblock"),
        }
    }

    #[test]
    fn two_streams_share_round_robin() {
        let mut bus = Bus::new(
            0,
            BusConfig::pci_x().with_discipline(BusDiscipline::TimeDivision),
        );
        bus.add_transfer(SimTime::ZERO, xfer(1, 10, 32)); // 4 reqs
        bus.add_transfer(SimTime::ZERO, xfer(2, 20, 32)); // 4 reqs
        let reqs = drain(&mut bus, SimTime::ZERO, true);
        let order: Vec<TransferId> = reqs.iter().map(|(_, r)| r.transfer).collect();
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2, 1, 2]);
        // Aggregate rate = one request per slot.
        let period = BusConfig::pci_x().slot_period();
        assert_eq!(reqs.last().unwrap().0, SimTime::ZERO + period * 7);
    }

    #[test]
    fn blocked_stream_does_not_stall_others() {
        let mut bus = Bus::new(
            0,
            BusConfig::pci_x().with_discipline(BusDiscipline::TimeDivision),
        );
        bus.add_transfer(SimTime::ZERO, xfer(1, 10, 32));
        bus.add_transfer(SimTime::ZERO, xfer(2, 20, 32));
        // Issue both firsts; ack only transfer 2.
        let r1 = match bus.issue(SimTime::ZERO) {
            IssueOutcome::Issued(r) => r,
            _ => panic!(),
        };
        assert_eq!(r1.transfer, 1);
        let t1 = bus.next_issue_time(SimTime::ZERO).unwrap();
        let r2 = match bus.issue(t1) {
            IssueOutcome::Issued(r) => r,
            _ => panic!(),
        };
        assert_eq!(r2.transfer, 2);
        bus.ack_first(2, t1);
        // Only transfer 2 issues now.
        let mut now = t1;
        for _ in 0..3 {
            now = bus.next_issue_time(now).unwrap();
            match bus.issue(now) {
                IssueOutcome::Issued(r) => assert_eq!(r.transfer, 2),
                IssueOutcome::Idle => panic!("stream 2 should flow"),
            }
        }
        assert_eq!(bus.active_transfers(), 1); // 2 completed, 1 still blocked
        bus.ack_first(1, now);
        let reqs = drain(&mut bus, now + SimDuration::from_us(1), true);
        assert_eq!(reqs.len(), 3);
        assert!(reqs.iter().all(|(_, r)| r.transfer == 1));
    }

    #[test]
    fn short_tail_request_carries_remainder() {
        let mut bus = Bus::new(0, BusConfig::pci_x());
        bus.add_transfer(SimTime::ZERO, xfer(1, 3, 20)); // 8 + 8 + 4
        let reqs = drain(&mut bus, SimTime::ZERO, true);
        let bytes: Vec<u64> = reqs.iter().map(|(_, r)| r.bytes).collect();
        assert_eq!(bytes, vec![8, 8, 4]);
        assert!(reqs[2].1.is_last);
    }

    #[test]
    fn issue_respects_slot_occupancy() {
        let mut bus = Bus::new(
            0,
            BusConfig::pci_x().with_discipline(BusDiscipline::TimeDivision),
        );
        bus.add_transfer(SimTime::ZERO, xfer(1, 3, 8192));
        let _ = bus.issue(SimTime::ZERO);
        bus.ack_first(1, SimTime::ZERO);
        // Same instant: slot consumed, nothing issues.
        assert_eq!(bus.issue(SimTime::ZERO), IssueOutcome::Idle);
        let next = bus.next_issue_time(SimTime::ZERO).unwrap();
        assert_eq!(next, SimTime::ZERO + BusConfig::pci_x().slot_period());
    }

    #[test]
    fn aggregate_throughput_matches_rate() {
        // 8 KB over a dedicated PCI-X bus takes bytes/rate seconds.
        let mut bus = Bus::new(0, BusConfig::pci_x());
        bus.add_transfer(SimTime::ZERO, xfer(1, 3, 8192));
        let reqs = drain(&mut bus, SimTime::ZERO, true);
        assert_eq!(reqs.len(), 1024);
        let span = reqs.last().unwrap().0 - reqs[0].0;
        let expect = SimDuration::from_bytes_at_rate(8192, 1.064e9);
        // 1023 slot gaps vs 1024 requests: within one slot.
        assert!(span <= expect && span >= expect - BusConfig::pci_x().slot_period() * 2);
    }

    #[test]
    fn three_streams_removal_keeps_rotation_fair() {
        let mut bus = Bus::new(
            0,
            BusConfig::pci_x().with_discipline(BusDiscipline::TimeDivision),
        );
        bus.add_transfer(SimTime::ZERO, xfer(1, 1, 16)); // 2 reqs
        bus.add_transfer(SimTime::ZERO, xfer(2, 2, 32)); // 4 reqs
        bus.add_transfer(SimTime::ZERO, xfer(3, 3, 32)); // 4 reqs
        let reqs = drain(&mut bus, SimTime::ZERO, true);
        assert_eq!(reqs.len(), 10);
        let order: Vec<TransferId> = reqs.iter().map(|(_, r)| r.transfer).collect();
        assert_eq!(order, vec![1, 2, 3, 1, 2, 3, 2, 3, 2, 3]);
    }

    #[test]
    fn custom_request_size() {
        let c = BusConfig::pci_x().with_request_bytes(64);
        assert_eq!(c.requests_for(8192), 128);
        let mut bus = Bus::new(0, c);
        bus.add_transfer(
            SimTime::ZERO,
            DmaTransfer::new(9, 0, 1, 128, DmaDirection::ToMemory, DmaSource::Disk),
        );
        let reqs = drain(&mut bus, SimTime::ZERO, true);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].1.bytes, 64);
    }

    #[test]
    fn per_engine_streams_pace_independently() {
        // Two engines on one bus each run at the full engine rate: their
        // requests land pairwise at the same instants (the paper's
        // Figure 2(a)/3 cadence model).
        let mut bus = Bus::new(0, BusConfig::pci_x());
        bus.add_transfer(SimTime::ZERO, xfer(1, 10, 32)); // 4 reqs
        bus.add_transfer(SimTime::ZERO, xfer(2, 20, 32)); // 4 reqs
        let reqs = drain(&mut bus, SimTime::ZERO, true);
        assert_eq!(reqs.len(), 8);
        let period = BusConfig::pci_x().slot_period();
        // Both last requests complete within 3 periods of the first + ack
        // skew, far faster than strict TDM (7 periods).
        let span = reqs.last().unwrap().0 - reqs[0].0;
        assert!(span <= period * 4, "span {span}");
        // Per-stream cadence is one request per period.
        for tid in [1u64, 2] {
            let times: Vec<SimTime> = reqs
                .iter()
                .filter(|(_, r)| r.transfer == tid)
                .map(|(t, _)| *t)
                .collect();
            for w in times.windows(2) {
                assert_eq!(w[1] - w[0], period, "stream {tid} cadence broken");
            }
        }
    }

    #[test]
    fn per_engine_ack_defers_next_request() {
        let mut bus = Bus::new(0, BusConfig::pci_x());
        bus.add_transfer(SimTime::ZERO, xfer(1, 10, 24)); // 3 reqs
        let _first = bus.issue(SimTime::ZERO);
        // Ack arrives late (e.g. after a DMA-TA delay): the stream resumes
        // one period after the ack, not after the original issue.
        let ack_at = SimTime::ZERO + SimDuration::from_us(5);
        bus.ack_first(1, ack_at);
        let resume = bus.next_issue_time(ack_at).unwrap();
        assert_eq!(resume, ack_at + BusConfig::pci_x().slot_period());
    }

    #[test]
    fn ready_streams_skip_streams_awaiting_ack() {
        let mut bus = Bus::new(0, BusConfig::pci_x());
        assert_eq!(bus.ready_streams().count(), 0);
        bus.add_transfer(SimTime::ZERO, xfer(1, 10, 24).with_slot(7)); // 3 reqs
        let s: Vec<ReadyStream> = bus.ready_streams().collect();
        assert_eq!(
            s,
            [ReadyStream {
                slot: 7,
                next_seq: 0,
                total: 3,
                next_due: SimTime::ZERO,
            }]
        );
        assert!(!s[0].next_is_middle(), "first request");
        let _ = bus.issue(SimTime::ZERO);
        assert_eq!(bus.ready_streams().count(), 0, "awaiting ack is not Ready");
        bus.add_transfer(SimTime::ZERO, xfer(2, 20, 24).with_slot(8));
        let slots: Vec<u32> = bus.ready_streams().map(|s| s.slot).collect();
        assert_eq!(slots, [8]);
        bus.ack_first(1, SimTime::ZERO);
        let s: Vec<ReadyStream> = bus.ready_streams().collect();
        assert_eq!(s.len(), 2);
        assert!(s[0].next_is_middle(), "second of three");
        assert!(!s[1].next_is_middle(), "stream 2 has not issued");
        let t = bus.next_issue_time(SimTime::ZERO).unwrap();
        let _ = bus.issue(t); // stream 2's first: awaits its ack
        let t = bus.next_issue_time(t).unwrap();
        let _ = bus.issue(t); // stream 1's second
        let s: Vec<ReadyStream> = bus.ready_streams().collect();
        assert_eq!((s.len(), s[0].next_seq), (1, 2));
        assert!(!s[0].next_is_middle(), "last");
    }

    #[test]
    fn repeat_matches_issuing_every_request() {
        let period = BusConfig::pci_x().slot_period();
        let build = || {
            let mut bus = Bus::new(0, BusConfig::pci_x());
            bus.add_transfer(SimTime::ZERO, xfer(1, 10, 8192).with_slot(4));
            bus.add_transfer(SimTime::ZERO, xfer(2, 20, 8192).with_slot(5));
            for id in [1, 2] {
                let t = bus.next_issue_time(SimTime::ZERO).unwrap();
                let _ = bus.issue(t);
                bus.ack_first(id, t);
            }
            bus
        };
        let mut stepped = build();
        let mut now = SimTime::ZERO;
        for _ in 0..2 * 10 {
            now = stepped.next_issue_time(now).unwrap();
            assert!(matches!(stepped.issue(now), IssueOutcome::Issued(_)));
        }
        // The same ten periods of two requests each, in one step.
        let mut jumped = build();
        let mut now = SimTime::ZERO;
        for _ in 0..2 {
            now = jumped.next_issue_time(now).unwrap();
            let _ = jumped.issue(now);
        }
        jumped.repeat(period * 9, 9, |_| 1);
        assert_eq!(jumped.issued_total(), stepped.issued_total());
        assert_eq!(jumped.rr_cursor(), stepped.rr_cursor());
        assert_eq!(
            jumped.ready_streams().collect::<Vec<_>>(),
            stepped.ready_streams().collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "wrong bus")]
    fn wrong_bus_panics() {
        let mut bus = Bus::new(0, BusConfig::pci_x());
        let t = DmaTransfer::new(1, 3, 0, 8, DmaDirection::FromMemory, DmaSource::Network);
        bus.add_transfer(SimTime::ZERO, t);
    }
}
