//! Transfer-level causal tracing and energy-waste attribution.
//!
//! The paper's core observation (Section 3, Figure 2) is *causal*: a DMA
//! transfer wakes a chip, then trickles requests at the I/O-bus rate, and
//! the chip burns active-idle energy in the gaps. Aggregate counters show
//! the waste exists; this module shows *where it comes from*, one
//! transfer at a time.
//!
//! [`Tracer`] turns the engine's event stream into a
//! [`TraceBuffer`] span forest:
//!
//! * one **bus track** per I/O bus, where every DMA transfer is a root
//!   span ([`SPAN_TRANSFER`]) with child spans for the phases of its
//!   life — gather delay under DMA-TA ([`SPAN_GATHER_DELAY`]), chip
//!   wakeup ([`SPAN_WAKEUP`]), lockstep service ([`SPAN_LOCKSTEP`]),
//!   active-idle gaps between bus deliveries ([`SPAN_ACTIVE_IDLE`]) and
//!   the final queue drain after the last request lands
//!   ([`SPAN_DRAIN`]);
//! * one **chip track** per memory chip carrying its activity periods
//!   (serving / active-idle / threshold-idle / transitioning /
//!   low-power) plus a power counter ([`COUNTER_POWER`]) sampled at
//!   every mode transition.
//!
//! Export with [`TraceBuffer::to_chrome_json`], or pass [`Tracer::new`] a
//! [`SpillSink`] to stream every record into a file in record order
//! while the ring stays bounded (what `experiments --trace-out` always
//! does), and load the file in [Perfetto](https://ui.perfetto.dev) (or
//! `chrome://tracing`).
//!
//! A ring record takes 16 bytes, so a full 2^20-record ring holds
//! 16 MiB of records (plus 8 bytes per retained counter sample).
//! The span tree is checked as it is recorded, so
//! [`TraceBuffer::validate`] reports on the whole run in O(1), whether
//! the ring held it, streamed it out or dropped its oldest records.
//!
//! [`WasteBuckets`] and [`RunAttribution`] reduce a run's energy ledger
//! to the paper's waste taxonomy — useful active, active-idle during
//! DMA, threshold idle, wakeup, low-power — with the invariant that the
//! buckets sum to the run's total energy exactly (the mapping from
//! [`EnergyCategory`] is a partition, so the sum is the same floating
//! point additions the ledger itself performs).

use std::collections::VecDeque;

use mempower::{EnergyBreakdown, EnergyCategory, PowerMode};
use simcore::obs::json::JsonObject;
use simcore::obs::trace::{SpanId, SpanTape, SpillSink, TraceBuffer, TrackId, TrackKind};
use simcore::{SimDuration, SimTime};

use crate::metrics::SimResult;
use crate::obs::{ChipActivity, SimEvent};

/// Root span on a bus track: one whole DMA transfer, arrival to last
/// request served.
pub const SPAN_TRANSFER: &str = "dmamem.trace.transfer";
/// Child span: transfer is parked in the DMA-TA gather queue while its
/// target chip sleeps.
pub const SPAN_GATHER_DELAY: &str = "dmamem.trace.gather_delay";
/// Child span: target chip is powering up for this transfer.
pub const SPAN_WAKEUP: &str = "dmamem.trace.wakeup";
/// Child span: chip serving this transfer's requests in lockstep with
/// the I/O bus (more bus deliveries still to come).
pub const SPAN_LOCKSTEP: &str = "dmamem.trace.lockstep_active";
/// Child span (bus track): chip caught up with the bus and sits
/// active-idle until the next request of this transfer arrives. Also the
/// chip-track span name for [`ChipActivity::IdleDma`] periods.
pub const SPAN_ACTIVE_IDLE: &str = "dmamem.trace.active_idle";
/// Child span: every request has been delivered; the chip is draining
/// the tail of the queue.
pub const SPAN_DRAIN: &str = "dmamem.trace.drain";
/// Instant marker: DMA-TA released this transfer's gather group.
pub const MARK_RELEASE: &str = "dmamem.trace.release";
/// Chip-track span: chip actively serving a request.
pub const SPAN_SERVING: &str = "dmamem.trace.serving";
/// Chip-track span: chip idle above threshold with no DMA in flight.
pub const SPAN_IDLE_THRESHOLD: &str = "dmamem.trace.idle_threshold";
/// Chip-track span: chip transitioning between power modes.
pub const SPAN_TRANSITION: &str = "dmamem.trace.transition";
/// Chip-track span: chip settled in a low-power mode.
pub const SPAN_LOW_POWER: &str = "dmamem.trace.low_power";
/// Chip-track counter: chip power draw in milliwatts, sampled at every
/// mode transition.
pub const COUNTER_POWER: &str = "dmamem.trace.power_mw";
/// Run metric: trace records streamed to the spill sink, in record order,
/// instead of being dropped when the span ring overflowed (see
/// [`TraceBuffer::arm_spill`](simcore::obs::trace::TraceBuffer::arm_spill)).
pub const COUNTER_SPILLED: &str = "dmamem.trace.spilled";
/// Run metric: trace records lost to ring overflow (no spill sink armed)
/// or to spill-sink write failures — loss is counted, never silent.
pub const COUNTER_DROPPED: &str = "dmamem.trace.dropped";

/// Where a transfer is in its life cycle (drives which child span is
/// open on the bus track).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Arrived; no request has reached the controller yet.
    Init,
    /// Parked in the DMA-TA gather queue.
    Gather,
    /// Waiting on the target chip's power-up.
    Wakeup,
    /// Chip serving in lockstep with the bus.
    Active,
    /// Chip caught up; waiting for the bus to deliver the next request.
    ActiveIdle,
    /// All requests delivered; draining the queue tail.
    Drain,
}

/// Per-transfer tracing state.
#[derive(Debug, Clone)]
struct TransferTrace {
    root: SpanId,
    track: TrackId,
    child: Option<SpanId>,
    phase: Phase,
    issued: u64,
    served: u64,
    last_issued: bool,
}

/// The transfers in flight, indexed by `tid - base`. The engine numbers
/// transfers in start order, so a start appends at the back and the front
/// advances past finished transfers: every lookup is an index, and the
/// window spans the tids from the oldest unfinished transfer on.
#[derive(Debug, Clone, Default)]
struct TransferWindow {
    base: u64,
    slots: VecDeque<Option<TransferTrace>>,
}

impl TransferWindow {
    fn slot(&self, tid: u64) -> Option<usize> {
        usize::try_from(tid.checked_sub(self.base)?).ok()
    }

    fn get_mut(&mut self, tid: u64) -> Option<&mut TransferTrace> {
        let i = self.slot(tid)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Starts tracking `tid`. A tid older than the oldest transfer in
    /// flight cannot be placed and is ignored.
    fn insert(&mut self, tid: u64, t: TransferTrace) {
        if self.slots.is_empty() {
            self.base = tid;
        }
        let Some(i) = self.slot(tid) else { return };
        match self.slots.get_mut(i) {
            Some(slot) => *slot = Some(t),
            None => {
                self.slots.resize(i, None);
                self.slots.push_back(Some(t));
            }
        }
    }

    fn remove(&mut self, tid: u64) {
        if let Some(slot) = self.slot(tid).and_then(|i| self.slots.get_mut(i)) {
            *slot = None;
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

/// A transfer's tracing state at a period boundary: its phase, requests
/// issued and served, whether its last request was issued, and its open
/// child span.
type TransferMark = (Phase, u64, u64, bool, Option<SpanId>);

/// The tracer's state at one boundary of a train period (see
/// [`Tracer::mark`]), with the observer hub's.
///
/// Two marks taken at a period's start and end *repeat* when the next
/// period makes the same tracer calls, with span ids `B` later (`B` the
/// spans the period began). Each held span (a transfer's child, a chip's
/// activity span) must then be the same span at both ends, untouched by
/// the period, or sit as far below the next span id at the end as at the
/// start, so the period ended it and began its successor; every other
/// field must be equal, counts of issued and served requests up to their
/// difference.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceMark {
    next_span: u64,
    open: usize,
    /// The transfer window's first tid and slots.
    base: u64,
    transfers: Vec<Option<TransferMark>>,
    chips: Vec<Option<SpanId>>,
    /// The observer hub's last activity per chip.
    pub(crate) activity: Vec<Option<ChipActivity>>,
    /// The observer hub's last event stamp, in ps.
    pub(crate) last_ps: u64,
}

impl TraceMark {
    /// True when this mark, taken at a period's end, repeats `start`,
    /// taken at its start (see [`TraceMark`]).
    pub(crate) fn repeats(&self, start: &TraceMark) -> bool {
        let held = |a: Option<SpanId>, b: Option<SpanId>| match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a == b
                    || (b.index() >= start.next_span
                        && self.next_span - b.index() == start.next_span - a.index())
            }
            _ => false,
        };
        let transfer = |a: &Option<TransferMark>, b: &Option<TransferMark>| match (a, b) {
            (None, None) => true,
            (Some((p0, i0, s0, l0, c0)), Some((p1, i1, s1, l1, c1))) => {
                p0 == p1
                    && l0 == l1
                    && i0.wrapping_sub(*s0) == i1.wrapping_sub(*s1)
                    && held(*c0, *c1)
            }
            _ => false,
        };
        self.open == start.open
            && self.base == start.base
            && self.activity == start.activity
            && self.transfers.len() == start.transfers.len()
            && self.chips.len() == start.chips.len()
            && start
                .transfers
                .iter()
                .zip(&self.transfers)
                .all(|(a, b)| transfer(a, b))
            && start
                .chips
                .iter()
                .zip(&self.chips)
                .all(|(&a, &b)| held(a, b))
    }
}

/// The span a held slot holds `n` periods after `end`: one the period
/// replaced moves on by `n·B`, one it left alone stays.
fn shifted(start: Option<SpanId>, end: Option<SpanId>, by: u64) -> Option<SpanId> {
    match (start, end) {
        (Some(a), Some(b)) if a != b => Some(b.offset(by)),
        (_, end) => end,
    }
}

/// Builds the causal span trace from the engine's event stream.
///
/// Created by [`crate::ServerSimulator::with_tracing`]; the engine passes
/// it every [`SimEvent`] through [`Tracer::on`], and the finished
/// [`TraceBuffer`] lands in [`SimResult::trace`]. Events arrive in
/// simulation-time order (the engine's observer hub asserts it), so every
/// span begins and ends at the stamp of the fact that caused it.
#[derive(Debug, Clone)]
pub struct Tracer {
    /// The span ring; the engine's hub tapes train periods on it.
    pub(crate) buf: TraceBuffer,
    chip_tracks: Vec<TrackId>,
    bus_tracks: Vec<TrackId>,
    chip_spans: Vec<Option<SpanId>>,
    mode_power_mw: [f64; 4],
    transfers: TransferWindow,
    /// The last started tid: starts must strictly increase (debug
    /// builds assert it), or the transfer window cannot place them.
    last_start: Option<u64>,
}

impl Tracer {
    /// A tracer with a `capacity`-record ring, one track per chip and per
    /// bus, and `mode_power_mw` giving the power draw of
    /// `[Active, Standby, Nap, Powerdown]` for the counter samples.
    ///
    /// With a `spill` sink, records displaced from the ring stream to it
    /// in record order instead of being dropped. The sink is armed once
    /// the tracks are registered, so it receives a complete Chrome JSON
    /// header, and before the first record, so it receives every record.
    pub fn new(
        capacity: usize,
        chips: usize,
        buses: usize,
        mode_power_mw: [f64; 4],
        spill: Option<SpillSink>,
    ) -> Self {
        let mut buf = TraceBuffer::new(capacity);
        let chip_tracks: Vec<TrackId> = (0..chips)
            .map(|i| buf.add_track(format!("chip {i}"), TrackKind::Chip))
            .collect();
        let bus_tracks = (0..buses)
            .map(|i| buf.add_track(format!("io bus {i}"), TrackKind::Bus))
            .collect();
        if let Some(sink) = spill {
            buf.arm_spill(sink);
        }
        // Chips boot settled in Active: seed each power counter so the
        // track has a defined value from time zero.
        for &t in &chip_tracks {
            buf.counter(t, COUNTER_POWER, SimTime::ZERO, mode_power_mw[0]);
        }
        Tracer {
            buf,
            chip_tracks,
            bus_tracks,
            chip_spans: vec![None; chips],
            mode_power_mw,
            transfers: TransferWindow::default(),
            last_start: None,
        }
    }

    /// Consumes one engine event: transfer-level facts drive the bus
    /// tracks, chip activity and power-mode transitions the chip tracks;
    /// every other fact is ignored.
    pub fn on(&mut self, ev: &SimEvent) {
        match *ev {
            SimEvent::TransferStart { at, transfer, bus } => {
                self.transfer_started(transfer, bus, at);
            }
            SimEvent::RequestIssued {
                at,
                transfer,
                is_first,
                is_last,
                wake_pending,
            } => self.issued(transfer, is_first, is_last, wake_pending, at),
            SimEvent::TaGather { at, transfer, .. } => self.gathered(transfer, at),
            SimEvent::TransferRelease { at, transfer } => self.released(transfer, at),
            SimEvent::ServeStart { at, transfer } => self.serve_start(transfer, at),
            SimEvent::RequestServed {
                at,
                transfer,
                is_last,
                ..
            } => self.serve_done(transfer, is_last, at),
            SimEvent::Activity { at, chip, activity } => self.chip_activity(chip, at, activity),
            SimEvent::ModeTransition { at, chip, to, .. } => self.transition(chip, at, to),
            _ => {}
        }
    }

    fn mode_power(&self, mode: PowerMode) -> f64 {
        let slot = match mode {
            PowerMode::Active => 0,
            PowerMode::Standby => 1,
            PowerMode::Nap => 2,
            PowerMode::Powerdown => 3,
        };
        self.mode_power_mw[slot]
    }

    /// A DMA transfer arrived at the controller: open its root span.
    fn transfer_started(&mut self, tid: u64, bus: usize, at: SimTime) {
        debug_assert!(
            self.last_start.is_none_or(|last| tid > last),
            "transfer {tid} started after transfer {:?}",
            self.last_start
        );
        self.last_start = Some(tid);
        let Some(&track) = self.bus_tracks.get(bus) else {
            return;
        };
        let root = self.buf.begin(track, SPAN_TRANSFER, at, None);
        self.transfers.insert(
            tid,
            TransferTrace {
                root,
                track,
                child: None,
                phase: Phase::Init,
                issued: 0,
                served: 0,
                last_issued: false,
            },
        );
    }

    /// The bus delivered one request of transfer `tid` to the controller.
    /// `wake_pending` is true when the request triggers an immediate chip
    /// wake (no gathering).
    fn issued(&mut self, tid: u64, is_first: bool, is_last: bool, wake_pending: bool, at: SimTime) {
        let Some(t) = self.transfers.get_mut(tid) else {
            return;
        };
        t.issued += 1;
        if is_last {
            t.last_issued = true;
        }
        if is_first && wake_pending && t.phase == Phase::Init {
            t.child = Some(self.buf.begin(t.track, SPAN_WAKEUP, at, Some(t.root)));
            t.phase = Phase::Wakeup;
        }
    }

    /// DMA-TA parked transfer `tid` in the gather queue.
    fn gathered(&mut self, tid: u64, at: SimTime) {
        let Some(t) = self.transfers.get_mut(tid) else {
            return;
        };
        if let Some(c) = t.child.take() {
            self.buf.end(c, at);
        }
        t.child = Some(self.buf.begin(t.track, SPAN_GATHER_DELAY, at, Some(t.root)));
        t.phase = Phase::Gather;
    }

    /// DMA-TA released the gather group containing transfer `tid`.
    fn released(&mut self, tid: u64, at: SimTime) {
        let Some(t) = self.transfers.get_mut(tid) else {
            return;
        };
        if t.phase != Phase::Gather {
            return;
        }
        if let Some(c) = t.child.take() {
            self.buf.end(c, at);
        }
        self.buf.instant(t.track, MARK_RELEASE, at);
        t.child = Some(self.buf.begin(t.track, SPAN_WAKEUP, at, Some(t.root)));
        t.phase = Phase::Wakeup;
    }

    /// The chip began serving a request of transfer `tid`.
    fn serve_start(&mut self, tid: u64, at: SimTime) {
        let Some(t) = self.transfers.get_mut(tid) else {
            return;
        };
        match t.phase {
            Phase::Active => {
                // Back-to-back service from a queued backlog; once the bus
                // has delivered everything, the rest is drain.
                if t.last_issued {
                    if let Some(c) = t.child.take() {
                        self.buf.end(c, at);
                    }
                    t.child = Some(self.buf.begin(t.track, SPAN_DRAIN, at, Some(t.root)));
                    t.phase = Phase::Drain;
                }
            }
            Phase::Drain => {}
            Phase::Init | Phase::Gather | Phase::Wakeup | Phase::ActiveIdle => {
                if let Some(c) = t.child.take() {
                    self.buf.end(c, at);
                }
                let (name, phase) = if t.last_issued {
                    (SPAN_DRAIN, Phase::Drain)
                } else {
                    (SPAN_LOCKSTEP, Phase::Active)
                };
                t.child = Some(self.buf.begin(t.track, name, at, Some(t.root)));
                t.phase = phase;
            }
        }
    }

    /// The chip finished serving a request of transfer `tid`.
    fn serve_done(&mut self, tid: u64, is_last: bool, at: SimTime) {
        let Some(t) = self.transfers.get_mut(tid) else {
            return;
        };
        t.served += 1;
        if is_last {
            let root = t.root;
            if let Some(c) = t.child.take() {
                self.buf.end(c, at);
            }
            self.buf.end(root, at);
            self.transfers.remove(tid);
            return;
        }
        if t.issued > t.served {
            // Backlog remains: the next service follows immediately, so the
            // open lockstep/drain span keeps running.
            return;
        }
        // Caught up with the bus: the chip sits active-idle until the next
        // request of this transfer is delivered.
        if let Some(c) = t.child.take() {
            self.buf.end(c, at);
        }
        t.child = Some(self.buf.begin(t.track, SPAN_ACTIVE_IDLE, at, Some(t.root)));
        t.phase = Phase::ActiveIdle;
    }

    /// Chip `chip` entered a new activity period (repeats are dropped
    /// upstream, before any consumer sees them).
    fn chip_activity(&mut self, chip: usize, at: SimTime, activity: ChipActivity) {
        let Some(&track) = self.chip_tracks.get(chip) else {
            return;
        };
        if let Some(open) = self.chip_spans[chip].take() {
            self.buf.end(open, at);
        }
        let name = match activity {
            ChipActivity::Serving => SPAN_SERVING,
            ChipActivity::IdleDma => SPAN_ACTIVE_IDLE,
            ChipActivity::IdleOther => SPAN_IDLE_THRESHOLD,
            ChipActivity::Transitioning => SPAN_TRANSITION,
            ChipActivity::LowPower => SPAN_LOW_POWER,
        };
        self.chip_spans[chip] = Some(self.buf.begin(track, name, at, None));
    }

    /// Chip `chip` began a power-mode transition: drop a counter sample at
    /// the power of the mode being entered.
    fn transition(&mut self, chip: usize, at: SimTime, to: PowerMode) {
        let Some(&track) = self.chip_tracks.get(chip) else {
            return;
        };
        let value = self.mode_power(to);
        self.buf.counter(track, COUNTER_POWER, at, value);
    }

    /// Fills `m` with the tracer's state (the hub's fields are left to
    /// the hub).
    pub(crate) fn mark(&self, m: &mut TraceMark) {
        m.next_span = self.buf.spans_begun();
        m.open = self.buf.open_spans();
        m.base = self.transfers.base;
        m.transfers.clear();
        m.transfers.extend(self.transfers.slots.iter().map(|slot| {
            slot.as_ref()
                .map(|t| (t.phase, t.issued, t.served, t.last_issued, t.child))
        }));
        m.chips.clone_from(&self.chip_spans);
    }

    /// Books `n` more periods like the one `tape` holds, which ran from
    /// mark `start` to mark `end` (the tracer's state now): the buffer
    /// records the tape `n` times `period` apart, each transfer issues and
    /// serves `n` times its period's requests, and every span a slot
    /// holds that the period replaced moves on by `n·B`.
    pub(crate) fn replay(
        &mut self,
        tape: &SpanTape,
        start: &TraceMark,
        end: &TraceMark,
        n: u64,
        period: SimDuration,
    ) {
        self.buf.replay(tape, n, period);
        let by = n * tape.begins();
        for ((slot, a), b) in self
            .transfers
            .slots
            .iter_mut()
            .zip(&start.transfers)
            .zip(&end.transfers)
        {
            if let (Some(t), Some((_, i0, s0, _, c0)), Some((_, i1, s1, _, c1))) = (slot, a, b) {
                debug_assert_eq!(t.child, *c1, "the tracer moved since its mark");
                t.issued += n * (i1 - i0);
                t.served += n * (s1 - s0);
                t.child = shifted(*c0, *c1, by);
            }
        }
        for ((span, &a), &b) in self.chip_spans.iter_mut().zip(&start.chips).zip(&end.chips) {
            *span = shifted(a, b, by);
        }
    }

    /// Closes every open span at `horizon` and returns the finished
    /// buffer.
    pub fn into_buffer(mut self, horizon: SimTime) -> TraceBuffer {
        self.buf.finish(horizon);
        self.buf
    }
}

/// The paper's energy-waste taxonomy for one scope (a run or one chip),
/// in millijoules.
///
/// The five buckets partition [`EnergyCategory`]:
/// useful-active ← `ActiveServing` + `Migration`, active-idle-during-DMA
/// ← `ActiveIdleDma`, idle-above-threshold ← `ActiveIdleThreshold`,
/// wakeup ← `Transition`, low-power ← `LowPower`. Because the mapping is
/// a partition, [`WasteBuckets::total_mj`] reproduces
/// [`EnergyBreakdown::total_mj`] up to float associativity
/// (≤ 1e-9 relative in practice; asserted by the test suite).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WasteBuckets {
    /// Energy spent actively serving requests (including PL page moves).
    pub useful_active_mj: f64,
    /// Active-idle energy burned while a DMA transfer was in flight to
    /// the chip — the waste DMA-TA attacks (Figure 2(b)).
    pub active_idle_dma_mj: f64,
    /// Active-idle energy above the power-down threshold with no DMA in
    /// flight.
    pub idle_threshold_mj: f64,
    /// Energy spent in power-mode transitions (dominated by wakeups).
    pub wakeup_mj: f64,
    /// Energy spent settled in low-power modes.
    pub low_power_mj: f64,
}

impl WasteBuckets {
    /// Bucket labels in [`WasteBuckets::as_array`] order (also the JSON
    /// field names).
    pub const LABELS: [&'static str; 5] = [
        "useful_active",
        "active_idle_dma",
        "idle_threshold",
        "wakeup",
        "low_power",
    ];

    /// Reduces an energy ledger to the waste buckets.
    pub fn from_breakdown(e: &EnergyBreakdown) -> Self {
        WasteBuckets {
            useful_active_mj: e.energy_mj(EnergyCategory::ActiveServing)
                + e.energy_mj(EnergyCategory::Migration),
            active_idle_dma_mj: e.energy_mj(EnergyCategory::ActiveIdleDma),
            idle_threshold_mj: e.energy_mj(EnergyCategory::ActiveIdleThreshold),
            wakeup_mj: e.energy_mj(EnergyCategory::Transition),
            low_power_mj: e.energy_mj(EnergyCategory::LowPower),
        }
    }

    /// The buckets in [`WasteBuckets::LABELS`] order.
    pub fn as_array(&self) -> [f64; 5] {
        [
            self.useful_active_mj,
            self.active_idle_dma_mj,
            self.idle_threshold_mj,
            self.wakeup_mj,
            self.low_power_mj,
        ]
    }

    /// Sum of all buckets (equals the source ledger's total).
    pub fn total_mj(&self) -> f64 {
        self.as_array().iter().sum()
    }

    /// Fraction of the total in one bucket (`LABELS` index); 0 for an
    /// empty ledger.
    pub fn fraction(&self, idx: usize) -> f64 {
        let total = self.total_mj();
        if total <= 0.0 {
            0.0
        } else {
            self.as_array()[idx] / total
        }
    }

    fn to_json(self) -> String {
        let mut obj = JsonObject::new();
        for (label, v) in Self::LABELS.iter().zip(self.as_array()) {
            obj.field_f64(label, v);
        }
        obj.finish()
    }
}

/// Energy-waste attribution for one simulation run: the run-level
/// buckets plus one [`WasteBuckets`] per chip.
#[derive(Debug, Clone, PartialEq)]
pub struct RunAttribution {
    /// Workload label ("OLTP-St", ...).
    pub workload: String,
    /// Scheme label ("baseline", "DMA-TA", ...).
    pub scheme: String,
    /// Run total energy straight from the ledger (the checksum the
    /// buckets must reproduce).
    pub total_mj: f64,
    /// Run-level buckets.
    pub buckets: WasteBuckets,
    /// Per-chip buckets, chip id order.
    pub per_chip: Vec<WasteBuckets>,
}

impl RunAttribution {
    /// Attribution for `r`, labeled with `workload`.
    pub fn from_result(workload: &str, r: &SimResult) -> Self {
        RunAttribution {
            workload: workload.to_string(),
            scheme: r.scheme.clone(),
            total_mj: r.energy.total_mj(),
            buckets: WasteBuckets::from_breakdown(&r.energy),
            per_chip: r
                .per_chip_energy
                .iter()
                .map(WasteBuckets::from_breakdown)
                .collect(),
        }
    }

    /// Largest relative error between any bucket sum and its ledger
    /// total: the run-level buckets against [`RunAttribution::total_mj`],
    /// and the per-chip sums against the run-level buckets.
    pub fn checksum_rel_err(&self) -> f64 {
        let scale = self.total_mj.abs().max(1.0);
        let mut err = (self.buckets.total_mj() - self.total_mj).abs() / scale;
        if !self.per_chip.is_empty() {
            for idx in 0..WasteBuckets::LABELS.len() {
                let sum: f64 = self.per_chip.iter().map(|b| b.as_array()[idx]).sum();
                err = err.max((sum - self.buckets.as_array()[idx]).abs() / scale);
            }
        }
        err
    }

    /// One human-readable summary line: total plus per-bucket percentages.
    pub fn summary_line(&self) -> String {
        let mut s = format!(
            "{:<10} {:<14} {:>10.3} mJ |",
            self.workload, self.scheme, self.total_mj
        );
        for (label, v) in WasteBuckets::LABELS.iter().zip(self.buckets.as_array()) {
            let pct = if self.total_mj > 0.0 {
                100.0 * v / self.total_mj
            } else {
                0.0
            };
            s.push_str(&format!(" {label} {pct:5.1}%"));
        }
        s
    }

    fn to_json(&self) -> String {
        let per_chip: Vec<String> = self.per_chip.iter().map(|b| b.to_json()).collect();
        let mut obj = JsonObject::new();
        obj.field_str("workload", &self.workload)
            .field_str("scheme", &self.scheme)
            .field_f64("total_mj", self.total_mj)
            .field_raw("buckets", &self.buckets.to_json())
            .field_raw("per_chip", &format!("[{}]", per_chip.join(",")));
        obj.finish()
    }
}

/// Renders a set of runs as the attribution-report JSON consumed by
/// `bench`'s `baseline_diff` gate:
/// `{"runs":[{"workload","scheme","total_mj","buckets","per_chip"},...]}`.
pub fn attribution_json(runs: &[RunAttribution]) -> String {
    let body: Vec<String> = runs.iter().map(|r| r.to_json()).collect();
    format!("{{\"runs\":[\n{}\n]}}\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::TRACE_KEYS;
    use simcore::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    fn breakdown() -> EnergyBreakdown {
        let mut e = EnergyBreakdown::new();
        e.accrue(
            EnergyCategory::ActiveServing,
            300.0,
            SimDuration::from_us(10),
        );
        e.accrue(
            EnergyCategory::ActiveIdleDma,
            300.0,
            SimDuration::from_us(20),
        );
        e.accrue(
            EnergyCategory::ActiveIdleThreshold,
            300.0,
            SimDuration::from_us(5),
        );
        e.accrue(EnergyCategory::Transition, 170.0, SimDuration::from_us(2));
        e.accrue(EnergyCategory::LowPower, 3.0, SimDuration::from_us(50));
        e.accrue(EnergyCategory::Migration, 300.0, SimDuration::from_us(1));
        e
    }

    #[test]
    fn emitted_names_are_registered() {
        for name in [
            SPAN_TRANSFER,
            SPAN_GATHER_DELAY,
            SPAN_WAKEUP,
            SPAN_LOCKSTEP,
            SPAN_ACTIVE_IDLE,
            SPAN_DRAIN,
            MARK_RELEASE,
            SPAN_SERVING,
            SPAN_IDLE_THRESHOLD,
            SPAN_TRANSITION,
            SPAN_LOW_POWER,
            COUNTER_POWER,
            COUNTER_SPILLED,
            COUNTER_DROPPED,
        ] {
            assert!(TRACE_KEYS.contains(&name), "unregistered trace key {name}");
        }
        assert_eq!(TRACE_KEYS.len(), 14);
    }

    fn started(at: SimTime, transfer: u64, bus: usize) -> SimEvent {
        SimEvent::TransferStart { at, transfer, bus }
    }

    fn issued(at: SimTime, transfer: u64, first: bool, last: bool, wake: bool) -> SimEvent {
        SimEvent::RequestIssued {
            at,
            transfer,
            is_first: first,
            is_last: last,
            wake_pending: wake,
        }
    }

    fn gathered(at: SimTime, transfer: u64) -> SimEvent {
        SimEvent::TaGather {
            at,
            chip: 0,
            pending: 1,
            transfer,
        }
    }

    fn serve_start(at: SimTime, transfer: u64) -> SimEvent {
        SimEvent::ServeStart { at, transfer }
    }

    fn served(at: SimTime, transfer: u64, is_last: bool) -> SimEvent {
        SimEvent::RequestServed {
            at,
            transfer,
            is_last,
            service: SimDuration::from_ns(3),
        }
    }

    fn activity(at: SimTime, chip: usize, activity: ChipActivity) -> SimEvent {
        SimEvent::Activity { at, chip, activity }
    }

    fn feed(tr: &mut Tracer, events: &[SimEvent]) {
        for ev in events {
            tr.on(ev);
        }
    }

    #[test]
    fn spill_armed_tracer_finalizes_to_ring_export() {
        let (sink, cell) = SpillSink::memory();
        let mut tr = Tracer::new(1 << 12, 1, 1, [300.0, 180.0, 30.0, 3.0], Some(sink));
        feed(
            &mut tr,
            &[
                started(t(1), 7, 0),
                issued(t(2), 7, true, true, true),
                serve_start(t(3), 7),
                served(t(4), 7, true),
            ],
        );
        let mut buf = tr.into_buffer(t(5));
        let ring_json = buf.to_chrome_json();
        assert_eq!(buf.spilled(), 0, "ample capacity: nothing spills early");
        buf.finalize_spill();
        let spilled = String::from_utf8(cell.lock().expect("spill buffer").clone()).unwrap();
        assert_eq!(spilled, ring_json);
    }

    #[test]
    fn lockstep_transfer_produces_balanced_tree() {
        let mut tr = Tracer::new(1 << 12, 1, 1, [300.0, 180.0, 30.0, 3.0], None);
        feed(
            &mut tr,
            &[
                started(t(1), 7, 0),
                issued(t(2), 7, true, false, true), // wake pending -> wakeup child
                serve_start(t(3), 7),               // wakeup ends, lockstep begins
                served(t(4), 7, false),             // caught up -> active_idle
                issued(t(5), 7, false, true, false),
                serve_start(t(5), 7),  // last issued -> drain
                served(t(6), 7, true), // root closes
            ],
        );
        let buf = tr.into_buffer(t(10));
        let stats = buf.validate().expect("trace must validate");
        // Root + wakeup + lockstep + active_idle + drain.
        assert_eq!(stats.spans, 5);
        assert_eq!(stats.open, 0);
        let json = buf.to_chrome_json();
        assert!(json.contains(SPAN_WAKEUP) && json.contains(SPAN_DRAIN));
        assert!(json.contains(SPAN_LOCKSTEP) && json.contains(SPAN_ACTIVE_IDLE));
    }

    #[test]
    fn gathered_transfer_gets_gather_and_release() {
        let mut tr = Tracer::new(1 << 12, 2, 1, [300.0, 180.0, 30.0, 3.0], None);
        feed(
            &mut tr,
            &[
                started(t(1), 1, 0),
                issued(t(1), 1, true, false, false), // gathering: no wake span yet
                gathered(t(1), 1),
                // Gather ends, release mark, wakeup begins.
                SimEvent::TransferRelease {
                    at: t(40),
                    transfer: 1,
                },
                serve_start(t(46), 1),
                issued(t(47), 1, false, true, false),
                served(t(48), 1, false),
                serve_start(t(48), 1),
                served(t(49), 1, true),
            ],
        );
        let buf = tr.into_buffer(t(50));
        buf.validate().expect("trace must validate");
        let json = buf.to_chrome_json();
        assert!(json.contains(SPAN_GATHER_DELAY));
        assert!(json.contains(MARK_RELEASE));
    }

    /// FNV-1a 64-bit digest of an export's bytes.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn transfers_finish_out_of_tid_order() {
        let mut tr = Tracer::new(1 << 12, 1, 2, [300.0, 180.0, 30.0, 3.0], None);
        let mut script = vec![
            // Transfer 3 is held in the DMA-TA gather queue...
            started(t(1), 3, 0),
            issued(t(1), 3, true, false, false),
            gathered(t(1), 3),
        ];
        // ...while transfers 4..=6 start and complete around it, the
        // later ones before the earlier.
        for tid in 4..=6 {
            script.push(started(t(2), tid, 1));
            script.push(issued(t(2), tid, true, true, true));
        }
        for (i, tid) in [6, 4, 5].into_iter().enumerate() {
            let at = t(3 + 2 * i as u64);
            script.push(serve_start(at, tid));
            script.push(served(at + SimDuration::from_us(1), tid, true));
        }
        script.extend([
            SimEvent::TransferRelease {
                at: t(20),
                transfer: 3,
            },
            serve_start(t(22), 3),
            issued(t(23), 3, false, true, false),
            served(t(23), 3, false),
            serve_start(t(23), 3),
            served(t(24), 3, true),
            // A late event for a finished transfer is ignored.
            served(t(25), 4, true),
        ]);
        feed(&mut tr, &script);
        let buf = tr.into_buffer(t(30));
        let stats = buf.validate().expect("trace must validate");
        // Transfer 3: root, gather, wakeup, lockstep, drain; 4..=6: root,
        // wakeup, drain each.
        assert_eq!((stats.spans, stats.open), (14, 0));
        let json = buf.to_chrome_json();
        assert_eq!(json.matches(SPAN_GATHER_DELAY).count(), 2);
        assert_eq!(
            fnv1a64(json.as_bytes()),
            0x7528_d34d_301d_48b3,
            "out-of-order export digest changed"
        );
    }

    #[test]
    fn chip_activity_spans_close_in_order() {
        let mut tr = Tracer::new(1 << 12, 1, 1, [300.0, 180.0, 30.0, 3.0], None);
        feed(
            &mut tr,
            &[
                activity(t(0), 0, ChipActivity::IdleOther),
                activity(t(2), 0, ChipActivity::Serving),
                activity(t(3), 0, ChipActivity::IdleDma),
                SimEvent::ModeTransition {
                    at: t(4),
                    chip: 0,
                    from: PowerMode::Active,
                    to: PowerMode::Nap,
                    latency: SimDuration::from_ns(225),
                },
                activity(t(4), 0, ChipActivity::Transitioning),
                activity(t(5), 0, ChipActivity::LowPower),
            ],
        );
        let buf = tr.into_buffer(t(6));
        let stats = buf.validate().expect("chip track must stay LIFO-valid");
        assert_eq!(stats.open, 0);
        let json = buf.to_chrome_json();
        assert!(json.contains(COUNTER_POWER) && json.contains(SPAN_LOW_POWER));
    }

    #[test]
    fn out_of_range_ids_are_ignored() {
        let mut tr = Tracer::new(1 << 12, 1, 1, [300.0, 180.0, 30.0, 3.0], None);
        feed(
            &mut tr,
            &[
                started(t(1), 1, 99),               // bad bus: dropped
                issued(t(2), 1, true, false, true), // unknown tid: dropped
                serve_start(t(3), 1),
                served(t(4), 1, true),
                activity(t(4), 42, ChipActivity::Serving),
            ],
        );
        let buf = tr.into_buffer(t(5));
        let stats = buf.validate().expect("empty trace is valid");
        assert_eq!(stats.spans, 0);
    }

    #[test]
    fn buckets_partition_the_ledger() {
        let e = breakdown();
        let b = WasteBuckets::from_breakdown(&e);
        let rel = (b.total_mj() - e.total_mj()).abs() / e.total_mj();
        assert!(rel <= 1e-9, "bucket checksum off by {rel}");
        assert!(b.active_idle_dma_mj > b.useful_active_mj);
        assert!(b.fraction(1) > 0.0 && b.fraction(1) < 1.0);
    }

    #[test]
    fn attribution_json_round_trips() {
        let e = breakdown();
        let run = RunAttribution {
            workload: "OLTP-St".into(),
            scheme: "baseline".into(),
            total_mj: e.total_mj(),
            buckets: WasteBuckets::from_breakdown(&e),
            per_chip: vec![WasteBuckets::from_breakdown(&e)],
        };
        assert!(run.checksum_rel_err() > 0.0 || run.checksum_rel_err() == 0.0);
        let json = attribution_json(std::slice::from_ref(&run));
        let v = simcore::obs::json::parse(&json).expect("report must parse");
        let runs = v
            .get("runs")
            .and_then(|r| r.as_array())
            .expect("runs array");
        assert_eq!(runs.len(), 1);
        let total = runs[0]
            .get("total_mj")
            .and_then(|t| t.as_f64())
            .expect("total");
        assert!((total - e.total_mj()).abs() < 1e-12);
        let buckets = runs[0].get("buckets").expect("buckets");
        let idle = buckets
            .get("active_idle_dma")
            .and_then(|x| x.as_f64())
            .expect("bucket field");
        assert!((idle - run.buckets.active_idle_dma_mj).abs() < 1e-12);
        assert!(run.summary_line().contains("active_idle_dma"));
    }
}
