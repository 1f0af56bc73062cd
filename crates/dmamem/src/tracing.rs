//! Transfer-level causal tracing and energy-waste attribution.
//!
//! The paper's core observation (Section 3, Figure 2) is *causal*: a DMA
//! transfer wakes a chip, then trickles requests at the I/O-bus rate, and
//! the chip burns active-idle energy in the gaps. Aggregate counters show
//! the waste exists; this module shows *where it comes from*, one
//! transfer at a time.
//!
//! [`Tracer`] turns the engine's hook stream into a
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
//! Export with [`TraceBuffer::to_chrome_json`] and load the file in
//! [Perfetto](https://ui.perfetto.dev) (or `chrome://tracing`).
//!
//! [`WasteBuckets`] and [`RunAttribution`] reduce a run's energy ledger
//! to the paper's waste taxonomy — useful active, active-idle during
//! DMA, threshold idle, wakeup, low-power — with the invariant that the
//! buckets sum to the run's total energy exactly (the mapping from
//! [`EnergyCategory`] is a partition, so the sum is the same floating
//! point additions the ledger itself performs).

use std::collections::BTreeMap;

use mempower::{EnergyBreakdown, EnergyCategory, PowerMode, TransitionEvent};
use simcore::obs::json::JsonObject;
use simcore::obs::trace::{SpanId, SpillSink, TraceBuffer, TrackId, TrackKind};
use simcore::SimTime;

use crate::metrics::SimResult;
use crate::timeline::ChipActivity;

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
/// Run metric: trace records streamed to the spill sink instead of being
/// dropped when the span ring overflowed (see
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

/// Builds the causal span trace from the engine's hook stream.
///
/// Created by [`crate::ServerSimulator::with_tracing`]; the engine calls
/// the hook methods through [`crate::obs::Obs`], and the finished
/// [`TraceBuffer`] lands in [`SimResult::trace`].
///
/// Timestamps are clamped monotonically: chip transition events are
/// drained in batches after the fact, so a late-drained event may carry
/// a stamp earlier than the latest hook already recorded. The clamp
/// keeps the buffer valid without perturbing order-sensitive spans
/// (hook calls themselves arrive in simulation order).
#[derive(Debug, Clone)]
pub struct Tracer {
    buf: TraceBuffer,
    chip_tracks: Vec<TrackId>,
    bus_tracks: Vec<TrackId>,
    chip_spans: Vec<Option<SpanId>>,
    mode_power_mw: [f64; 4],
    transfers: BTreeMap<u64, TransferTrace>,
    last: SimTime,
}

impl Tracer {
    /// A tracer with a `capacity`-record ring, one track per chip and per
    /// bus, and `mode_power_mw` giving the power draw of
    /// `[Active, Standby, Nap, Powerdown]` for the counter samples.
    pub fn new(capacity: usize, chips: usize, buses: usize, mode_power_mw: [f64; 4]) -> Self {
        let mut buf = TraceBuffer::new(capacity);
        let chip_tracks: Vec<TrackId> = (0..chips)
            .map(|i| buf.add_track(format!("chip {i}"), TrackKind::Chip))
            .collect();
        let bus_tracks = (0..buses)
            .map(|i| buf.add_track(format!("io bus {i}"), TrackKind::Bus))
            .collect();
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
            transfers: BTreeMap::new(),
            last: SimTime::ZERO,
        }
    }

    /// Arms bounded-memory spill mode: records displaced from the ring
    /// stream to `sink` instead of being dropped (open-span begins stay
    /// resident until their end). Must be called before the run starts;
    /// track registration has already happened in [`Tracer::new`], so the
    /// sink receives a complete Chrome JSON header.
    pub fn with_spill(mut self, sink: SpillSink) -> Self {
        self.buf.arm_spill(sink);
        self
    }

    fn at(&mut self, t: SimTime) -> SimTime {
        let t = t.max(self.last);
        self.last = t;
        t
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
    pub fn transfer_started(&mut self, tid: u64, bus: usize, now: SimTime) {
        let at = self.at(now);
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
    pub fn issued(
        &mut self,
        tid: u64,
        is_first: bool,
        is_last: bool,
        wake_pending: bool,
        now: SimTime,
    ) {
        let at = self.at(now);
        let Some(t) = self.transfers.get_mut(&tid) else {
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
    pub fn gathered(&mut self, tid: u64, now: SimTime) {
        let at = self.at(now);
        let Some(t) = self.transfers.get_mut(&tid) else {
            return;
        };
        if let Some(c) = t.child.take() {
            self.buf.end(c, at);
        }
        t.child = Some(self.buf.begin(t.track, SPAN_GATHER_DELAY, at, Some(t.root)));
        t.phase = Phase::Gather;
    }

    /// DMA-TA released the gather group containing transfer `tid`.
    pub fn released(&mut self, tid: u64, now: SimTime) {
        let at = self.at(now);
        let Some(t) = self.transfers.get_mut(&tid) else {
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
    pub fn serve_start(&mut self, tid: u64, now: SimTime) {
        let at = self.at(now);
        let Some(t) = self.transfers.get_mut(&tid) else {
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
    pub fn serve_done(&mut self, tid: u64, is_last: bool, now: SimTime) {
        let at = self.at(now);
        let Some(t) = self.transfers.get_mut(&tid) else {
            return;
        };
        t.served += 1;
        if is_last {
            let root = t.root;
            if let Some(c) = t.child.take() {
                self.buf.end(c, at);
            }
            self.buf.end(root, at);
            self.transfers.remove(&tid);
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

    /// Chip `chip` entered a new activity period (deduplicated upstream by
    /// [`crate::obs::Obs::note_activity`]).
    pub fn chip_activity(&mut self, chip: usize, now: SimTime, activity: ChipActivity) {
        let at = self.at(now);
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
    pub fn transition(&mut self, chip: usize, ev: &TransitionEvent) {
        let at = self.at(ev.at);
        let Some(&track) = self.chip_tracks.get(chip) else {
            return;
        };
        let value = self.mode_power(ev.to);
        self.buf.counter(track, COUNTER_POWER, at, value);
    }

    /// Closes every open span at `horizon` and returns the finished
    /// buffer.
    pub fn into_buffer(mut self, horizon: SimTime) -> TraceBuffer {
        let at = self.at(horizon);
        self.buf.finish(at);
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

    #[test]
    fn spill_armed_tracer_finalizes_to_ring_export() {
        let (sink, cell) = SpillSink::memory();
        let mut tr = Tracer::new(1 << 12, 1, 1, [300.0, 180.0, 30.0, 3.0]).with_spill(sink);
        tr.transfer_started(7, 0, t(1));
        tr.issued(7, true, true, true, t(2));
        tr.serve_start(7, t(3));
        tr.serve_done(7, true, t(4));
        let mut buf = tr.into_buffer(t(5));
        let ring_json = buf.to_chrome_json();
        assert_eq!(buf.spilled(), 0, "ample capacity: nothing spills early");
        buf.finalize_spill();
        let spilled = String::from_utf8(cell.lock().expect("spill buffer").clone()).unwrap();
        assert_eq!(spilled, ring_json);
    }

    #[test]
    fn lockstep_transfer_produces_balanced_tree() {
        let mut tr = Tracer::new(1 << 12, 1, 1, [300.0, 180.0, 30.0, 3.0]);
        tr.transfer_started(7, 0, t(1));
        tr.issued(7, true, false, true, t(2)); // wake pending -> wakeup child
        tr.serve_start(7, t(3)); // wakeup ends, lockstep begins
        tr.serve_done(7, false, t(4)); // caught up -> active_idle
        tr.issued(7, false, true, false, t(5));
        tr.serve_start(7, t(5)); // last issued -> drain
        tr.serve_done(7, true, t(6)); // root closes
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
        let mut tr = Tracer::new(1 << 12, 2, 1, [300.0, 180.0, 30.0, 3.0]);
        tr.transfer_started(1, 0, t(1));
        tr.issued(1, true, false, false, t(1)); // gathering: no wake span yet
        tr.gathered(1, t(1));
        tr.released(1, t(40)); // gather ends, release mark, wakeup begins
        tr.serve_start(1, t(46));
        tr.issued(1, false, true, false, t(47));
        tr.serve_done(1, false, t(48));
        tr.serve_start(1, t(48));
        tr.serve_done(1, true, t(49));
        let buf = tr.into_buffer(t(50));
        buf.validate().expect("trace must validate");
        let json = buf.to_chrome_json();
        assert!(json.contains(SPAN_GATHER_DELAY));
        assert!(json.contains(MARK_RELEASE));
    }

    #[test]
    fn chip_activity_spans_close_in_order() {
        let mut tr = Tracer::new(1 << 12, 1, 1, [300.0, 180.0, 30.0, 3.0]);
        tr.chip_activity(0, t(0), ChipActivity::IdleOther);
        tr.chip_activity(0, t(2), ChipActivity::Serving);
        tr.chip_activity(0, t(3), ChipActivity::IdleDma);
        tr.chip_activity(0, t(5), ChipActivity::LowPower);
        let ev = TransitionEvent {
            at: t(4),
            from: PowerMode::Active,
            to: PowerMode::Nap,
            latency: SimDuration::from_ns(225),
        };
        tr.transition(0, &ev); // late-drained: clamps to t(5)
        let buf = tr.into_buffer(t(6));
        let stats = buf.validate().expect("chip track must stay LIFO-valid");
        assert_eq!(stats.open, 0);
        let json = buf.to_chrome_json();
        assert!(json.contains(COUNTER_POWER) && json.contains(SPAN_LOW_POWER));
    }

    #[test]
    fn out_of_range_ids_are_ignored() {
        let mut tr = Tracer::new(1 << 12, 1, 1, [300.0, 180.0, 30.0, 3.0]);
        tr.transfer_started(1, 99, t(1)); // bad bus: dropped
        tr.issued(1, true, false, true, t(2)); // unknown tid: dropped
        tr.serve_start(1, t(3));
        tr.serve_done(1, true, t(4));
        tr.chip_activity(42, t(1), ChipActivity::Serving);
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
