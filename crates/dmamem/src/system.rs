//! The whole-system discrete-event simulator.
//!
//! [`ServerSimulator`] wires the substrate models together and drives them
//! from a single deterministic event loop:
//!
//! * trace events feed DMA transfers into [`iobus::Bus`]es and processor
//!   accesses straight to the controller;
//! * buses pace DMA-memory requests at slot granularity; a transfer's first
//!   request gates the stream until the controller acknowledges it (at
//!   service start);
//! * each [`mempower::Chip`] serves one request at a time, with processor
//!   accesses prioritized over DMA and migration traffic last;
//! * the low-level policy sleeps idle chips; DMA-TA intercepts first
//!   requests to sleeping chips and gathers them under the slack guarantee;
//!   PL recomputes the page layout every interval and executes migrations
//!   as chip-busy copy work.

use std::collections::VecDeque;
use std::sync::Arc;

use dma_trace::{Trace, TraceEvent};
use iobus::{Bus, BusId, DmaRequest, DmaTransfer, IssueOutcome, PageId, TransferId};
use mempower::policy::PowerPolicy;
use mempower::{Chip, ChipPhase, EnergyBreakdown, EnergyCategory, PowerMode};
use simcore::obs::{EventSink, LiveState, MetricsRegistry, SpillSink};
use simcore::prof::{EngineProfile, Phase, PhaseProfile};
use simcore::stats::DurationStats;
use simcore::{EventQueue, SimDuration, SimTime, Slab};

use crate::config::{Scheme, SystemConfig};
use crate::controller::pl::{plan_and_apply_observed, PopularityTracker};
use crate::controller::ta::{ReleaseRule, SlackAccount};
use crate::layout::PageMap;
use crate::metrics::SimResult;
use crate::obs::{DebitCause, Obs, ObsMetrics, ReleaseCause, RunObs, SlackSummary};
use crate::timeline::{ChipActivity, TimelineRecorder};
use crate::tracing::Tracer;

/// Simulates a data server running one [`Scheme`] over a trace.
///
/// See the crate-level example. Construction is cheap; [`run`] does the
/// work and can be called repeatedly with different traces.
///
/// [`run`]: ServerSimulator::run
#[derive(Debug, Clone)]
pub struct ServerSimulator {
    config: SystemConfig,
    scheme: Scheme,
    timeline_window: Option<(SimTime, SimTime)>,
    observability: Option<usize>,
    tracing: Option<usize>,
    trace_spill: Option<SpillSink>,
    live: Option<Arc<LiveState>>,
    classic: bool,
}

impl ServerSimulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SystemConfig::validate`]).
    pub fn new(config: SystemConfig, scheme: Scheme) -> Self {
        config.validate();
        ServerSimulator {
            config,
            scheme,
            timeline_window: None,
            observability: None,
            tracing: None,
            trace_spill: None,
            live: None,
            classic: false,
        }
    }

    /// Disables the virtual-time fast-forward, dispatching every
    /// periodic tick individually as the pre-calendar engine did.
    ///
    /// Simulated results are identical either way (the fast-forward only
    /// skips provably no-op ticks; `tests/fast_forward.rs` pins the
    /// conservation identity) — this knob exists as the test oracle for
    /// that claim and as an escape hatch while debugging event-order
    /// issues.
    pub fn with_classic_event_core(mut self) -> Self {
        self.classic = true;
        self
    }

    /// Enables full observability: metric collection, chip power-mode
    /// transition logging, and event tracing into a ring buffer of
    /// `event_capacity` events (oldest dropped first). The result's
    /// [`SimResult::obs`] then carries the metrics snapshot and the event
    /// stream; see [`crate::obs`] for the event schema and
    /// [`crate::obs::replay_slack`] for the guarantee audit trail.
    ///
    /// # Panics
    ///
    /// Panics if `event_capacity` is zero.
    pub fn with_observability(mut self, event_capacity: usize) -> Self {
        assert!(event_capacity > 0, "zero-capacity event sink");
        self.observability = Some(event_capacity);
        self
    }

    /// Records per-chip activity timelines inside `[start, end)`; the
    /// result's [`SimResult::timeline`] renders them as the paper's
    /// Figure 2(a)/3 diagrams. Keep the window short (microseconds to a few
    /// milliseconds) — every chip state change in it is stored.
    pub fn with_timeline(mut self, start: SimTime, end: SimTime) -> Self {
        assert!(start < end, "empty timeline window");
        self.timeline_window = Some((start, end));
        self
    }

    /// Enables transfer-level causal tracing into a span ring of
    /// `capacity` records (oldest dropped first). Every DMA transfer
    /// becomes a root span on its I/O-bus track with child spans for its
    /// gather delay, wakeup, lockstep service, active-idle gaps, and
    /// final drain; chips get activity-span tracks and a power counter.
    /// The result's [`SimResult::trace`] carries the buffer; export it
    /// with
    /// [`to_chrome_json`](simcore::obs::trace::TraceBuffer::to_chrome_json)
    /// and open the file in Perfetto. See [`crate::tracing`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity trace buffer");
        self.tracing = Some(capacity);
        self
    }

    /// Arms bounded-memory spill mode on the tracer: records displaced
    /// from the span ring stream to `sink` instead of being dropped, and
    /// `dmamem.trace.spilled` / `dmamem.trace.dropped` land in the
    /// metrics snapshot (when observability is on) so loss is never
    /// silent. Requires [`with_tracing`](ServerSimulator::with_tracing);
    /// ignored otherwise.
    pub fn with_trace_spill(mut self, sink: SpillSink) -> Self {
        self.trace_spill = Some(sink);
        self
    }

    /// Attaches shared live-telemetry state: the engine publishes a
    /// coarse sim-clock watermark into it while running (so a stuck run
    /// is distinguishable from a slow one on `/status`). Pure one-way
    /// telemetry — simulated results are byte-identical with or without
    /// it.
    pub fn with_live(mut self, live: Arc<LiveState>) -> Self {
        self.live = Some(live);
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The scheme under evaluation.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Runs the trace to completion and returns the measurements.
    ///
    /// Pages referenced by the trace must lie inside the configured working
    /// set (`page < config.pages`).
    ///
    /// # Panics
    ///
    /// Panics if the trace references an out-of-range page or bus.
    pub fn run(&self, trace: &Trace) -> SimResult {
        let mut engine = Engine::new(&self.config, &self.scheme);
        engine.classic = self.classic;
        engine.live = self.live.clone();
        if let Some((start, end)) = self.timeline_window {
            engine.obs.timeline = Some(TimelineRecorder::new(start, end, self.config.chips));
        }
        if let Some(capacity) = self.observability {
            let registry = MetricsRegistry::new();
            engine.obs.sink = Some(EventSink::new(capacity));
            engine.obs.metrics = Some(ObsMetrics::new(&registry));
            for c in &mut engine.chips {
                c.chip.enable_transition_log();
            }
        }
        if let Some(capacity) = self.tracing {
            let m = &self.config.power_model;
            let powers = [
                m.mode_power_mw(PowerMode::Active),
                m.mode_power_mw(PowerMode::Standby),
                m.mode_power_mw(PowerMode::Nap),
                m.mode_power_mw(PowerMode::Powerdown),
            ];
            let mut tracer =
                Tracer::new(capacity, self.config.chips, self.config.buses.len(), powers);
            if let Some(sink) = &self.trace_spill {
                tracer = tracer.with_spill(sink.clone());
            }
            engine.obs.tracer = Some(tracer);
            for c in &mut engine.chips {
                c.chip.enable_transition_log();
            }
        }
        engine.run(trace)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Consume trace events at the cursor.
    Trace,
    /// A bus may issue a request.
    BusTick { bus: BusId, gen: u64 },
    /// A chip finished its current service.
    ServiceDone { chip: usize },
    /// A chip finished a power-mode transition.
    TransitionDone { chip: usize },
    /// The low-level policy wants to sleep an idle chip.
    PolicyTimer { chip: usize, gen: u64 },
    /// End of a reserved-for-CPU idle gap (Section 4.1.3 alternative).
    CpuGapDone { chip: usize },
    /// DMA-TA epoch accounting tick.
    EpochTick,
    /// PL layout recomputation.
    PlInterval,
}

#[derive(Debug, Clone, Copy)]
enum Serving {
    Dma {
        req: DmaRequest,
        arrival: SimTime,
        /// Service duration computed at serve start, carried here so
        /// completion does not redo the bandwidth division.
        service: SimDuration,
    },
    Proc,
    Migration,
}

#[derive(Debug, Clone, Copy)]
struct ReadyDma {
    req: DmaRequest,
    arrival: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct PendingFirst {
    req: DmaRequest,
    arrival: SimTime,
}

/// Per-chip cold state: the chip model, its queues, and its policy.
///
/// The dispatch-hot scalars (current service, policy-timer generation,
/// idle bookkeeping) live in parallel struct-of-arrays vectors on
/// [`Engine`] — the inner loop touches those on every event, and packing
/// them densely keeps the hot working set to a few cache lines instead
/// of striding across whole `ChipCtl`s.
struct ChipCtl {
    chip: Chip,
    dma_ready: VecDeque<ReadyDma>,
    proc_ready: VecDeque<SimTime>,
    mig_ready: VecDeque<SimDuration>,
    pending: Vec<PendingFirst>,
    pending_per_bus: Vec<u32>,
    policy: Box<dyn PowerPolicy>,
}

impl ChipCtl {
    fn queues_empty(&self) -> bool {
        self.dma_ready.is_empty() && self.proc_ready.is_empty() && self.mig_ready.is_empty()
    }

    fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

/// Live-transfer bookkeeping record; lives in the engine's [`Slab`]
/// arena for the duration of the transfer.
struct Track {
    arrival: SimTime,
    chip: usize,
}

struct Engine<'a> {
    config: &'a SystemConfig,
    scheme: &'a Scheme,
    queue: EventQueue<Ev>,
    now: SimTime,
    chips: Vec<ChipCtl>,
    // Dispatch-hot per-chip state, struct-of-arrays (indexed like
    // `chips`; see the `ChipCtl` docs).
    serving: Vec<Option<Serving>>,
    timer_gen: Vec<u64>,
    planned_mode: Vec<Option<PowerMode>>,
    wake_requested: Vec<bool>,
    idle_start: Vec<SimTime>,
    /// Consecutive DMA services since the last CPU gap (cpu_reservation).
    dma_streak: Vec<u32>,
    buses: Vec<Bus>,
    bus_gen: Vec<u64>,
    page_map: PageMap,
    /// Live-transfer records in a free-list arena. A transfer's slot is
    /// stamped onto its [`DmaTransfer`] (and every [`DmaRequest`] the bus
    /// issues from it), so the hot per-request path resolves request →
    /// record with one stable index. Slots recycle as transfers finish:
    /// the arena stays sized to the *live* transfer count instead of
    /// growing with every transfer the run has ever started.
    tracks: Slab<Track>,
    next_tid: TransferId,
    // DMA-TA state.
    slack: Option<SlackAccount>,
    rule: Option<ReleaseRule>,
    ta_pending_total: usize,
    last_epoch_tick: SimTime,
    // PL state.
    tracker: Option<PopularityTracker>,
    // Progress accounting for termination.
    cursor: usize,
    active_transfers: usize,
    live_requests: usize,
    serving_count: usize,
    // Metrics.
    dma_requests: u64,
    transfers_done: u64,
    proc_done: u64,
    request_service: DurationStats,
    transfer_response: DurationStats,
    dma_serving: SimDuration,
    delayed_firsts: u64,
    page_moves: u64,
    proc_service: SimDuration,
    /// One-entry `(bytes, service_time(bytes))` memo for the hot DMA
    /// serve path (request sizes are uniform within a run).
    service_memo: (u64, SimDuration),
    // Exact service-time totals, kept alongside `request_service` so the
    // slack-ledger close carries integer data the replay can reproduce
    // `guarantee_met` from without float-accumulation drift.
    served: u64,
    service_sum_ps: u64,
    obs: Obs,
    // Engine self-profile: deterministic per-phase call counts.
    phases: PhaseProfile,
    /// Dispatch every periodic tick (no fast-forward); see
    /// [`ServerSimulator::with_classic_event_core`].
    classic: bool,
    /// No observability consumer is attached, so skipping a no-op tick
    /// cannot lose an event-stream record or metric increment. Cached at
    /// run start (consumers never attach mid-run).
    obs_quiet: bool,
    /// Live telemetry: the engine stores a coarse sim-clock watermark
    /// into it every 1024 dispatched events (a pure atomic store — see
    /// [`LiveState::watermark_ps`]). Never read back by the simulation.
    live: Option<Arc<LiveState>>,
}

impl<'a> Engine<'a> {
    fn new(config: &'a SystemConfig, scheme: &'a Scheme) -> Self {
        let chips = (0..config.chips)
            .map(|i| ChipCtl {
                chip: Chip::new(i, config.power_model.clone()),
                dma_ready: VecDeque::new(),
                proc_ready: VecDeque::new(),
                mig_ready: VecDeque::new(),
                pending: Vec::new(),
                pending_per_bus: vec![0; config.buses.len()],
                policy: config.policy.build(&config.power_model),
            })
            .collect();
        let buses = config
            .buses
            .iter()
            .enumerate()
            .map(|(i, b)| Bus::new(i, *b))
            .collect();
        let t_req = config.t_request();
        let (slack, rule) = match scheme.ta {
            Some(ta) => (
                Some(SlackAccount::new(ta.mu, t_req)),
                Some(ReleaseRule::new(
                    config.k_buses_to_saturate(),
                    config.buses.len(),
                    t_req,
                )),
            ),
            None => (None, None),
        };
        let tracker = scheme.pl.map(|_| PopularityTracker::new(config.pages));
        Engine {
            config,
            scheme,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            chips,
            serving: vec![None; config.chips],
            timer_gen: vec![0; config.chips],
            planned_mode: vec![None; config.chips],
            wake_requested: vec![false; config.chips],
            idle_start: vec![SimTime::ZERO; config.chips],
            dma_streak: vec![0; config.chips],
            buses,
            bus_gen: vec![0; config.buses.len()],
            page_map: PageMap::new_sequential(config),
            tracks: Slab::new(),
            next_tid: 1,
            slack,
            rule,
            ta_pending_total: 0,
            last_epoch_tick: SimTime::ZERO,
            tracker,
            cursor: 0,
            active_transfers: 0,
            live_requests: 0,
            serving_count: 0,
            dma_requests: 0,
            transfers_done: 0,
            proc_done: 0,
            request_service: DurationStats::new(),
            transfer_response: DurationStats::new(),
            dma_serving: SimDuration::ZERO,
            delayed_firsts: 0,
            page_moves: 0,
            proc_service: config.power_model.service_time(config.cache_line_bytes),
            service_memo: (
                config.cache_line_bytes,
                config.power_model.service_time(config.cache_line_bytes),
            ),
            served: 0,
            service_sum_ps: 0,
            obs: Obs::new(config.chips),
            phases: PhaseProfile::default(),
            classic: false,
            obs_quiet: true,
            live: None,
        }
    }

    /// Feeds the activity consumers (timeline recorder, event sink) the
    /// chip's current activity.
    fn tl_note(&mut self, chip: usize) {
        if !self.obs.wants_activity() {
            return;
        }
        let c = &self.chips[chip];
        let activity = match c.chip.phase() {
            ChipPhase::Steady(PowerMode::Active) => {
                if self.serving[chip].is_some() {
                    ChipActivity::Serving
                } else if c.chip.inflight_dma() > 0 {
                    ChipActivity::IdleDma
                } else {
                    ChipActivity::IdleOther
                }
            }
            ChipPhase::Steady(_) => ChipActivity::LowPower,
            _ => ChipActivity::Transitioning,
        };
        self.obs.note_activity(chip, self.now, activity);
    }

    /// Drains the chip's power-transition log into the event stream.
    fn note_transitions(&mut self, chip: usize) {
        if !self.obs.enabled() {
            return;
        }
        let events = self.chips[chip].chip.take_transition_events();
        if !events.is_empty() {
            self.obs.note_transitions(chip, events);
        }
    }

    fn run(mut self, trace: &Trace) -> SimResult {
        self.obs_quiet = !self.obs.enabled();
        let events = trace.events();
        if let Some(first) = events.first() {
            self.queue.schedule(first.time(), Ev::Trace);
        }
        // Chips boot active and idle: hand them to the policy immediately.
        for chip in 0..self.chips.len() {
            self.arm_policy(chip);
        }
        if let Some(ta) = self.scheme.ta {
            self.queue.schedule(SimTime::ZERO + ta.epoch, Ev::EpochTick);
        }
        if let Some(pl) = self.scheme.pl {
            // Cost-benefit gate (the paper's planned run-time check): the
            // waste PL can help reclaim is the inter-request idleness,
            // a fraction (1 - Rb/Rm) of each transfer's active time. Below
            // a memory/bus ratio of 2 that pool is under half the serving
            // energy and page migration cannot pay for itself — skip PL.
            let rm = self.config.power_model.bandwidth_bytes_per_sec();
            let rb = self.config.buses[0].bytes_per_sec;
            if rm / rb >= 2.0 {
                self.queue
                    .schedule(SimTime::ZERO + pl.interval, Ev::PlInterval);
            }
        }

        let mut watermark_tick: u64 = 0;
        while let Some((t, ev)) = self.queue.pop() {
            debug_assert!(t >= self.now, "event time went backwards");
            self.now = t;
            if let Some(live) = &self.live {
                watermark_tick += 1;
                if watermark_tick & 1023 == 0 {
                    live.watermark_ps(self.now.as_ps());
                }
            }
            if self.finished(events.len()) {
                break;
            }
            let phase = match ev {
                Ev::PolicyTimer { .. } | Ev::EpochTick | Ev::PlInterval => Phase::Policy,
                Ev::TransitionDone { .. } => Phase::Transition,
                _ => Phase::Dispatch,
            };
            self.phases.note(phase);
            match ev {
                Ev::Trace => self.on_trace(events),
                Ev::BusTick { bus, gen } => self.on_bus_tick(bus, gen),
                Ev::ServiceDone { chip } => self.on_service_done(chip),
                Ev::TransitionDone { chip } => self.on_transition_done(chip),
                Ev::PolicyTimer { chip, gen } => self.on_policy_timer(chip, gen),
                Ev::CpuGapDone { chip } => self.try_serve(chip),
                Ev::EpochTick => self.on_epoch_tick(events.len()),
                Ev::PlInterval => self.on_pl_interval(events.len()),
            }
        }
        // Stat collection is one call of its own phase: ledger close,
        // energy merge, snapshotting, and result assembly below.
        self.phases.note(Phase::Stats);
        let horizon = self.now.max(SimTime::ZERO + trace.duration());
        if let Some(live) = &self.live {
            live.watermark_ps(horizon.as_ps());
        }
        if let Some(rec) = &mut self.obs.timeline {
            rec.finish(horizon);
        }
        // Close the slack ledger so the audit trail is self-contained.
        let slack_summary = self.slack.as_ref().map(|s| {
            let (epoch, wake, proc, queue) = s.debits_ps();
            SlackSummary {
                credited: s.credited_requests(),
                debit_epoch_ps: epoch,
                debit_wake_ps: wake,
                debit_proc_ps: proc,
                debit_queue_ps: queue,
                final_ps: s.slack_ps(),
                min_ps: s.min_slack_ps(),
            }
        });
        if let Some(s) = &self.slack {
            let (credited, balance, min, mu) = (
                s.credited_requests(),
                s.slack_ps(),
                s.min_slack_ps(),
                s.mu(),
            );
            self.obs.slack_close(
                horizon,
                credited,
                balance,
                min,
                self.served,
                self.service_sum_ps,
                mu,
                self.config.t_request(),
            );
        } else {
            self.obs.flush_credits();
        }
        let mut energy = EnergyBreakdown::new();
        let mut per_chip_mj = Vec::with_capacity(self.chips.len());
        let mut per_chip_energy = Vec::with_capacity(self.chips.len());
        let mut per_chip_residency = Vec::with_capacity(self.chips.len());
        let mut wakes = 0;
        for chip in 0..self.chips.len() {
            self.note_transitions(chip);
        }
        for c in &mut self.chips {
            c.chip.sync(horizon);
            energy.merge(c.chip.energy());
            per_chip_mj.push(c.chip.energy().total_mj());
            per_chip_energy.push(c.chip.energy().clone());
            per_chip_residency.push(*c.chip.residency());
            wakes += c.chip.wakes();
        }
        let queue_stats = self.queue.stats();
        let profile = EngineProfile {
            // Dispatched events: every loop-phase call (the Stats phase is
            // the post-loop pass, not a dispatched event).
            events: self.phases.total_calls() - self.phases.get(Phase::Stats).calls,
            heap_pushes: queue_stats.pushes,
            heap_pops: queue_stats.pops,
            max_heap_depth: queue_stats.max_depth,
            transfers: self.next_tid - 1,
            requests: self.dma_requests,
            phases: self.phases,
        };
        self.obs.publish_prof(&profile);
        let trace = self.obs.tracer.take().map(|t| t.into_buffer(horizon));
        // Trace-ring loss accounting: spilled records reached the spill
        // sink, dropped records are gone. Published whenever both
        // consumers are attached so truncation is observable, not silent.
        if let (Some(m), Some(buf)) = (self.obs.metrics.as_ref(), trace.as_ref()) {
            m.registry
                .counter(crate::tracing::COUNTER_SPILLED)
                .add(buf.spilled());
            m.registry
                .counter(crate::tracing::COUNTER_DROPPED)
                .add(buf.dropped());
        }
        let obs_report = self.obs.sink.take().map(|events| RunObs {
            metrics: self
                .obs
                .metrics
                .as_ref()
                .map(|m| m.registry.snapshot())
                .unwrap_or_default(),
            events,
        });
        SimResult {
            scheme: self.scheme.label(),
            energy,
            per_chip_mj,
            per_chip_energy,
            per_chip_residency,
            horizon: horizon.elapsed_since(SimTime::ZERO),
            dma_requests: self.dma_requests,
            transfers: self.transfers_done,
            proc_accesses: self.proc_done,
            request_service: self.request_service,
            transfer_response: self.transfer_response,
            dma_serving: self.dma_serving,
            wakes,
            delayed_firsts: self.delayed_firsts,
            page_moves: self.page_moves,
            mu: self.scheme.ta.map_or(0.0, |t| t.mu),
            slack: slack_summary,
            obs: obs_report,
            timeline: self.obs.timeline.take(),
            trace,
            profile,
            sleep_floor_mw: self.config.chips as f64
                * self
                    .config
                    .power_model
                    .mode_power_mw(mempower::PowerMode::Powerdown),
        }
    }

    fn finished(&self, trace_len: usize) -> bool {
        self.cursor >= trace_len
            && self.active_transfers == 0
            && self.live_requests == 0
            && self.serving_count == 0
    }

    // ------------------------------------------------------------------
    // Trace feeding

    fn on_trace(&mut self, events: &[TraceEvent]) {
        while self.cursor < events.len() && events[self.cursor].time() <= self.now {
            let ev = events[self.cursor];
            self.cursor += 1;
            match ev {
                TraceEvent::Dma(d) => self.start_transfer(d.bus, d.page, d.bytes, d),
                TraceEvent::Proc(p) => self.on_proc_access(p.page),
            }
        }
        if self.cursor < events.len() {
            self.queue.schedule(events[self.cursor].time(), Ev::Trace);
        }
    }

    fn start_transfer(&mut self, bus: BusId, page: PageId, bytes: u64, d: dma_trace::DmaRecord) {
        assert!(
            (page as usize) < self.config.pages,
            "trace page {page} outside working set"
        );
        let bus = bus % self.buses.len();
        let tid = self.next_tid;
        self.next_tid += 1;
        let chip = self.page_map.chip_of(page);
        let slot = self.tracks.insert(Track {
            arrival: self.now,
            chip,
        });
        self.chips[chip].chip.dma_transfer_started(self.now);
        self.active_transfers += 1;
        self.obs.trace_transfer_started(tid, bus, self.now);
        self.tl_note(chip);
        if let Some(tracker) = &mut self.tracker {
            tracker.record(page);
        }
        let transfer =
            DmaTransfer::new(tid, bus, page, bytes, d.direction, d.source).with_slot(slot);
        self.buses[bus].add_transfer(self.now, transfer);
        self.schedule_bus_tick(bus);
    }

    fn on_proc_access(&mut self, page: PageId) {
        assert!(
            (page as usize) < self.config.pages,
            "trace page {page} outside working set"
        );
        let chip = self.page_map.chip_of(page);
        self.chips[chip].proc_ready.push_back(self.now);
        self.live_requests += 1;
        // Section 4.1.3: processor interference eats into the slack of the
        // chip's pending DMA requests.
        let pending = self.chips[chip].pending_count();
        if let Some(slack) = &mut self.slack {
            slack.debit_proc(self.proc_service, pending);
            if pending > 0 {
                let amount = self.proc_service.as_ps() as f64 * pending as f64;
                let balance = slack.slack_ps();
                self.obs
                    .slack_debit(self.now, DebitCause::Proc, amount, balance);
            }
        }
        // A processor access wakes the chip immediately (priority); pending
        // DMA requests ride along since the chip will be active anyway.
        if pending > 0 {
            self.release_chip(chip, ReleaseCause::ProcWake);
        } else {
            self.make_progress(chip);
        }
    }

    // ------------------------------------------------------------------
    // Bus handling

    fn schedule_bus_tick(&mut self, bus: BusId) {
        if let Some(t) = self.buses[bus].next_issue_time(self.now) {
            self.bus_gen[bus] += 1;
            self.queue.schedule(
                t,
                Ev::BusTick {
                    bus,
                    gen: self.bus_gen[bus],
                },
            );
        }
    }

    fn on_bus_tick(&mut self, bus: BusId, gen: u64) {
        if gen != self.bus_gen[bus] {
            return; // superseded
        }
        if let IssueOutcome::Issued(req) = self.buses[bus].issue(self.now) {
            self.on_dma_request(req);
        }
        self.schedule_bus_tick(bus);
    }

    fn on_dma_request(&mut self, req: DmaRequest) {
        self.dma_requests += 1;
        if let Some(slack) = &mut self.slack {
            let amount = slack.credit_request();
            let balance = slack.slack_ps();
            if self.obs.enabled() {
                self.obs.slack_credit(self.now, amount, balance);
            }
        }
        // simlint::allow(panic-path, "a request's slot is created at TransferStart and lives until the last completion; a vacant slot means the event queue itself is corrupt")
        let chip = self.tracks[req.slot].chip;
        let sleeping = matches!(
            self.chips[chip].chip.phase(),
            ChipPhase::Steady(m) if m.is_low_power()
        ) || matches!(self.chips[chip].chip.phase(), ChipPhase::GoingDown { .. });

        let gathering = req.is_first && self.scheme.ta.is_some() && sleeping;
        self.obs.trace_issued(
            req.transfer,
            req.is_first,
            req.is_last,
            sleeping && !gathering,
            self.now,
        );
        if gathering {
            // DMA-TA: buffer the first request; the stream stays blocked
            // until the ack at service start.
            let c = &mut self.chips[chip];
            c.pending.push(PendingFirst {
                req,
                arrival: self.now,
            });
            c.pending_per_bus[req.bus] += 1;
            self.live_requests += 1;
            self.ta_pending_total += 1;
            self.delayed_firsts += 1;
            let pending = self.chips[chip].pending_count();
            self.obs.ta_gather(self.now, chip, pending);
            self.obs.trace_gathered(req.transfer, self.now);
            self.check_release(chip);
        } else {
            self.enqueue_dma(chip, req);
        }
    }

    fn enqueue_dma(&mut self, chip: usize, req: DmaRequest) {
        self.chips[chip].dma_ready.push_back(ReadyDma {
            req,
            arrival: self.now,
        });
        self.live_requests += 1;
        self.make_progress(chip);
    }

    // ------------------------------------------------------------------
    // DMA-TA gather/release

    fn check_release(&mut self, chip: usize) {
        let (Some(slack), Some(rule)) = (&self.slack, &self.rule) else {
            return;
        };
        let c = &self.chips[chip];
        let Some(oldest) = c.pending.first() else {
            return;
        };
        // simlint::allow(panic-path, "release checks are only scheduled when the TA scheme is configured; scheme.ta is Some for the whole run")
        let max_delay = self.scheme.ta.expect("TA on").max_delay;
        if self.now.saturating_since(oldest.arrival) >= max_delay {
            self.release_chip(chip, ReleaseCause::MaxDelay);
        } else if rule.should_release(&c.pending_per_bus, slack.slack_ps()) {
            self.release_chip(chip, ReleaseCause::Rule);
        }
    }

    /// Moves a chip's gathered first requests into its ready queue and
    /// wakes it. Also used when a processor access forces the chip awake.
    fn release_chip(&mut self, chip: usize, cause: ReleaseCause) {
        let n = self.chips[chip].pending_count();
        if n > 0 {
            // Charge the activation latency against the guarantee.
            let wake_latency = match self.chips[chip].chip.phase() {
                ChipPhase::Steady(m) if m.is_low_power() => self.config.power_model.wake(m).latency,
                ChipPhase::GoingDown { to, .. } => self.config.power_model.wake(to).latency,
                _ => SimDuration::ZERO,
            };
            // Charge delay incurred since the last epoch boundary that
            // epoch accounting has not covered.
            let residual: f64 = self.chips[chip]
                .pending
                .iter()
                .map(|p| {
                    self.now
                        .saturating_since(p.arrival.max(self.last_epoch_tick))
                        .as_ps() as f64
                })
                .sum();
            if let Some(slack) = self.slack.as_mut() {
                slack.debit_wake(wake_latency, n);
                let wake_amount = wake_latency.as_ps() as f64 * n as f64;
                let after_wake = slack.slack_ps();
                slack.debit_residual(residual);
                let after_residual = slack.slack_ps();
                if wake_amount > 0.0 {
                    self.obs
                        .slack_debit(self.now, DebitCause::Wake, wake_amount, after_wake);
                }
                if residual > 0.0 {
                    self.obs
                        .slack_debit(self.now, DebitCause::Residual, residual, after_residual);
                }
            }
            self.obs.ta_release(self.now, chip, n, cause);
            for p in &self.chips[chip].pending {
                self.obs.trace_released(p.req.transfer, self.now);
            }
            let c = &mut self.chips[chip];
            for p in &c.pending_per_bus {
                debug_assert!(*p as usize <= n);
            }
            c.pending_per_bus.iter_mut().for_each(|p| *p = 0);
            self.ta_pending_total -= n;
            // Drain in place so the pending buffer keeps its capacity
            // across gather/release cycles instead of reallocating.
            let ChipCtl {
                pending, dma_ready, ..
            } = c;
            for p in pending.drain(..) {
                dma_ready.push_back(ReadyDma {
                    req: p.req,
                    arrival: p.arrival,
                });
            }
        }
        self.make_progress(chip);
    }

    // ------------------------------------------------------------------
    // Chip service and power management

    /// Drives a chip forward: wake it if it has work while sleeping, start
    /// the next service if it is free, or arm the policy timer if idle.
    fn make_progress(&mut self, chip: usize) {
        self.tl_note(chip);
        let has_work = !self.chips[chip].queues_empty();
        match self.chips[chip].chip.phase() {
            // Deliberately NOT collapsed into a match guard: a failed guard
            // would fall through to the wake arm below and wake an
            // already-active chip.
            #[allow(clippy::collapsible_match)]
            ChipPhase::Steady(PowerMode::Active) => {
                if self.serving[chip].is_none() {
                    self.try_serve(chip);
                }
            }
            ChipPhase::Steady(_) if has_work => {
                let done = self.chips[chip].chip.begin_wake(self.now);
                self.timer_gen[chip] += 1; // cancel any armed sleep
                self.queue.schedule(done, Ev::TransitionDone { chip });
                self.note_transitions(chip);
                self.tl_note(chip);
            }
            ChipPhase::GoingDown { .. } if has_work => {
                self.wake_requested[chip] = true;
            }
            _ => {}
        }
    }

    fn try_serve(&mut self, chip: usize) {
        if !self.chips[chip].chip.is_free(self.now) || self.serving[chip].is_some() {
            return;
        }
        let gap_due = self.cpu_gap_due(chip);
        let c = &mut self.chips[chip];
        // Priority: processor > DMA > migration (Section 4.1.3, first
        // solution; migration hides in otherwise-idle cycles).
        if let Some(_arrival) = c.proc_ready.pop_front() {
            c.chip
                .begin_service(self.now, self.proc_service, EnergyCategory::ActiveServing);
            self.serving[chip] = Some(Serving::Proc);
            self.dma_streak[chip] = 0;
        } else if gap_due {
            // Section 4.1.3 second solution: cap DMA utilization of the
            // active cycles, leaving a cache-line-sized service gap for
            // processor accesses. The chip stays active (the gap is billed
            // as DMA-idle time by the usual classification).
            self.dma_streak[chip] = 0;
            self.queue
                .schedule(self.now + self.proc_service, Ev::CpuGapDone { chip });
            return;
        } else if let Some(r) = c.dma_ready.pop_front() {
            let service = self.service_time_memo(r.req.bytes);
            let c = &mut self.chips[chip];
            c.chip
                .begin_service(self.now, service, EnergyCategory::ActiveServing);
            self.serving[chip] = Some(Serving::Dma {
                req: r.req,
                arrival: r.arrival,
                service,
            });
            self.dma_streak[chip] += 1;
            if r.req.is_first {
                self.buses[r.req.bus].ack_first(r.req.transfer, self.now);
                self.schedule_bus_tick(r.req.bus);
            }
            self.obs.trace_serve_start(r.req.transfer, self.now);
        } else if let Some(dur) = c.mig_ready.pop_front() {
            c.chip
                .begin_service(self.now, dur, EnergyCategory::Migration);
            self.serving[chip] = Some(Serving::Migration);
        } else {
            // Idle: hand the chip to the low-level policy.
            self.arm_policy(chip);
            return;
        }
        self.serving_count += 1;
        let done = self.chips[chip].chip.busy_until();
        self.queue.schedule(done, Ev::ServiceDone { chip });
        self.tl_note(chip);
    }

    /// [`mempower::PowerModel::service_time`] behind a one-entry memo:
    /// DMA request sizes are uniform within a run (bus slot granularity),
    /// so the float division folds to a single compare in the hot path.
    #[inline]
    fn service_time_memo(&mut self, bytes: u64) -> SimDuration {
        if self.service_memo.0 != bytes {
            self.service_memo = (bytes, self.config.power_model.service_time(bytes));
        }
        self.service_memo.1
    }

    /// True when the CPU-reservation alternative is enabled and this chip
    /// has served enough consecutive DMA requests that the reserved share
    /// of active cycles is due.
    fn cpu_gap_due(&self, chip: usize) -> bool {
        let Some(reservation) = self.scheme.ta.and_then(|ta| ta.cpu_reservation) else {
            return false;
        };
        if self.chips[chip].dma_ready.is_empty() {
            return false;
        }
        // With fraction x of cycles for DMA, allow ceil(x / (1 - x))
        // consecutive DMA services between gaps.
        let limit = (reservation / (1.0 - reservation)).ceil().max(1.0) as u32;
        self.dma_streak[chip] >= limit
    }

    fn on_service_done(&mut self, chip: usize) {
        let Some(serving) = self.serving[chip].take() else {
            return; // spurious (cleared elsewhere)
        };
        self.serving_count -= 1;
        self.live_requests -= 1;
        match serving {
            Serving::Dma {
                req,
                arrival,
                service,
            } => {
                if !req.is_first {
                    let delay = (self.now - arrival).saturating_sub(service).as_ps() as f64;
                    // Chip-level queueing (over-aligned streams) eats into
                    // the performance budget like any other added delay.
                    if let Some(slack) = &mut self.slack {
                        slack.debit_queue(delay);
                        let balance = slack.slack_ps();
                        if delay > 0.0 {
                            self.obs
                                .slack_debit(self.now, DebitCause::Queue, delay, balance);
                        }
                    }
                }
                self.request_service.record(self.now - arrival);
                self.served += 1;
                self.service_sum_ps += (self.now - arrival).as_ps();
                self.obs.request_served(self.now - arrival);
                self.dma_serving += service;
                self.obs
                    .trace_serve_done(req.transfer, req.is_last, self.now);
                if req.is_last {
                    // is_last fires exactly once per transfer, so the slot
                    // created at transfer start is still occupied.
                    let track = self.tracks.remove(req.slot);
                    self.chips[chip].chip.dma_transfer_ended(self.now);
                    self.active_transfers -= 1;
                    self.transfers_done += 1;
                    self.transfer_response.record(self.now - track.arrival);
                }
            }
            Serving::Proc => {
                self.proc_done += 1;
            }
            Serving::Migration => {}
        }
        self.tl_note(chip);
        self.try_serve(chip);
    }

    fn arm_policy(&mut self, chip: usize) {
        let c = &mut self.chips[chip];
        debug_assert!(c.queues_empty() && self.serving[chip].is_none());
        self.idle_start[chip] = self.now;
        self.timer_gen[chip] += 1;
        let mode = c.chip.mode().unwrap_or(PowerMode::Active);
        if let Some((target, when)) = c.policy.next_step(mode, self.now) {
            self.planned_mode[chip] = Some(target);
            let gen = self.timer_gen[chip];
            self.queue
                .schedule(when.max(self.now), Ev::PolicyTimer { chip, gen });
        }
    }

    fn on_policy_timer(&mut self, chip: usize, gen: u64) {
        if gen != self.timer_gen[chip] {
            return; // superseded — the common stale-timer case
        }
        let c = &mut self.chips[chip];
        let steady_idle = match c.chip.phase() {
            ChipPhase::Steady(PowerMode::Active) => c.chip.is_free(self.now),
            ChipPhase::Steady(_) => true,
            _ => false,
        };
        if !steady_idle || self.serving[chip].is_some() || !c.queues_empty() {
            return;
        }
        let Some(target) = self.planned_mode[chip].take() else {
            return;
        };
        let done = self.chips[chip].chip.begin_sleep(self.now, target);
        self.queue.schedule(done, Ev::TransitionDone { chip });
        self.note_transitions(chip);
        self.tl_note(chip);
    }

    fn on_transition_done(&mut self, chip: usize) {
        let was_waking = matches!(self.chips[chip].chip.phase(), ChipPhase::Waking { .. });
        self.chips[chip].chip.complete_transition(self.now);
        self.tl_note(chip);
        let c = &mut self.chips[chip];
        if was_waking {
            let idle = self.now.saturating_since(self.idle_start[chip]);
            c.policy.observe_idle_period(idle);
            self.wake_requested[chip] = false;
            self.try_serve(chip);
        } else {
            // Settled into a low-power mode.
            if self.wake_requested[chip] || !c.queues_empty() {
                self.wake_requested[chip] = false;
                let done = c.chip.begin_wake(self.now);
                self.queue.schedule(done, Ev::TransitionDone { chip });
                self.note_transitions(chip);
            } else {
                // Arm the next deeper step (thresholds measured from the
                // start of the idle period).
                // simlint::allow(panic-path, "TransitionDone leaves the chip settled in a steady mode; mode() is None only mid-transition")
                let mode = c.chip.mode().expect("steady after transition");
                let idle_start = self.idle_start[chip];
                if let Some((target, when)) = c.policy.next_step(mode, idle_start) {
                    self.planned_mode[chip] = Some(target);
                    self.timer_gen[chip] += 1;
                    let gen = self.timer_gen[chip];
                    self.queue
                        .schedule(when.max(self.now), Ev::PolicyTimer { chip, gen });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Periodic events

    fn on_epoch_tick(&mut self, trace_len: usize) {
        let Some(ta) = self.scheme.ta else { return };
        self.last_epoch_tick = self.now;
        if let Some(slack) = &mut self.slack {
            slack.debit_epoch(ta.epoch, self.ta_pending_total);
            let balance = slack.slack_ps();
            if self.ta_pending_total > 0 {
                let amount = ta.epoch.as_ps() as f64 * self.ta_pending_total as f64;
                self.obs
                    .slack_debit(self.now, DebitCause::Epoch, amount, balance);
            }
        }
        self.obs.epoch_tick(self.now, self.ta_pending_total);
        if self.ta_pending_total > 0 {
            for chip in 0..self.chips.len() {
                if self.chips[chip].pending_count() > 0 {
                    self.check_release(chip);
                }
            }
        }
        // Keep ticking while there is (or may still be) work.
        if !(self.cursor >= trace_len && self.active_transfers == 0 && self.ta_pending_total == 0) {
            let mut next = self.now + ta.epoch;
            // Virtual-time fast-forward: with no gathered requests and no
            // observability consumers, every tick strictly before the next
            // real event is a provable no-op — `debit_epoch(e, 0)` moves no
            // slack, there are no releases to check, and nothing records
            // the tick. Jump the tick straight to the last epoch boundary
            // at or before that event, counting the skipped boundaries so
            // the phase call counts (and the profile's `events`) stay
            // identical to a tick-by-tick engine. Pop order is preserved:
            // the jumped tick lands at the same `(time, allocation-order)`
            // position the final skipped-to tick would have had.
            if !self.classic && self.ta_pending_total == 0 && self.obs_quiet {
                if let Some((t, _)) = self.queue.peek_key() {
                    let gap_ps = t.saturating_since(self.now).as_ps();
                    let epoch_ps = ta.epoch.as_ps();
                    let k = gap_ps / epoch_ps;
                    if k > 1 {
                        self.phases.note_n(Phase::Policy, k - 1);
                        next = self.now + SimDuration::from_ps(k * epoch_ps);
                    }
                }
            }
            self.queue.schedule(next, Ev::EpochTick);
        }
    }

    fn on_pl_interval(&mut self, trace_len: usize) {
        let Some(pl) = self.scheme.pl else { return };
        let fpc = self.config.frames_per_chip();
        // Bandwidth floor: the hot group must be able to absorb `p` of the
        // aggregate I/O bandwidth, or concentration would oversubscribe it.
        let bus_bw: f64 = self.config.buses.iter().map(|b| b.bytes_per_sec).sum();
        let rm = self.config.power_model.bandwidth_bytes_per_sec();
        let min_hot = ((pl.p * bus_bw / rm).ceil() as usize).max(1);
        let (moves, stats) = {
            // simlint::allow(panic-path, "PL epochs are only scheduled when the PL scheme is configured, and the tracker is built alongside it")
            let tracker = self.tracker.as_ref().expect("PL tracker");
            plan_and_apply_observed(tracker, &mut self.page_map, &pl, fpc, min_hot)
        };
        self.page_moves += moves.len() as u64;
        self.obs
            .pl_plan(self.now, stats.hot_pages, stats.hot_chips, &moves);
        // Each move is a page copy: read on the source chip, write on the
        // destination. Both sides burn active cycles billed to the
        // Migration category and really occupy the chips. With small
        // migration_chunk_bytes (Section 4.2.2), the copy is split into
        // chunks that fit the chip's inter-request idle gaps, so it hides
        // inside cycles the chip was burning anyway.
        let chunk_bytes = pl.migration_chunk_bytes.min(self.config.page_bytes).max(1);
        let chunks = self.config.page_bytes.div_ceil(chunk_bytes);
        let chunk_time = self.config.power_model.service_time(chunk_bytes);
        for m in &moves {
            for chip in [m.from, m.to] {
                for _ in 0..chunks {
                    self.chips[chip].mig_ready.push_back(chunk_time);
                    self.live_requests += 1;
                }
                self.make_progress(chip);
            }
        }
        if let Some(tracker) = &mut self.tracker {
            tracker.age();
        }
        if !(self.cursor >= trace_len && self.active_transfers == 0) {
            self.queue.schedule(self.now + pl.interval, Ev::PlInterval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dma_trace::{DmaRecord, ProcRecord, TraceGen};
    use iobus::{DmaDirection, DmaSource};

    fn small_config() -> SystemConfig {
        SystemConfig::default()
    }

    fn dma_at(us: u64, bus: usize, page: u64) -> TraceEvent {
        TraceEvent::Dma(DmaRecord {
            time: SimTime::ZERO + SimDuration::from_us(us),
            bus,
            page,
            bytes: 8192,
            direction: DmaDirection::FromMemory,
            source: DmaSource::Network,
        })
    }

    fn proc_at(us: u64, page: u64) -> TraceEvent {
        TraceEvent::Proc(ProcRecord {
            time: SimTime::ZERO + SimDuration::from_us(us),
            page,
            bytes: 64,
        })
    }

    #[test]
    fn single_transfer_completes_with_one_third_uf() {
        // Figure 2(a): one 8-KB transfer over one PCI-X bus keeps the chip
        // at uf = 1/3.
        let sim = ServerSimulator::new(small_config(), Scheme::baseline());
        let trace = Trace::from_events(vec![dma_at(0, 0, 0)]);
        let r = sim.run(&trace);
        assert_eq!(r.transfers, 1);
        assert_eq!(r.dma_requests, 1024);
        let uf = r.utilization_factor();
        assert!((uf - 1.0 / 3.0).abs() < 0.02, "uf {uf}");
        // Transfer takes ~8192B / 1.064GB/s ~ 7.7 us.
        let resp = r.transfer_response.mean_ns() / 1000.0;
        assert!(resp > 7.0 && resp < 9.0, "response {resp} us");
    }

    #[test]
    fn aligned_transfers_raise_utilization() {
        // Three simultaneous transfers from three buses to the same chip
        // interleave: uf approaches 1.
        let sim = ServerSimulator::new(small_config(), Scheme::baseline());
        let trace = Trace::from_events(vec![dma_at(0, 0, 0), dma_at(0, 1, 1), dma_at(0, 2, 2)]);
        // Pages 0,1,2 are all on chip 0 under the sequential layout.
        let r = sim.run(&trace);
        assert_eq!(r.transfers, 3);
        let uf = r.utilization_factor();
        assert!(uf > 0.9, "uf {uf}");
    }

    #[test]
    fn skewed_transfers_waste_active_energy() {
        // The same three transfers arriving staggered overlap only
        // partially; uf sits between 1/3 and 1.
        let sim = ServerSimulator::new(small_config(), Scheme::baseline());
        let trace = Trace::from_events(vec![
            dma_at(0, 0, 0),
            dma_at(3, 1, 1), // 3 us into the ~7.7 us first transfer
            dma_at(6, 2, 2),
        ]);
        let r = sim.run(&trace);
        let uf = r.utilization_factor();
        assert!(uf > 0.4 && uf < 0.9, "uf {uf}");
    }

    #[test]
    fn dma_ta_gathers_and_aligns() {
        // Staggered transfers, but DMA-TA with ample slack gathers them.
        // Warm-up transfers to a far chip earn the slack; the chip under
        // test has gone to sleep by the time the staggered burst arrives.
        let config = small_config();
        let mut events: Vec<TraceEvent> = (0..8u64)
            .map(|i| dma_at(i * 10, (i % 3) as usize, 40_000))
            .collect();
        events.extend([dma_at(500, 0, 0), dma_at(503, 1, 1), dma_at(506, 2, 2)]);
        let trace = Trace::from_events(events);
        let baseline = ServerSimulator::new(config.clone(), Scheme::baseline()).run(&trace);
        let ta = ServerSimulator::new(config, Scheme::dma_ta(2.0)).run(&trace);
        assert!(ta.delayed_firsts > 0, "TA never delayed anything");
        assert!(
            ta.utilization_factor() > baseline.utilization_factor() + 0.05,
            "TA uf {} vs baseline {}",
            ta.utilization_factor(),
            baseline.utilization_factor()
        );
        assert!(ta.energy.total_mj() < baseline.energy.total_mj());
    }

    #[test]
    fn zero_mu_means_no_delays_beyond_baseline() {
        // With mu = 0 there is no slack; TA must release immediately and
        // match baseline service times closely.
        let config = small_config();
        let trace = Trace::from_events(vec![dma_at(500, 0, 0), dma_at(520, 1, 40000)]);
        let ta = ServerSimulator::new(config, Scheme::dma_ta(0.0)).run(&trace);
        assert_eq!(ta.transfers, 2);
        // Mean per-request service stays within the no-delay envelope:
        // service time (2.5 ns) plus at most a wake (6 us amortized over
        // 1024 requests ~ 6 ns).
        assert!(ta.request_service.mean_ns() < 15.0);
    }

    #[test]
    fn proc_accesses_have_priority_and_complete() {
        let sim = ServerSimulator::new(small_config(), Scheme::baseline());
        let mut events = vec![dma_at(0, 0, 0)];
        for i in 0..50 {
            events.push(proc_at(i / 10, 0));
        }
        let r = sim.run(&Trace::from_events(events));
        assert_eq!(r.proc_accesses, 50);
        assert_eq!(r.transfers, 1);
    }

    #[test]
    fn proc_access_wakes_sleeping_chip_and_releases_pending() {
        let config = small_config();
        // A transfer is gathered on a sleeping chip; a processor access to
        // the same chip forces release.
        let trace = Trace::from_events(vec![dma_at(500, 0, 0), proc_at(501, 1)]);
        let r = ServerSimulator::new(config, Scheme::dma_ta(50.0)).run(&trace);
        assert_eq!(r.transfers, 1);
        assert_eq!(r.proc_accesses, 1);
    }

    #[test]
    fn pl_moves_hot_pages_and_charges_migration() {
        let config = small_config();
        // Hammer pages living on a far chip so PL must move them.
        let hot_pages: Vec<u64> = (0..8).map(|i| 60_000 + i).collect();
        let mut events = Vec::new();
        for round in 0..40u64 {
            for (i, &p) in hot_pages.iter().enumerate() {
                events.push(dma_at(round * 400 + i as u64 * 40, i % 3, p));
            }
        }
        let scheme = Scheme::dma_ta_pl(1.0, 2);
        let r = ServerSimulator::new(config, scheme).run(&Trace::from_events(events));
        assert!(r.page_moves > 0, "PL never migrated");
        assert!(
            r.energy.energy_mj(EnergyCategory::Migration) > 0.0,
            "migration energy not charged"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let config = small_config();
        let trace = dma_trace::SyntheticStorageGen::default().generate(SimDuration::from_ms(1), 3);
        let a = ServerSimulator::new(config.clone(), Scheme::dma_ta(0.5)).run(&trace);
        let b = ServerSimulator::new(config, Scheme::dma_ta(0.5)).run(&trace);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.dma_requests, b.dma_requests);
        assert_eq!(a.transfers, b.transfers);
    }

    #[test]
    fn baseline_energy_breakdown_shape() {
        // Idle-DMA waste ~ 2x serving energy; threshold waste small
        // (Figure 2(b) shape).
        let trace = dma_trace::SyntheticStorageGen::default().generate(SimDuration::from_ms(5), 11);
        let r = ServerSimulator::new(small_config(), Scheme::baseline()).run(&trace);
        let serving = r.energy.energy_mj(EnergyCategory::ActiveServing);
        let idle_dma = r.energy.energy_mj(EnergyCategory::ActiveIdleDma);
        let threshold = r.energy.energy_mj(EnergyCategory::ActiveIdleThreshold);
        assert!(
            idle_dma > serving * 1.5,
            "idle {idle_dma} vs serving {serving}"
        );
        assert!(
            idle_dma < serving * 2.5,
            "idle {idle_dma} vs serving {serving}"
        );
        assert!(threshold < idle_dma * 0.3, "threshold {threshold}");
    }

    #[test]
    fn cpu_reservation_leaves_gaps_and_still_completes() {
        let config = small_config();
        let mut scheme = Scheme::dma_ta(0.5);
        scheme.ta.as_mut().unwrap().cpu_reservation = Some(0.75);
        let trace = Trace::from_events(vec![dma_at(0, 0, 0), dma_at(0, 1, 1), dma_at(0, 2, 2)]);
        let r = ServerSimulator::new(config.clone(), scheme).run(&trace);
        assert_eq!(r.transfers, 3);
        // The reservation caps DMA utilization below the unreserved run.
        let unreserved = ServerSimulator::new(config, Scheme::dma_ta(0.5)).run(&trace);
        assert!(
            r.utilization_factor() <= unreserved.utilization_factor() + 1e-9,
            "reserved {} vs unreserved {}",
            r.utilization_factor(),
            unreserved.utilization_factor()
        );
        assert!(r.transfer_response.mean_ns() >= unreserved.transfer_response.mean_ns());
    }

    #[test]
    fn chunked_migration_hides_in_idle_cycles() {
        // Section 4.2.2: with request-sized migration chunks, PL's copies
        // slot into the chip's inter-request idle gaps instead of blocking
        // requests for whole-page copy times.
        let config = small_config();
        let trace = dma_trace::SyntheticStorageGen::default().generate(SimDuration::from_ms(8), 31);
        let blunt = ServerSimulator::new(config.clone(), Scheme::dma_ta_pl(1.0, 2)).run(&trace);
        let mut hidden_scheme = Scheme::dma_ta_pl(1.0, 2);
        hidden_scheme.pl.as_mut().unwrap().migration_chunk_bytes = 8;
        let hidden = ServerSimulator::new(config, hidden_scheme).run(&trace);
        assert!(blunt.page_moves > 0 && hidden.page_moves > 0);
        // Requests no longer queue behind whole-page copies: the mean
        // DMA-memory request service time drops.
        assert!(
            hidden.request_service.mean_ns() < blunt.request_service.mean_ns(),
            "hidden {} vs blunt {}",
            hidden.request_service.mean_ns(),
            blunt.request_service.mean_ns()
        );
        // And total energy does not rise (the copies displace idle cycles).
        assert!(
            hidden.energy.total_mj() <= blunt.energy.total_mj() * 1.01,
            "hidden {} vs blunt {}",
            hidden.energy.total_mj(),
            blunt.energy.total_mj()
        );
    }

    #[test]
    fn timeline_records_figure2a_pattern() {
        let config = small_config();
        let window_end = SimTime::ZERO + SimDuration::from_ns(200);
        let r = ServerSimulator::new(config, Scheme::baseline())
            .with_timeline(SimTime::ZERO, window_end)
            .run(&Trace::from_events(vec![dma_at(0, 0, 0)]));
        let rec = r.timeline.expect("timeline requested");
        // Within the window the chip alternates serving / DMA-idle at
        // uf = 1/3 (Figure 2a).
        let uf = rec.windowed_uf();
        assert!((uf - 1.0 / 3.0).abs() < 0.05, "windowed uf {uf}");
        let art = rec.render_active(48);
        assert!(art.contains('#') && art.contains('~'), "art:\n{art}");
    }

    #[test]
    #[should_panic(expected = "outside working set")]
    fn out_of_range_page_panics() {
        let sim = ServerSimulator::new(small_config(), Scheme::baseline());
        let trace = Trace::from_events(vec![dma_at(0, 0, 1_000_000)]);
        let _ = sim.run(&trace);
    }
}
