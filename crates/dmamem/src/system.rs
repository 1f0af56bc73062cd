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

use dma_trace::{Cursor, Trace, TraceEvent};
use iobus::{Bus, BusDiscipline, BusId, DmaRequest, DmaTransfer, IssueOutcome, PageId, TransferId};
use mempower::policy::PowerPolicy;
use mempower::{Chip, ChipPhase, EnergyBreakdown, EnergyCategory, PowerMode};
use simcore::obs::{LiveState, MetricsRegistry, SpillSink};
use simcore::prof::{EngineProfile, Phase, PhaseProfile};
use simcore::stats::DurationStats;
use simcore::{EventQueue, SimDuration, SimTime, Slab};

use crate::config::{Scheme, SystemConfig};
use crate::controller::pl::{plan_and_apply_observed, PopularityTracker};
use crate::controller::ta::{ReleaseRule, SlackAccount, SlackOp};
use crate::layout::PageMap;
use crate::metrics::SimResult;
use crate::obs::{
    ChipActivity, DebitCause, EventLog, Obs, ObsMetrics, ReleaseCause, SimEvent, SlackSummary,
    SlackTotals,
};
use crate::tracing::Tracer;

mod batch;
mod lazy;

use batch::{Batcher, Tape};
use lazy::Lazy;

/// Queue-shape schema of [`ServerSimulator`]'s event loop, recorded in
/// engine baselines: the calendar wheel ([`simcore::QUEUE_KIND`]) with
/// steady request trains served from a side lane, so their bus ticks,
/// service completions and superseded policy timers never touch the
/// queue, and with events that commute with a train served inside its
/// window instead of closing it; and with the events of chips that no
/// transfer feeds, and the pending trace instant, held off the queue
/// (policy timers that can no longer act only counted). Queue-shape
/// counters (pushes, pops, max depth) are only comparable between reports
/// recorded under the same kind.
pub const ENGINE_QUEUE_KIND: &str = "calendar-wheel-v1+trains-v2+lazy-chips-v1";

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
    observability: Option<usize>,
    tracing: Option<(usize, Option<SpillSink>)>,
    live: Option<Arc<LiveState>>,
    classic: bool,
}

impl ServerSimulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the scheme is inconsistent (see
    /// [`SystemConfig::validate`] and [`Scheme::validate`]).
    pub fn new(config: SystemConfig, scheme: Scheme) -> Self {
        config.validate();
        scheme.validate();
        ServerSimulator {
            config,
            scheme,
            observability: None,
            tracing: None,
            live: None,
            classic: false,
        }
    }

    /// Disables the virtual-time fast-forward, the request-train window
    /// and its periodic batches, and the off-queue events of chips with no
    /// DMA work, dispatching every periodic tick individually and every
    /// event through the queue, as the pre-calendar engine did.
    ///
    /// Simulated results are identical either way (the fast-forward only
    /// skips provably no-op ticks, train windows run the same handlers
    /// in the same `(time, seq)` order up to reordering events that
    /// commute with the train, a batch adds a taped period's operands to
    /// each accumulator in their order, and events held off the queue run
    /// in the queue's own order, or, for policy timers that can no longer
    /// act, are only counted; `tests/fast_forward.rs` pins the
    /// conservation identity bit for bit) — this knob exists as the test
    /// oracle for that claim and as an escape hatch while debugging
    /// event-order issues. A traced run ([`with_tracing`]) records the
    /// same span records either way, byte for byte.
    ///
    /// [`with_tracing`]: ServerSimulator::with_tracing
    pub fn with_classic_event_core(mut self) -> Self {
        self.classic = true;
        self
    }

    /// Enables full observability: metric collection and event tracing
    /// into a ring buffer of `event_capacity` events (oldest dropped
    /// first). The result's [`SimResult::obs`] then carries the metrics
    /// snapshot and the event stream; see [`crate::obs`] for the event
    /// schema and [`crate::obs::replay_slack`] for the guarantee audit
    /// trail.
    ///
    /// # Panics
    ///
    /// Panics if `event_capacity` is zero.
    pub fn with_observability(mut self, event_capacity: usize) -> Self {
        assert!(event_capacity > 0, "zero-capacity event sink");
        self.observability = Some(event_capacity);
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
    /// With a `spill` sink the tracer runs in bounded-memory spill mode:
    /// records displaced from the span ring stream to the sink in record
    /// order instead of being dropped, and `dmamem.trace.spilled` /
    /// `dmamem.trace.dropped` land in the metrics snapshot (when
    /// observability is on) so loss is never silent.
    ///
    /// Tracing alone keeps the default engine's fast paths: steady
    /// request trains are booked a period at a time, and each booked
    /// period pushes the span records of the period taped through the
    /// handlers again, shifted in time and span ids, so the records are
    /// those of the classic core. Combined with
    /// [`with_observability`](ServerSimulator::with_observability), the
    /// run takes the queued path, like any observed run.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_tracing(mut self, capacity: usize, spill: Option<SpillSink>) -> Self {
        assert!(capacity > 0, "zero-capacity trace buffer");
        self.tracing = Some((capacity, spill));
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
        let mut engine = Engine::new(&self.config, &self.scheme, trace);
        engine.classic = self.classic;
        engine.live = self.live.clone();
        engine.obs_quiet = self.observability.is_none() && self.tracing.is_none();
        if let Some(capacity) = self.observability {
            engine.obs.log = Some(EventLog::new(capacity));
            engine.obs.metrics = Some(ObsMetrics::new(&MetricsRegistry::new()));
        }
        if let Some((capacity, spill)) = &self.tracing {
            let m = &self.config.power_model;
            let powers = [
                m.mode_power_mw(PowerMode::Active),
                m.mode_power_mw(PowerMode::Standby),
                m.mode_power_mw(PowerMode::Nap),
                m.mode_power_mw(PowerMode::Powerdown),
            ];
            engine.obs.tracer = Some(Tracer::new(
                *capacity,
                self.config.chips,
                self.config.buses.len(),
                powers,
                spill.clone(),
            ));
        }
        engine.run()
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
    /// DMA-TA epoch accounting tick.
    EpochTick,
    /// PL layout recomputation.
    PlInterval,
}

impl Ev {
    /// The chip whose handler this event runs, for per-chip events.
    fn chip(self) -> Option<usize> {
        match self {
            Ev::ServiceDone { chip }
            | Ev::TransitionDone { chip }
            | Ev::PolicyTimer { chip, .. } => Some(chip),
            _ => None,
        }
    }

    /// The profile phase a dispatch of this event is booked under.
    fn phase(self) -> Phase {
        match self {
            Ev::PolicyTimer { .. } | Ev::EpochTick | Ev::PlInterval => Phase::Policy,
            Ev::TransitionDone { .. } => Phase::Transition,
            _ => Phase::Dispatch,
        }
    }
}

/// An event of an open request-train window, keyed exactly as the queue
/// would have keyed it (see [`Engine::serve_train`]).
#[derive(Debug, Clone, Copy)]
struct LaneEntry {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

impl LaneEntry {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// The pending events of an open train window, in `(time, seq)` order.
///
/// Each event kind keeps its own sorted run. A kind's events are nearly
/// always created in time order (bus ticks a slot ahead, completions a
/// service time ahead, policy timers a threshold ahead), so a push is an
/// append and the minimum is the smallest of a few run heads; an
/// out-of-order event takes a sorted insert into its run.
#[derive(Debug)]
struct Lane {
    runs: [VecDeque<LaneEntry>; 4],
}

/// Entries reserved per lane run at engine construction. The deepest run
/// measured on the paper workloads holds about 100 policy timers, so the
/// hot loop never grows a run; reserving once per engine also keeps the
/// lane out of the run's allocation sequence, which measurably steadies
/// peak RSS (`database-sweep`).
const LANE_RUN_CAPACITY: usize = 512;

impl Lane {
    fn new() -> Self {
        Lane {
            runs: std::array::from_fn(|_| VecDeque::with_capacity(LANE_RUN_CAPACITY)),
        }
    }

    fn run_of(ev: Ev) -> usize {
        match ev {
            Ev::BusTick { .. } => 0,
            Ev::ServiceDone { .. } => 1,
            Ev::PolicyTimer { .. } => 2,
            _ => 3,
        }
    }

    fn is_empty(&self) -> bool {
        self.runs.iter().all(VecDeque::is_empty)
    }

    /// Adds an entry whose seq is larger than every pending one.
    fn push(&mut self, e: LaneEntry) {
        let run = &mut self.runs[Self::run_of(e.ev)];
        if run.back().is_none_or(|b| b.time <= e.time) {
            run.push_back(e);
        } else {
            let at = run.partition_point(|x| x.time <= e.time);
            run.insert(at, e);
        }
    }

    /// The smallest pending entry, with the index of the run holding it.
    fn peek(&self) -> Option<(usize, LaneEntry)> {
        let mut best: Option<(usize, LaneEntry)> = None;
        for (i, run) in self.runs.iter().enumerate() {
            if let Some(e) = run.front() {
                if best.is_none_or(|(_, b)| e.key() < b.key()) {
                    best = Some((i, *e));
                }
            }
        }
        best
    }

    /// Removes the head of `run` (as returned by [`Lane::peek`]).
    fn pop(&mut self, run: usize) {
        self.runs[run].pop_front();
    }

    /// Removes the entries whose event satisfies `which`, passing each to
    /// `to`.
    fn drain_where(&mut self, which: impl Fn(Ev) -> bool, mut to: impl FnMut(LaneEntry)) {
        for run in &mut self.runs {
            run.retain(|e| {
                let out = which(e.ev);
                if out {
                    to(*e);
                }
                !out
            });
        }
    }

    /// The pending entries in `(time, seq)` order, without removing them.
    fn in_order(&self) -> impl Iterator<Item = LaneEntry> + '_ {
        let mut at = [0usize; 4];
        std::iter::from_fn(move || {
            let mut best: Option<(usize, LaneEntry)> = None;
            for (i, run) in self.runs.iter().enumerate() {
                if let Some(e) = run.get(at[i]) {
                    if best.is_none_or(|(_, b)| e.key() < b.key()) {
                        best = Some((i, *e));
                    }
                }
            }
            let (i, e) = best?;
            at[i] += 1;
            Some(e)
        })
    }

    /// Moves every entry `by` later and rewrites its event with `ev`.
    /// Keeps every seq, so the `(time, seq)` order is unchanged.
    fn shift(&mut self, by: SimDuration, ev: impl Fn(Ev) -> Ev) {
        for e in self.runs.iter_mut().flatten() {
            e.time += by;
            e.ev = ev(e.ev);
        }
    }
}

/// What a train window does with its next event (see
/// [`Engine::window_step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// An event of the train itself: run it inline.
    Train,
    /// A queued event that commutes with the train: run it inline, out of
    /// the train's lane and tape.
    Commute,
    /// Close the window.
    Close,
}

/// Where the next event waits: the queue, [`Lazy`], the trace slot or
/// an open window's lane (with the run [`Lane::peek`] found it in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Queue,
    Lazy,
    Trace,
    Lane(usize),
}

/// Sim-time stride between live-telemetry watermark stores.
const WATERMARK_STRIDE_PS: u64 = 10_000_000;

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
    /// The trace, read forward as the clock reaches each record.
    trace: Cursor<'a>,
    // Progress accounting for termination.
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
    /// Largest hot-chip count any PL plan chose (0 before the first).
    max_hot_chips: usize,
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
    /// Dispatch every periodic tick and every event through the queue
    /// (no fast-forward, no train windows); see
    /// [`ServerSimulator::with_classic_event_core`].
    classic: bool,
    /// No observer is attached: the engine builds no [`SimEvent`], and
    /// skipping a no-op tick cannot lose an event-stream record or metric
    /// increment. The only observer guard; set before the run starts
    /// (observers never attach mid-run). The epoch fast-forward needs it;
    /// the train path needs it or a tracer-only run (see `trains`).
    obs_quiet: bool,
    /// Live telemetry: the engine stores a coarse sim-clock watermark
    /// into it whenever the clock has advanced [`WATERMARK_STRIDE_PS`]
    /// past the last store (a pure atomic store — see
    /// [`LiveState::watermark_ps`]). Never read back by the simulation.
    live: Option<Arc<LiveState>>,
    /// Serve steady request trains inline ([`Engine::serve_train`]) and
    /// book their batches ([`batch`]), and keep the events of chips with
    /// no DMA work and the trace instant off the queue ([`lazy`]): not
    /// the classic core, and no observer but the causal tracer. An event
    /// log or metrics registry reads the queued path's exact counts and
    /// every event of each booked period, so observed runs take the
    /// queued path. Set before the run schedules anything.
    trains: bool,
    /// `trains` with the causal tracer attached: batches end before the
    /// next event outside the lane, and replay the tracer's records of
    /// their reference period ([`batch`]).
    traced: bool,
    /// True while a train window is open: [`Engine::schedule`] then puts
    /// events in `lane` instead of the queue.
    lane_open: bool,
    /// The open window's pending events, under sequence numbers reserved
    /// from the queue. Empty whenever no window is open.
    lane: Lane,
    /// The data-path calls of the train period being taped (see
    /// [`batch`]).
    tape: Tape,
    /// Periodic train batching state.
    batch: Batcher,
    /// The pending events of chips with no DMA work, under sequence
    /// numbers reserved from the queue ([`lazy`]). Empty unless `trains`
    /// is set.
    lazy: Lazy,
    /// Events that ran, or were counted, off the queue: those of chips
    /// with no DMA work, and the trace instants.
    deferred_events: u64,
    /// Key of the pending [`Ev::Trace`] in runs with trains on, which
    /// keep it off the queue.
    trace_due: Option<(SimTime, u64)>,
    /// Key of the last event the run loop popped, and of the last event
    /// the run loop or a train window dispatched, in runs with trains on.
    popped: (SimTime, u64),
    dispatched: (SimTime, u64),
    /// The queue head's key, with the queue's push and pop count when it
    /// was read: handlers of chips with no DMA work never touch the
    /// queue, so runs of their events read it once.
    queue_head: (u64, Option<(SimTime, u64)>),
    /// Reused buffer for lane entries moving to `lazy`.
    moving: Vec<LaneEntry>,
}

impl<'a> Engine<'a> {
    fn new(config: &'a SystemConfig, scheme: &'a Scheme, trace: &'a Trace) -> Self {
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
            trace: trace.iter(),
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
            max_hot_chips: 0,
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
            trains: false,
            traced: false,
            lane_open: false,
            lane: Lane::new(),
            tape: Tape::new(),
            batch: Batcher::new(config.buses.len(), config.chips),
            lazy: Lazy::new(config.chips),
            deferred_events: 0,
            trace_due: None,
            popped: (SimTime::ZERO, 0),
            dispatched: (SimTime::ZERO, 0),
            queue_head: (0, None),
            moving: Vec::with_capacity(LANE_RUN_CAPACITY),
        }
    }

    /// Schedules `ev` at `time`: into the lane of the open train window,
    /// into [`Lazy`] if it is an event of a chip with no DMA work in a run
    /// with trains on, or else into the queue. Lane and [`Lazy`] entries
    /// take a sequence number reserved from the queue, so every event
    /// carries the key a direct schedule would give it.
    #[inline(always)]
    fn schedule(&mut self, time: SimTime, ev: Ev) {
        if self.lane_open {
            let seq = self.queue.alloc_seq();
            self.lane.push(LaneEntry { time, seq, ev });
        } else if !self.trains {
            self.queue.schedule(time, ev);
        } else if ev == Ev::Trace {
            debug_assert!(self.trace_due.is_none(), "two trace instants pending");
            self.trace_due = Some((time, self.queue.alloc_seq()));
        } else if ev.chip().is_some_and(|chip| self.dma_free(chip)) {
            let seq = self.queue.alloc_seq();
            self.defer(LaneEntry { time, seq, ev });
        } else {
            self.queue.schedule(time, ev);
        }
    }

    /// The key of the next event outside an open train lane, and where
    /// it waits: the queue, [`Lazy`] or the trace slot.
    #[inline]
    fn next_source(&mut self) -> Option<((SimTime, u64), Src)> {
        let stats = self.queue.stats();
        let ops = stats.pushes + stats.pops;
        if ops != self.queue_head.0 {
            self.queue_head = (ops, self.queue.peek_key());
        }
        let mut next = self.queue_head.1.map(|k| (k, Src::Queue));
        for (key, src) in [
            (self.lazy.peek_key(), Src::Lazy),
            (self.trace_due, Src::Trace),
        ] {
            if let Some(key) = key {
                if next.is_none_or(|(k, _)| key < k) {
                    next = Some((key, src));
                }
            }
        }
        next
    }

    /// Removes and returns the next event in `(time, seq)` order, from
    /// the queue, [`Lazy`] or the trace slot, and notes its key in
    /// `popped`. Only runs with trains on keep events off the queue; the
    /// others pop it alone and leave `popped` alone.
    #[inline]
    fn pop_next(&mut self) -> Option<(SimTime, Ev)> {
        if !self.trains {
            return self.queue.pop();
        }
        let (key, src) = self.next_source()?;
        self.popped = key;
        Some((key.0, self.take_from(src)?))
    }

    /// Removes the next event of `src` (not a lane) and returns it.
    #[inline]
    fn take_from(&mut self, src: Src) -> Option<Ev> {
        match src {
            Src::Queue => self.queue.pop().map(|(_, ev)| ev),
            Src::Lazy => {
                self.deferred_events += 1;
                self.lazy.pop().map(|e| e.ev)
            }
            Src::Trace => {
                self.deferred_events += 1;
                self.trace_due.take().map(|_| Ev::Trace)
            }
            Src::Lane(_) => None,
        }
    }

    /// The key of the next event in `(time, seq)` order outside an open
    /// train lane.
    fn next_key(&mut self) -> Option<(SimTime, u64)> {
        self.next_source().map(|(key, _)| key)
    }

    /// The next event outside the open train lane, with where it waits.
    fn outside_head(&mut self) -> Option<((SimTime, u64), Ev, Src)> {
        let (key, src) = self.next_source()?;
        let ev = match src {
            Src::Queue => *self.queue.peek_entry()?.2,
            Src::Lazy => self.lazy.peek()?.ev,
            Src::Trace => Ev::Trace,
            Src::Lane(_) => return None,
        };
        Some((key, ev, src))
    }

    /// Emits the chip's current activity (the observer hub drops
    /// repeats). Callers check `obs_quiet` first, so the quiet path pays
    /// one branch and no call.
    fn emit_activity(&mut self, chip: usize) {
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
        self.obs.emit(SimEvent::Activity {
            at: self.now,
            chip,
            activity,
        });
    }

    fn run(mut self) -> SimResult {
        self.trains = !self.classic && (self.obs_quiet || self.obs.tracer_only());
        self.traced = self.trains && !self.obs_quiet;
        if let Some(first) = self.trace.peek_time() {
            self.schedule(first, Ev::Trace);
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

        let mut watermark_due: u64 = 0;
        let mut stop = None;
        while let Some((t, ev)) = self.pop_next() {
            debug_assert!(t >= self.now, "event time went backwards");
            self.now = t;
            if let Some(live) = &self.live {
                if self.now.as_ps() >= watermark_due {
                    live.watermark_ps(self.now.as_ps());
                    watermark_due = self.now.as_ps() + WATERMARK_STRIDE_PS;
                }
            }
            if self.finished() {
                stop = Some(t);
                break;
            }
            self.dispatched = self.popped;
            self.tidy_spent(self.dispatched);
            self.phases.note(ev.phase());
            match ev {
                // A live tick of a train bus opens a train window.
                Ev::BusTick { bus, gen }
                    if self.trains && gen == self.bus_gen[bus] && self.train_bus(bus) =>
                {
                    self.serve_train(bus, gen);
                }
                ev => self.dispatch(ev, !self.classic),
            }
        }
        if let Some(t) = self.settle_spent(self.dispatched, stop) {
            self.now = t;
        }
        // Stat collection is one call of its own phase: ledger close,
        // energy merge, snapshotting, and result assembly below.
        self.phases.note(Phase::Stats);
        // Every record has been read by now, so the cursor's time is the
        // trace's last stamp.
        debug_assert!(self.trace.is_done(), "the run ended before its trace");
        let horizon = self.now.max(self.trace.time());
        if let Some(live) = &self.live {
            live.watermark_ps(horizon.as_ps());
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
        if let (Some(s), false) = (&self.slack, self.obs_quiet) {
            self.obs.emit(SimEvent::SlackClose {
                at: horizon,
                totals: Box::new(SlackTotals {
                    credited: s.credited_requests(),
                    balance_ps: s.slack_ps(),
                    min_ps: s.min_slack_ps(),
                    served: self.served,
                    service_sum_ps: self.service_sum_ps,
                    mu: s.mu(),
                    t_req_ps: self.config.t_request().as_ps(),
                }),
            });
        }
        let mut energy = EnergyBreakdown::new();
        let mut per_chip_mj = Vec::with_capacity(self.chips.len());
        let mut per_chip_energy = Vec::with_capacity(self.chips.len());
        let mut per_chip_residency = Vec::with_capacity(self.chips.len());
        let mut wakes = 0;
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
            batched_requests: self.batch.batched_requests,
            deferred_events: self.deferred_events,
            phases: self.phases,
        };
        let (obs, trace) = self.obs.finish(horizon, &profile);
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
            max_hot_chips: self.max_hot_chips,
            mu: self.scheme.ta.map_or(0.0, |t| t.mu),
            slack: slack_summary,
            obs,
            trace,
            profile,
            sleep_floor_mw: self.config.chips as f64
                * self
                    .config
                    .power_model
                    .mode_power_mw(mempower::PowerMode::Powerdown),
        }
    }

    /// Runs the handler of `ev` at the current clock. `jump` lets an
    /// epoch tick fast-forward over empty epochs (see
    /// [`on_epoch_tick`](Engine::on_epoch_tick)).
    fn dispatch(&mut self, ev: Ev, jump: bool) {
        match ev {
            Ev::Trace => self.on_trace(),
            Ev::BusTick { bus, gen } => self.on_bus_tick(bus, gen),
            Ev::ServiceDone { chip } => self.on_service_done(chip),
            Ev::TransitionDone { chip } => self.on_transition_done(chip),
            Ev::PolicyTimer { chip, gen } => self.on_policy_timer(chip, gen),
            Ev::EpochTick => self.on_epoch_tick(jump),
            Ev::PlInterval => self.on_pl_interval(),
        }
    }

    fn finished(&self) -> bool {
        self.trace.is_done()
            && self.active_transfers == 0
            && self.live_requests == 0
            && self.serving_count == 0
    }

    // ------------------------------------------------------------------
    // Trace feeding

    fn on_trace(&mut self) {
        while let Some(ev) = self.trace.next_due(self.now) {
            match ev {
                TraceEvent::Dma(d) => self.start_transfer(d.bus, d.page, d.bytes, d),
                TraceEvent::Proc(p) => self.on_proc_access(p.page),
            }
        }
        if let Some(next) = self.trace.peek_time() {
            self.schedule(next, Ev::Trace);
        }
    }

    fn start_transfer(&mut self, bus: BusId, page: PageId, bytes: u64, d: dma_trace::DmaRecord) {
        assert!(
            (page as usize) < self.config.pages,
            "trace page {page} outside working set"
        );
        assert!(bus < self.buses.len(), "trace bus {bus} out of range");
        let tid = self.next_tid;
        self.next_tid += 1;
        let chip = self.page_map.chip_of(page);
        let slot = self.tracks.insert(Track {
            arrival: self.now,
            chip,
        });
        self.chips[chip].chip.dma_transfer_started(self.now);
        if self.chips[chip].chip.inflight_dma() == 1 {
            // The chip has DMA work now: its events belong to the queue.
            self.hand_back_chip(chip);
        }
        self.active_transfers += 1;
        if !self.obs_quiet {
            self.obs.emit(SimEvent::TransferStart {
                at: self.now,
                transfer: tid,
                bus,
            });
            self.emit_activity(chip);
        }
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
            if pending > 0 && !self.obs_quiet {
                self.obs.emit(SimEvent::SlackDebit {
                    at: self.now,
                    cause: DebitCause::Proc,
                    amount_ps: self.proc_service.as_ps() as f64 * pending as f64,
                    balance_ps: slack.slack_ps(),
                });
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
            self.schedule(
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

    // ------------------------------------------------------------------
    // Request trains

    /// True when `bus` carries only steady trains: it paces per engine,
    /// it has a Ready stream, every Ready stream's next request is a
    /// middle one (first and last requests ack, remove tracks and end
    /// transfers, so they take the queued path), and each of those
    /// streams feeds a chip that is settled `Active` with no processor,
    /// migration, gathered or wake work that could interleave.
    fn train_bus(&self, bus: BusId) -> bool {
        let b = &self.buses[bus];
        if b.config().discipline != BusDiscipline::PerEngine {
            return false;
        }
        let mut any = false;
        for s in b.ready_streams() {
            if !s.next_is_middle() {
                return false;
            }
            let Some(track) = self.tracks.get(s.slot) else {
                return false;
            };
            let chip = track.chip;
            let c = &self.chips[chip];
            let steady = c.chip.is_active()
                && c.proc_ready.is_empty()
                && c.mig_ready.is_empty()
                && c.pending.is_empty()
                && !self.wake_requested[chip];
            if !steady {
                return false;
            }
            any = true;
        }
        any
    }

    /// True when `chip` has no DMA work: no transfer to it is in flight,
    /// so it has no gathered, queued or in-service DMA request either.
    fn dma_free(&self, chip: usize) -> bool {
        let c = &self.chips[chip];
        let free = c.chip.inflight_dma() == 0;
        debug_assert!(
            !free
                || (c.dma_ready.is_empty()
                    && c.pending.is_empty()
                    && !matches!(self.serving[chip], Some(Serving::Dma { .. }))),
            "chip {chip} holds DMA work without a transfer in flight"
        );
        free
    }

    /// True when trace record `e` would commute with a train window: a
    /// processor access to a chip with no DMA work (so `debit_proc` is
    /// charged for no pending request and moves no slack bit).
    fn record_commutes(&self, e: &TraceEvent) -> bool {
        match e {
            TraceEvent::Dma(_) => false,
            TraceEvent::Proc(p) => {
                (p.page as usize) < self.config.pages
                    && self.dma_free(self.page_map.chip_of(p.page))
            }
        }
    }

    /// True when queued `ev` commutes with an open train window: its
    /// handler touches only chips with no DMA work and integer counters,
    /// and schedules only events that commute too (DESIGN §14). These are
    /// superseded ticks, policy timers that are moot or belong to a chip
    /// with no DMA work, transition and service completions of such
    /// chips, an epoch tick with nothing gathered, and a trace instant of
    /// processor accesses to such chips.
    fn commutes(&self, ev: Ev) -> bool {
        match ev {
            Ev::PolicyTimer { chip, gen } => self.timer_moot(chip, gen) || self.dma_free(chip),
            Ev::BusTick { bus, gen } => gen != self.bus_gen[bus],
            Ev::ServiceDone { chip } | Ev::TransitionDone { chip } => self.dma_free(chip),
            Ev::EpochTick => self.ta_pending_total == 0,
            Ev::Trace => {
                let at = self.trace.peek_time();
                self.trace
                    .clone()
                    .take_while(|e| Some(e.time()) == at)
                    .all(|e| self.record_commutes(&e))
            }
            Ev::PlInterval => false,
        }
    }

    /// How a train window treats `ev`, the next event in global
    /// `(time, seq)` order; `queued` when it is the queue head rather than
    /// a lane entry.
    ///
    /// A queued event that commutes with the train runs as a commuting
    /// step. Otherwise the step is the train's own if it is a moot timer
    /// or a superseded tick (both no-ops), a live tick of a train bus, or
    /// a service completion. Anything else closes the window.
    fn window_step(&self, ev: Ev, queued: bool) -> Step {
        if queued && self.commutes(ev) {
            return Step::Commute;
        }
        match ev {
            Ev::PolicyTimer { chip, gen } if self.timer_moot(chip, gen) => Step::Train,
            Ev::BusTick { bus, gen } if gen != self.bus_gen[bus] || self.train_bus(bus) => {
                Step::Train
            }
            Ev::ServiceDone { .. } => Step::Train,
            _ => Step::Close,
        }
    }

    /// Serves steady request trains inline, starting with the popped live
    /// `BusTick` of `bus`.
    ///
    /// While the window is open, every event the train handlers schedule
    /// goes to a small local lane under a sequence number reserved from
    /// the queue, so it carries the exact `(time, seq)` key a queued
    /// schedule would have given it. Each step takes the smaller of the
    /// lane minimum and the next event outside it (the queue head, a
    /// chip slot of [`Lazy`] or the trace slot), and [`window_step`] says
    /// what to do with it. A train step runs the handler the main loop
    /// would call, at the same clock, with the same phase note. A
    /// commuting step does too, but everything it schedules goes outside
    /// the lane and it is no part of any taped period, so the lane and
    /// the tape stay the train's own. The first step that is neither closes the window, and
    /// the lane goes back to the queue under its reserved keys. Every
    /// handler thus runs in the same global order as on the queued path,
    /// except that commuting steps may trade places with train steps of
    /// equal time, which no result can tell apart; only the queue's push,
    /// pop and depth counts change.
    ///
    /// Each live tick of the opening bus is a slot-period boundary: once
    /// the window has run long enough, it tapes one period and, if the
    /// period left the train state as it found it, books the following
    /// periods in bulk ([`batch`]), up to the first event that does not
    /// commute with the train.
    ///
    /// [`window_step`]: Engine::window_step
    fn serve_train(&mut self, bus: BusId, gen: u64) {
        debug_assert!(self.lane.is_empty() && !self.lane_open);
        self.lane_open = true;
        self.batch.open(self.buses[bus].slot_period());
        self.on_bus_tick(bus, gen);
        let mut last: Option<(SimTime, u64)> = None;
        // Train steps schedule only into the lane, so the queue head and
        // the head of `lazy` change only when this loop pops them or hands
        // entries back.
        let mut head = self.outside_head();
        loop {
            let (key, ev, src) = match (head, self.lane.peek()) {
                (Some((hk, ev, src)), Some((_, l))) if hk < l.key() => (hk, ev, src),
                (Some((hk, ev, src)), None) => (hk, ev, src),
                (_, Some((run, l))) => (l.key(), l.ev, Src::Lane(run)),
                (None, None) => break,
            };
            let step = self.window_step(ev, !matches!(src, Src::Lane(_)));
            if step == Step::Close {
                break;
            }
            if ev
                == (Ev::BusTick {
                    bus,
                    gen: self.bus_gen[bus],
                })
                && self.period_boundary(key.0)
            {
                continue; // periods were booked: the lane moved on
            }
            debug_assert!(
                last.is_none_or(|l| key > l),
                "train window left (time, seq) order"
            );
            last = Some(key);
            self.dispatched = key;
            self.now = key.0;
            debug_assert!(!self.finished(), "train window outlived the run");
            self.phases.note(ev.phase());
            match src {
                Src::Lane(run) => {
                    self.lane.pop(run);
                    self.dispatch(ev, false);
                }
                src => {
                    self.take_from(src);
                    if step == Step::Commute {
                        self.commute(ev);
                    } else {
                        // A queued train event is no part of a train
                        // period. Events off the queue always commute.
                        debug_assert!(src == Src::Queue, "{ev:?} off the queue is a train step");
                        self.tape.taint();
                        self.dispatch(ev, false);
                    }
                    head = self.outside_head();
                }
            }
            // A completion that ended the chip's last transfer leaves it
            // without DMA work: its pending events move to `lazy`, where
            // they commute with the train.
            if let (Step::Train, Ev::ServiceDone { chip }) = (step, ev) {
                if self.dma_free(chip) {
                    let mut moving = std::mem::take(&mut self.moving);
                    self.lane
                        .drain_where(|ev| ev.chip() == Some(chip), |e| moving.push(e));
                    for e in moving.drain(..) {
                        self.defer(e);
                    }
                    self.moving = moving;
                    head = self.outside_head();
                }
            }
            debug_assert!(
                head == self.outside_head(),
                "queue changed under the window"
            );
        }
        self.lane_open = false;
        self.stop_taping();
        self.batch.close();
        let queue = &mut self.queue;
        self.lane
            .drain_where(|_| true, |e| queue.schedule_at_seq(e.time, e.seq, e.ev));
    }

    /// Runs `ev`, the next event outside the lane, as a commuting step of
    /// the open window: whatever it schedules goes outside the lane, the
    /// tape neither records nor taints, and its phase call is booked
    /// outside the period. Debug builds check that the step left the
    /// train untouched.
    fn commute(&mut self, ev: Ev) {
        let before = cfg!(debug_assertions).then(|| self.train_state());
        // Its span records would land among the taped period's.
        if self.traced {
            self.tape.taint();
        }
        let taping = std::mem::replace(&mut self.tape.on, false);
        self.tape.note_outside(ev.phase());
        self.lane_open = false;
        self.dispatch(ev, false);
        self.lane_open = true;
        self.tape.on = taping;
        if let Some(before) = before {
            debug_assert!(
                before == self.train_state(),
                "{ev:?} commutes with the train but touched it"
            );
        }
    }

    fn on_dma_request(&mut self, req: DmaRequest) {
        self.dma_requests += 1;
        if let Some(slack) = &mut self.slack {
            let amount_ps = slack.credit_request();
            self.tape.slack(SlackOp::Credit(amount_ps));
            if !self.obs_quiet {
                self.obs.emit(SimEvent::SlackCredit {
                    at: self.now,
                    requests: 1,
                    amount_ps,
                    balance_ps: slack.slack_ps(),
                });
            }
        }
        // simlint::allow(panic-path, "a request's slot is created at TransferStart and lives until the last completion; a vacant slot means the event queue itself is corrupt")
        let chip = self.tracks[req.slot].chip;
        let sleeping = matches!(
            self.chips[chip].chip.phase(),
            ChipPhase::Steady(m) if m.is_low_power()
        ) || matches!(self.chips[chip].chip.phase(), ChipPhase::GoingDown { .. });

        let gathering = req.is_first && self.scheme.ta.is_some() && sleeping;
        if !self.obs_quiet {
            self.obs.emit(SimEvent::RequestIssued {
                at: self.now,
                transfer: req.transfer,
                is_first: req.is_first,
                is_last: req.is_last,
                wake_pending: sleeping && !gathering,
            });
        }
        if gathering {
            // DMA-TA: buffer the first request; the stream stays blocked
            // until the ack at service start.
            self.tape.taint();
            let c = &mut self.chips[chip];
            c.pending.push(PendingFirst {
                req,
                arrival: self.now,
            });
            c.pending_per_bus[req.bus] += 1;
            self.live_requests += 1;
            self.ta_pending_total += 1;
            self.delayed_firsts += 1;
            if !self.obs_quiet {
                self.obs.emit(SimEvent::TaGather {
                    at: self.now,
                    chip,
                    pending: self.chips[chip].pending_count(),
                    transfer: req.transfer,
                });
            }
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
                if !self.obs_quiet {
                    for (cause, amount_ps, balance_ps) in [
                        (DebitCause::Wake, wake_amount, after_wake),
                        (DebitCause::Residual, residual, after_residual),
                    ] {
                        if amount_ps > 0.0 {
                            self.obs.emit(SimEvent::SlackDebit {
                                at: self.now,
                                cause,
                                amount_ps,
                                balance_ps,
                            });
                        }
                    }
                }
            }
            if !self.obs_quiet {
                self.obs.emit(SimEvent::TaRelease {
                    at: self.now,
                    chip,
                    released: n,
                    cause,
                });
                for p in &self.chips[chip].pending {
                    self.obs.emit(SimEvent::TransferRelease {
                        at: self.now,
                        transfer: p.req.transfer,
                    });
                }
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
        if !self.obs_quiet {
            self.emit_activity(chip);
        }
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
            ChipPhase::Steady(from) if has_work => {
                self.tape.taint();
                let done = self.chips[chip].chip.begin_wake(self.now);
                self.timer_gen[chip] += 1; // cancel any armed sleep
                self.schedule(done, Ev::TransitionDone { chip });
                if !self.obs_quiet {
                    self.obs.emit(SimEvent::ModeTransition {
                        at: self.now,
                        chip,
                        from,
                        to: PowerMode::Active,
                        latency: done - self.now,
                    });
                    self.emit_activity(chip);
                }
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
        let c = &mut self.chips[chip];
        // Priority: processor > DMA > migration (Section 4.1.3, first
        // solution; migration hides in otherwise-idle cycles).
        if let Some(_arrival) = c.proc_ready.pop_front() {
            self.tape.taint();
            c.chip
                .begin_service(self.now, self.proc_service, EnergyCategory::ActiveServing);
            self.serving[chip] = Some(Serving::Proc);
        } else if let Some(r) = c.dma_ready.pop_front() {
            let service = self.service_time_memo(r.req.bytes);
            let (c, tape) = (&mut self.chips[chip], &mut self.tape);
            if tape.taping() {
                c.chip.sync_noting(self.now, |a| tape.accrue(chip, a));
            }
            c.chip
                .begin_service(self.now, service, EnergyCategory::ActiveServing);
            tape.serve(chip, self.now, service);
            self.serving[chip] = Some(Serving::Dma {
                req: r.req,
                arrival: r.arrival,
                service,
            });
            if r.req.is_first {
                self.tape.taint();
                self.buses[r.req.bus].ack_first(r.req.transfer, self.now);
                self.schedule_bus_tick(r.req.bus);
            }
            if !self.obs_quiet {
                self.obs.emit(SimEvent::ServeStart {
                    at: self.now,
                    transfer: r.req.transfer,
                });
            }
        } else if let Some(dur) = c.mig_ready.pop_front() {
            self.tape.taint();
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
        self.schedule(done, Ev::ServiceDone { chip });
        if !self.obs_quiet {
            self.emit_activity(chip);
        }
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
                if req.is_first || req.is_last {
                    self.tape.taint();
                }
                if !req.is_first {
                    let delay = (self.now - arrival).saturating_sub(service).as_ps() as f64;
                    // Chip-level queueing (over-aligned streams) eats into
                    // the performance budget like any other added delay.
                    if let Some(slack) = &mut self.slack {
                        slack.debit_queue(delay);
                        self.tape.slack(SlackOp::DebitQueue(delay));
                        if delay > 0.0 && !self.obs_quiet {
                            self.obs.emit(SimEvent::SlackDebit {
                                at: self.now,
                                cause: DebitCause::Queue,
                                amount_ps: delay,
                                balance_ps: slack.slack_ps(),
                            });
                        }
                    }
                }
                self.request_service.record(self.now - arrival);
                self.tape.record(self.now - arrival);
                self.served += 1;
                self.service_sum_ps += (self.now - arrival).as_ps();
                self.dma_serving += service;
                if !self.obs_quiet {
                    self.obs.emit(SimEvent::RequestServed {
                        at: self.now,
                        transfer: req.transfer,
                        is_last: req.is_last,
                        service: self.now - arrival,
                    });
                }
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
                self.tape.taint();
                self.proc_done += 1;
            }
            Serving::Migration => self.tape.taint(),
        }
        if !self.obs_quiet {
            self.emit_activity(chip);
        }
        self.try_serve(chip);
    }

    fn arm_policy(&mut self, chip: usize) {
        let c = &mut self.chips[chip];
        debug_assert!(c.queues_empty() && self.serving[chip].is_none());
        self.idle_start[chip] = self.now;
        self.timer_gen[chip] += 1;
        let mode = c.chip.mode().unwrap_or(PowerMode::Active);
        let step = c.policy.next_step(mode, self.now);
        self.tape.arm((chip, mode, self.now, step));
        if let Some((target, when)) = step {
            self.planned_mode[chip] = Some(target);
            let gen = self.timer_gen[chip];
            self.schedule(when.max(self.now), Ev::PolicyTimer { chip, gen });
        }
    }

    /// True when a policy timer of `chip` with generation `gen` returns
    /// without acting, whenever it fires: it was superseded (the common
    /// stale-timer case), or the chip has work.
    fn timer_moot(&self, chip: usize, gen: u64) -> bool {
        gen != self.timer_gen[chip]
            || self.serving[chip].is_some()
            || !self.chips[chip].queues_empty()
    }

    fn on_policy_timer(&mut self, chip: usize, gen: u64) {
        if self.timer_moot(chip, gen) {
            return;
        }
        let c = &mut self.chips[chip];
        let from = match c.chip.phase() {
            ChipPhase::Steady(PowerMode::Active) if !c.chip.is_free(self.now) => return,
            ChipPhase::Steady(mode) => mode,
            _ => return,
        };
        let Some(target) = self.planned_mode[chip].take() else {
            return;
        };
        let done = self.chips[chip].chip.begin_sleep(self.now, target);
        self.schedule(done, Ev::TransitionDone { chip });
        if !self.obs_quiet {
            self.obs.emit(SimEvent::ModeTransition {
                at: self.now,
                chip,
                from,
                to: target,
                latency: done - self.now,
            });
            self.emit_activity(chip);
        }
    }

    fn on_transition_done(&mut self, chip: usize) {
        let was_waking = matches!(self.chips[chip].chip.phase(), ChipPhase::Waking { .. });
        self.chips[chip].chip.complete_transition(self.now);
        if !self.obs_quiet {
            self.emit_activity(chip);
        }
        let c = &mut self.chips[chip];
        if was_waking {
            let idle = self.now.saturating_since(self.idle_start[chip]);
            c.policy.observe_idle_period(idle);
            self.wake_requested[chip] = false;
            self.try_serve(chip);
        } else {
            // Settled into a low-power mode.
            // simlint::allow(panic-path, "TransitionDone leaves the chip settled in a steady mode; mode() is None only mid-transition")
            let mode = c.chip.mode().expect("steady after transition");
            if self.wake_requested[chip] || !c.queues_empty() {
                self.wake_requested[chip] = false;
                let done = c.chip.begin_wake(self.now);
                self.schedule(done, Ev::TransitionDone { chip });
                if !self.obs_quiet {
                    self.obs.emit(SimEvent::ModeTransition {
                        at: self.now,
                        chip,
                        from: mode,
                        to: PowerMode::Active,
                        latency: done - self.now,
                    });
                }
            } else {
                // Arm the next deeper step (thresholds measured from the
                // start of the idle period).
                let idle_start = self.idle_start[chip];
                if let Some((target, when)) = c.policy.next_step(mode, idle_start) {
                    self.planned_mode[chip] = Some(target);
                    self.timer_gen[chip] += 1;
                    let gen = self.timer_gen[chip];
                    self.schedule(when.max(self.now), Ev::PolicyTimer { chip, gen });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Periodic events

    fn on_epoch_tick(&mut self, jump: bool) {
        let Some(ta) = self.scheme.ta else { return };
        self.last_epoch_tick = self.now;
        if let Some(slack) = &mut self.slack {
            slack.debit_epoch(ta.epoch, self.ta_pending_total);
            if self.ta_pending_total > 0 && !self.obs_quiet {
                self.obs.emit(SimEvent::SlackDebit {
                    at: self.now,
                    cause: DebitCause::Epoch,
                    amount_ps: ta.epoch.as_ps() as f64 * self.ta_pending_total as f64,
                    balance_ps: slack.slack_ps(),
                });
            }
        }
        if !self.obs_quiet {
            self.obs.emit(SimEvent::EpochTick {
                at: self.now,
                pending: self.ta_pending_total,
            });
        }
        if self.ta_pending_total > 0 {
            for chip in 0..self.chips.len() {
                if self.chips[chip].pending_count() > 0 {
                    self.check_release(chip);
                }
            }
        }
        // Keep ticking while there is (or may still be) work.
        if !(self.trace.is_done() && self.active_transfers == 0 && self.ta_pending_total == 0) {
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
            // position the final skipped-to tick would have had. Inside a
            // train window (`jump` unset) the next real event is in the
            // lane, at most a slot away, so the queued path would not jump
            // either.
            if jump && self.ta_pending_total == 0 && self.obs_quiet {
                if let Some((t, _)) = self.next_key() {
                    let gap_ps = t.saturating_since(self.now).as_ps();
                    let epoch_ps = ta.epoch.as_ps();
                    let k = gap_ps / epoch_ps;
                    if k > 1 {
                        self.phases.note_n(Phase::Policy, k - 1);
                        next = self.now + SimDuration::from_ps(k * epoch_ps);
                    }
                }
            }
            self.schedule(next, Ev::EpochTick);
        }
    }

    fn on_pl_interval(&mut self) {
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
        self.max_hot_chips = self.max_hot_chips.max(stats.hot_chips);
        if !self.obs_quiet {
            self.obs.emit(SimEvent::PlPlan {
                at: self.now,
                hot_pages: stats.hot_pages,
                hot_chips: stats.hot_chips,
                moves: moves.len(),
            });
            for m in &moves {
                self.obs.emit(SimEvent::PageMove {
                    at: self.now,
                    page: m.page,
                    from: m.from,
                    to: m.to,
                });
            }
        }
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
        if !(self.trace.is_done() && self.active_transfers == 0) {
            self.schedule(self.now + pl.interval, Ev::PlInterval);
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
    fn live_watermark_ends_at_the_horizon_without_changing_results() {
        let trace = dma_trace::SyntheticStorageGen::default().generate(SimDuration::from_ms(1), 3);
        let live = Arc::new(LiveState::new());
        let sim = ServerSimulator::new(small_config(), Scheme::dma_ta(0.5));
        let watched = sim.clone().with_live(live.clone()).run(&trace);
        assert_eq!(live.sim_time_ps(), watched.horizon.as_ps());
        let plain = sim.run(&trace);
        assert_eq!(watched.energy, plain.energy);
        assert_eq!(watched.profile, plain.profile);
    }

    #[test]
    #[should_panic(expected = "outside working set")]
    fn out_of_range_page_panics() {
        let sim = ServerSimulator::new(small_config(), Scheme::baseline());
        let trace = Trace::from_events(vec![dma_at(0, 0, 1_000_000)]);
        let _ = sim.run(&trace);
    }

    #[test]
    #[should_panic(expected = "DMA-TA epoch must be positive")]
    fn zero_epoch_panics() {
        let mut scheme = Scheme::dma_ta(0.5);
        scheme.ta.as_mut().unwrap().epoch = SimDuration::ZERO;
        let _ = ServerSimulator::new(small_config(), scheme);
    }

    #[test]
    #[should_panic(expected = "PL interval must be positive")]
    fn zero_pl_interval_panics() {
        let mut scheme = Scheme::dma_ta_pl(0.5, 2);
        scheme.pl.as_mut().unwrap().interval = SimDuration::ZERO;
        let _ = ServerSimulator::new(small_config(), scheme);
    }

    #[test]
    #[should_panic(expected = "bus 3 out of range")]
    fn out_of_range_bus_panics() {
        // Three buses: bus 3 used to wrap silently onto bus 0.
        let sim = ServerSimulator::new(small_config(), Scheme::baseline());
        let trace = Trace::from_events(vec![dma_at(0, 3, 0)]);
        let _ = sim.run(&trace);
    }
}
