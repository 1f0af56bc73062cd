//! Simulator observability: typed events, metric handles, and the
//! slack-guarantee audit trail.
//!
//! Enable with [`crate::ServerSimulator::with_observability`]. The engine
//! then routes every notable decision through a single [`Obs`] hub:
//!
//! * **events** — a ring-buffered [`EventSink`] of [`SimEvent`]s (chip
//!   power-mode transitions, DMA-TA gather/release decisions, the complete
//!   slack ledger, PL page moves, epoch ticks, chip-activity changes),
//!   exportable as JSONL;
//! * **metrics** — counters/gauges/histograms in a
//!   [`MetricsRegistry`](simcore::obs::MetricsRegistry) under the
//!   `dmamem.*` namespace (see [`ObsMetrics`]);
//! * **timeline** — the existing [`TimelineRecorder`] now consumes the same
//!   activity stream instead of being fed separately.
//!
//! The slack ledger is *complete*: every credit and debit the
//! [`SlackAccount`](crate::controller::ta::SlackAccount) sees is mirrored
//! as a [`SimEvent::SlackCredit`]/[`SimEvent::SlackDebit`] (credits are
//! coalesced between debits to keep event volume proportional to
//! decisions, not requests), closed by one [`SimEvent::SlackClose`].
//! [`replay_slack`] re-derives the performance-guarantee verdict from the
//! ledger alone, independently of [`SimResult::guarantee_met`]
//! (see [`SlackReplay::guarantee_met`]).
//!
//! [`SimResult::guarantee_met`]: crate::SimResult::guarantee_met

use mempower::{PowerMode, TransitionEvent};
use simcore::obs::{EventSink, JsonObject, MetricsRegistry, MetricsSnapshot, ObsEvent};
use simcore::{SimDuration, SimTime};

use crate::timeline::{ChipActivity, TimelineRecorder};

/// Every metric key the engine registers, in registration order. This is
/// the source of truth for the `obs-key` simlint rule: any `dmamem.*`
/// string literal anywhere in the workspace must appear here, so a
/// typo'd key can never silently drop a stream from the slack audit
/// replay. The `metric_keys_match_registration` test pins this list to
/// what [`ObsMetrics::new`] actually registers.
pub const METRIC_KEYS: &[&str] = &[
    "dmamem.wakes",
    "dmamem.sleeps",
    "dmamem.ta.gathered",
    "dmamem.ta.release.rule",
    "dmamem.ta.release.max_delay",
    "dmamem.ta.release.proc_wake",
    "dmamem.slack.credits",
    "dmamem.slack.balance_ps",
    "dmamem.slack.debit_epoch_ps",
    "dmamem.slack.debit_wake_ps",
    "dmamem.slack.debit_proc_ps",
    "dmamem.slack.debit_queue_ps",
    "dmamem.slack.debit_residual_ps",
    "dmamem.pl.page_moves",
    "dmamem.epoch_ticks",
    "dmamem.request_service_ns",
    // Live sweep-progress counters. These are *not* registered by
    // `ObsMetrics::new` (they belong to the sweep driver, not a single
    // run): `SweepCtx` publishes them straight into the shared
    // `LiveState` snapshot served at `/metrics`. The
    // `metric_keys_match_registration` pin skips the `dmamem.sweep.`
    // prefix for exactly that reason.
    "dmamem.sweep.wave",
    "dmamem.sweep.jobs_done",
    "dmamem.sweep.jobs_total",
];

/// Every engine self-profiling metric key, in registration order — the
/// deterministic counters of [`simcore::EngineProfile`], published into
/// the metrics snapshot at end of run (see [`Obs::publish_prof`]).
/// The `prof_keys_match_publication` test pins this list to what
/// [`Obs::publish_prof`] actually writes; the simlint `obs-key` rule
/// checks `dmamem.prof.*` string literals against it.
pub const PROF_KEYS: &[&str] = &[
    "dmamem.prof.events",
    "dmamem.prof.heap_pushes",
    "dmamem.prof.heap_pops",
    "dmamem.prof.heap_depth_max",
    "dmamem.prof.transfers",
    "dmamem.prof.requests",
];

/// Every event `kind` tag a [`SimEvent`] can serialize as; the simlint
/// `obs-key` rule checks `"kind":"…"` literals (e.g. in JSONL
/// assertions) against this table. Pinned to [`ObsEvent::kind`] by the
/// `event_kinds_match_variants` test.
pub const EVENT_KINDS: &[&str] = &[
    "mode_transition",
    "chip_activity",
    "ta_gather",
    "ta_release",
    "slack_credit",
    "slack_debit",
    "slack_close",
    "page_move",
    "pl_plan",
    "epoch_tick",
];

/// Every span, instant-marker, and counter name the causal tracer can
/// emit (see [`crate::tracing::Tracer`]), under the `dmamem.trace.*`
/// namespace. The simlint `obs-key` rule checks `dmamem.trace.*` string
/// literals against this table, exactly as it checks plain `dmamem.*`
/// metric keys against [`METRIC_KEYS`]; the
/// `emitted_names_are_registered` test in [`crate::tracing`] pins the
/// list to the constants the tracer actually uses.
pub const TRACE_KEYS: &[&str] = &[
    "dmamem.trace.transfer",
    "dmamem.trace.gather_delay",
    "dmamem.trace.wakeup",
    "dmamem.trace.lockstep_active",
    "dmamem.trace.active_idle",
    "dmamem.trace.drain",
    "dmamem.trace.release",
    "dmamem.trace.serving",
    "dmamem.trace.idle_threshold",
    "dmamem.trace.transition",
    "dmamem.trace.low_power",
    "dmamem.trace.power_mw",
    // Spill-mode loss accounting (run metrics, not span names): see
    // `crate::tracing::COUNTER_SPILLED` / `COUNTER_DROPPED`.
    "dmamem.trace.spilled",
    "dmamem.trace.dropped",
];

/// Why a slack debit was charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DebitCause {
    /// Epoch accounting: pending requests assumed to wait the whole epoch.
    Epoch,
    /// Chip activation latency at release.
    Wake,
    /// Processor interference on a chip with pending requests.
    Proc,
    /// Chip-level queueing of non-first requests (over-alignment).
    Queue,
    /// Residual gather delay charged at release (intra-epoch remainder).
    Residual,
}

impl DebitCause {
    /// Stable snake_case tag used in events and metric names.
    pub fn as_str(self) -> &'static str {
        match self {
            DebitCause::Epoch => "epoch",
            DebitCause::Wake => "wake",
            DebitCause::Proc => "proc",
            DebitCause::Queue => "queue",
            DebitCause::Residual => "residual",
        }
    }

    /// The debit-size histogram key for this cause. Static (not built
    /// with `format!`) so every registered key is a literal the
    /// `obs-key` lint can check against [`METRIC_KEYS`].
    pub fn metric_key(self) -> &'static str {
        match self {
            DebitCause::Epoch => "dmamem.slack.debit_epoch_ps",
            DebitCause::Wake => "dmamem.slack.debit_wake_ps",
            DebitCause::Proc => "dmamem.slack.debit_proc_ps",
            DebitCause::Queue => "dmamem.slack.debit_queue_ps",
            DebitCause::Residual => "dmamem.slack.debit_residual_ps",
        }
    }
}

/// Why a chip's gathered first requests were released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseCause {
    /// The release rule fired (`n >= k` or projected delay >= slack).
    Rule,
    /// The per-request maximum gather delay expired.
    MaxDelay,
    /// A processor access forced the chip awake.
    ProcWake,
}

impl ReleaseCause {
    /// Stable snake_case tag used in events and metric names.
    pub fn as_str(self) -> &'static str {
        match self {
            ReleaseCause::Rule => "rule",
            ReleaseCause::MaxDelay => "max_delay",
            ReleaseCause::ProcWake => "proc_wake",
        }
    }
}

/// One observable simulation event.
///
/// Serialized (via [`ObsEvent`]) as one JSONL object per event with the
/// envelope fields `seq`, `t_ps`, `kind` followed by the variant's fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A chip started a power-mode transition (`kind: "mode_transition"`).
    ModeTransition {
        /// When the transition began.
        at: SimTime,
        /// Chip index.
        chip: usize,
        /// Mode being left.
        from: PowerMode,
        /// Mode being entered.
        to: PowerMode,
        /// Transition latency.
        latency: SimDuration,
    },
    /// A chip's activity classification changed (`kind: "chip_activity"`).
    Activity {
        /// When the activity changed.
        at: SimTime,
        /// Chip index.
        chip: usize,
        /// The new activity.
        activity: ChipActivity,
    },
    /// DMA-TA buffered a first request (`kind: "ta_gather"`).
    TaGather {
        /// When the request was gathered.
        at: SimTime,
        /// Target chip.
        chip: usize,
        /// Pending first requests on the chip after gathering.
        pending: usize,
    },
    /// DMA-TA released a chip's gathered requests (`kind: "ta_release"`).
    TaRelease {
        /// When the release happened.
        at: SimTime,
        /// Released chip.
        chip: usize,
        /// First requests released.
        released: usize,
        /// What triggered the release.
        cause: ReleaseCause,
    },
    /// Slack credits since the previous ledger entry, coalesced
    /// (`kind: "slack_credit"`).
    SlackCredit {
        /// Time of the *last* coalesced credit.
        at: SimTime,
        /// Requests credited.
        requests: u64,
        /// Total picoseconds credited.
        amount_ps: f64,
        /// Account balance after the credits.
        balance_ps: f64,
    },
    /// One slack debit (`kind: "slack_debit"`).
    SlackDebit {
        /// When the debit was charged.
        at: SimTime,
        /// Why it was charged.
        cause: DebitCause,
        /// Picoseconds debited.
        amount_ps: f64,
        /// Account balance after the debit.
        balance_ps: f64,
    },
    /// End-of-run ledger close (`kind: "slack_close"`).
    SlackClose {
        /// Simulation end time.
        at: SimTime,
        /// Total requests credited.
        credited: u64,
        /// Final balance.
        balance_ps: f64,
        /// Lowest balance observed.
        min_ps: f64,
        /// DMA-memory requests served.
        served: u64,
        /// Sum of per-request service times, in picoseconds.
        service_sum_ps: u64,
        /// The `mu` budget in force.
        mu: f64,
        /// Reference request time `T`, in picoseconds.
        t_req_ps: u64,
    },
    /// PL moved one page (`kind: "page_move"`).
    PageMove {
        /// When the move was planned.
        at: SimTime,
        /// The page.
        page: u64,
        /// Source chip.
        from: usize,
        /// Destination chip.
        to: usize,
    },
    /// One PL planning interval completed (`kind: "pl_plan"`).
    PlPlan {
        /// When the plan ran.
        at: SimTime,
        /// Pages in the hot set.
        hot_pages: usize,
        /// Chips assigned to hot groups.
        hot_chips: usize,
        /// Page moves planned.
        moves: usize,
    },
    /// DMA-TA epoch accounting tick (`kind: "epoch_tick"`).
    EpochTick {
        /// Tick time.
        at: SimTime,
        /// Total pending first requests across chips.
        pending: usize,
    },
}

impl ObsEvent for SimEvent {
    fn kind(&self) -> &'static str {
        match self {
            SimEvent::ModeTransition { .. } => "mode_transition",
            SimEvent::Activity { .. } => "chip_activity",
            SimEvent::TaGather { .. } => "ta_gather",
            SimEvent::TaRelease { .. } => "ta_release",
            SimEvent::SlackCredit { .. } => "slack_credit",
            SimEvent::SlackDebit { .. } => "slack_debit",
            SimEvent::SlackClose { .. } => "slack_close",
            SimEvent::PageMove { .. } => "page_move",
            SimEvent::PlPlan { .. } => "pl_plan",
            SimEvent::EpochTick { .. } => "epoch_tick",
        }
    }

    fn timestamp_ps(&self) -> u64 {
        match self {
            SimEvent::ModeTransition { at, .. }
            | SimEvent::Activity { at, .. }
            | SimEvent::TaGather { at, .. }
            | SimEvent::TaRelease { at, .. }
            | SimEvent::SlackCredit { at, .. }
            | SimEvent::SlackDebit { at, .. }
            | SimEvent::SlackClose { at, .. }
            | SimEvent::PageMove { at, .. }
            | SimEvent::PlPlan { at, .. }
            | SimEvent::EpochTick { at, .. } => at.as_ps(),
        }
    }

    fn write_fields(&self, obj: &mut JsonObject) {
        match *self {
            SimEvent::ModeTransition {
                chip,
                from,
                to,
                latency,
                ..
            } => {
                obj.field_u64("chip", chip as u64)
                    .field_str("from", mode_name(from))
                    .field_str("to", mode_name(to))
                    .field_u64("latency_ps", latency.as_ps());
            }
            SimEvent::Activity { chip, activity, .. } => {
                obj.field_u64("chip", chip as u64)
                    .field_str("activity", activity.name());
            }
            SimEvent::TaGather { chip, pending, .. } => {
                obj.field_u64("chip", chip as u64)
                    .field_u64("pending", pending as u64);
            }
            SimEvent::TaRelease {
                chip,
                released,
                cause,
                ..
            } => {
                obj.field_u64("chip", chip as u64)
                    .field_u64("released", released as u64)
                    .field_str("cause", cause.as_str());
            }
            SimEvent::SlackCredit {
                requests,
                amount_ps,
                balance_ps,
                ..
            } => {
                obj.field_u64("requests", requests)
                    .field_f64("amount_ps", amount_ps)
                    .field_f64("balance_ps", balance_ps);
            }
            SimEvent::SlackDebit {
                cause,
                amount_ps,
                balance_ps,
                ..
            } => {
                obj.field_str("cause", cause.as_str())
                    .field_f64("amount_ps", amount_ps)
                    .field_f64("balance_ps", balance_ps);
            }
            SimEvent::SlackClose {
                credited,
                balance_ps,
                min_ps,
                served,
                service_sum_ps,
                mu,
                t_req_ps,
                ..
            } => {
                obj.field_u64("credited", credited)
                    .field_f64("balance_ps", balance_ps)
                    .field_f64("min_ps", min_ps)
                    .field_u64("served", served)
                    .field_u64("service_sum_ps", service_sum_ps)
                    .field_f64("mu", mu)
                    .field_u64("t_req_ps", t_req_ps);
            }
            SimEvent::PageMove { page, from, to, .. } => {
                obj.field_u64("page", page)
                    .field_u64("from", from as u64)
                    .field_u64("to", to as u64);
            }
            SimEvent::PlPlan {
                hot_pages,
                hot_chips,
                moves,
                ..
            } => {
                obj.field_u64("hot_pages", hot_pages as u64)
                    .field_u64("hot_chips", hot_chips as u64)
                    .field_u64("moves", moves as u64);
            }
            SimEvent::EpochTick { pending, .. } => {
                obj.field_u64("pending", pending as u64);
            }
        }
    }
}

fn mode_name(m: PowerMode) -> &'static str {
    match m {
        PowerMode::Active => "active",
        PowerMode::Standby => "standby",
        PowerMode::Nap => "nap",
        PowerMode::Powerdown => "powerdown",
    }
}

/// Pre-resolved metric handles for the engine's hot paths (one registry
/// lookup at construction instead of one per emission).
#[derive(Debug, Clone)]
pub struct ObsMetrics {
    /// The registry every handle below belongs to.
    pub registry: MetricsRegistry,
    /// `dmamem.wakes` — chip wake transitions begun.
    pub wakes: simcore::obs::Counter,
    /// `dmamem.sleeps` — chip sleep transitions begun.
    pub sleeps: simcore::obs::Counter,
    /// `dmamem.ta.gathered` — first requests buffered by DMA-TA.
    pub ta_gathered: simcore::obs::Counter,
    /// `dmamem.ta.release.rule` / `.max_delay` / `.proc_wake`.
    pub releases: [simcore::obs::Counter; 3],
    /// `dmamem.slack.credits` — requests credited.
    pub slack_credits: simcore::obs::Counter,
    /// `dmamem.slack.balance_ps` — current account balance.
    pub slack_balance: simcore::obs::Gauge,
    /// `dmamem.slack.debit_<cause>_ps` — debit-size histograms, indexed by
    /// [`DebitCause`] declaration order.
    pub slack_debits: [simcore::obs::Histogram; 5],
    /// `dmamem.pl.page_moves` — PL page moves planned.
    pub page_moves: simcore::obs::Counter,
    /// `dmamem.epoch_ticks` — DMA-TA epoch ticks.
    pub epoch_ticks: simcore::obs::Counter,
    /// `dmamem.request_service_ns` — per-request service-time histogram.
    pub request_service_ns: simcore::obs::Histogram,
    /// `dmamem.prof.*` — engine self-profile counters, indexed in
    /// [`PROF_KEYS`] order (set once at end of run).
    pub prof: [simcore::obs::Counter; 6],
}

impl ObsMetrics {
    /// Registers (or reattaches to) the `dmamem.*` metrics in `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        let debit = |c: DebitCause| registry.histogram(c.metric_key());
        ObsMetrics {
            registry: registry.clone(),
            wakes: registry.counter("dmamem.wakes"),
            sleeps: registry.counter("dmamem.sleeps"),
            ta_gathered: registry.counter("dmamem.ta.gathered"),
            releases: [
                registry.counter("dmamem.ta.release.rule"),
                registry.counter("dmamem.ta.release.max_delay"),
                registry.counter("dmamem.ta.release.proc_wake"),
            ],
            slack_credits: registry.counter("dmamem.slack.credits"),
            slack_balance: registry.gauge("dmamem.slack.balance_ps"),
            slack_debits: [
                debit(DebitCause::Epoch),
                debit(DebitCause::Wake),
                debit(DebitCause::Proc),
                debit(DebitCause::Queue),
                debit(DebitCause::Residual),
            ],
            page_moves: registry.counter("dmamem.pl.page_moves"),
            epoch_ticks: registry.counter("dmamem.epoch_ticks"),
            request_service_ns: registry.histogram("dmamem.request_service_ns"),
            prof: [
                registry.counter("dmamem.prof.events"),
                registry.counter("dmamem.prof.heap_pushes"),
                registry.counter("dmamem.prof.heap_pops"),
                registry.counter("dmamem.prof.heap_depth_max"),
                registry.counter("dmamem.prof.transfers"),
                registry.counter("dmamem.prof.requests"),
            ],
        }
    }

    fn release_counter(&self, cause: ReleaseCause) -> &simcore::obs::Counter {
        match cause {
            ReleaseCause::Rule => &self.releases[0],
            ReleaseCause::MaxDelay => &self.releases[1],
            ReleaseCause::ProcWake => &self.releases[2],
        }
    }

    fn debit_histogram(&self, cause: DebitCause) -> &simcore::obs::Histogram {
        match cause {
            DebitCause::Epoch => &self.slack_debits[0],
            DebitCause::Wake => &self.slack_debits[1],
            DebitCause::Proc => &self.slack_debits[2],
            DebitCause::Queue => &self.slack_debits[3],
            DebitCause::Residual => &self.slack_debits[4],
        }
    }
}

/// The engine-side observability hub: every consumer (event sink, metrics,
/// timeline recorder) hangs off this one struct, and the engine talks only
/// to it.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Event sink, when event tracing is enabled.
    pub sink: Option<EventSink<SimEvent>>,
    /// Timeline recorder, when a window was requested.
    pub timeline: Option<TimelineRecorder>,
    /// Metric handles, when metrics are enabled.
    pub metrics: Option<ObsMetrics>,
    /// Causal span tracer, when transfer-level tracing was requested
    /// (see [`crate::ServerSimulator::with_tracing`]).
    pub tracer: Option<crate::tracing::Tracer>,
    last_activity: Vec<Option<ChipActivity>>,
    pending_credit_reqs: u64,
    pending_credit_ps: f64,
    pending_credit_balance: f64,
    pending_credit_at: SimTime,
}

impl Obs {
    /// A hub with every consumer disabled, sized for `chips` chips.
    pub fn new(chips: usize) -> Self {
        Obs {
            last_activity: vec![None; chips],
            ..Obs::default()
        }
    }

    /// True when chip-activity changes have a consumer.
    pub fn wants_activity(&self) -> bool {
        self.timeline.is_some() || self.sink.is_some() || self.tracer.is_some()
    }

    /// True when any consumer is attached.
    pub fn enabled(&self) -> bool {
        self.wants_activity() || self.metrics.is_some()
    }

    /// Publishes the engine self-profile counters into the metrics
    /// registry (once, at end of run). Key order matches [`PROF_KEYS`].
    pub fn publish_prof(&self, profile: &simcore::EngineProfile) {
        let Some(m) = &self.metrics else { return };
        let values = [
            profile.events,
            profile.heap_pushes,
            profile.heap_pops,
            profile.max_heap_depth,
            profile.transfers,
            profile.requests,
        ];
        for (counter, v) in m.prof.iter().zip(values) {
            counter.add(v);
        }
    }

    /// Routes a chip-activity observation to the timeline and the event
    /// sink, deduplicating repeats per chip so the sink sees only changes
    /// (the recorder dedups internally, but flooding the ring would evict
    /// useful history).
    pub fn note_activity(&mut self, chip: usize, now: SimTime, activity: ChipActivity) {
        if self.last_activity[chip] == Some(activity) {
            return;
        }
        self.last_activity[chip] = Some(activity);
        if let Some(rec) = &mut self.timeline {
            rec.record(chip, now, activity);
        }
        if let Some(sink) = &mut self.sink {
            sink.record(SimEvent::Activity {
                at: now,
                chip,
                activity,
            });
        }
        if let Some(tr) = &mut self.tracer {
            tr.chip_activity(chip, now, activity);
        }
    }

    /// Records chip power-mode transitions drained from a
    /// [`mempower::Chip`] transition log.
    pub fn note_transitions(&mut self, chip: usize, events: Vec<TransitionEvent>) {
        for t in events {
            if let Some(m) = &self.metrics {
                if t.to == PowerMode::Active {
                    m.wakes.inc();
                } else {
                    m.sleeps.inc();
                }
            }
            if let Some(sink) = &mut self.sink {
                sink.record(SimEvent::ModeTransition {
                    at: t.at,
                    chip,
                    from: t.from,
                    to: t.to,
                    latency: t.latency,
                });
            }
            if let Some(tr) = &mut self.tracer {
                tr.transition(chip, &t);
            }
        }
    }

    /// Forwards a transfer arrival to the causal tracer, if attached.
    pub fn trace_transfer_started(&mut self, tid: u64, bus: usize, now: SimTime) {
        if let Some(tr) = &mut self.tracer {
            tr.transfer_started(tid, bus, now);
        }
    }

    /// Forwards a bus request delivery to the causal tracer, if attached.
    pub fn trace_issued(
        &mut self,
        tid: u64,
        is_first: bool,
        is_last: bool,
        wake_pending: bool,
        now: SimTime,
    ) {
        if let Some(tr) = &mut self.tracer {
            tr.issued(tid, is_first, is_last, wake_pending, now);
        }
    }

    /// Forwards a DMA-TA gather decision to the causal tracer, if attached.
    pub fn trace_gathered(&mut self, tid: u64, now: SimTime) {
        if let Some(tr) = &mut self.tracer {
            tr.gathered(tid, now);
        }
    }

    /// Forwards a DMA-TA release to the causal tracer, if attached.
    pub fn trace_released(&mut self, tid: u64, now: SimTime) {
        if let Some(tr) = &mut self.tracer {
            tr.released(tid, now);
        }
    }

    /// Forwards a service start to the causal tracer, if attached.
    pub fn trace_serve_start(&mut self, tid: u64, now: SimTime) {
        if let Some(tr) = &mut self.tracer {
            tr.serve_start(tid, now);
        }
    }

    /// Forwards a service completion to the causal tracer, if attached.
    pub fn trace_serve_done(&mut self, tid: u64, is_last: bool, now: SimTime) {
        if let Some(tr) = &mut self.tracer {
            tr.serve_done(tid, is_last, now);
        }
    }

    /// Accumulates one slack credit; the coalesced [`SimEvent::SlackCredit`]
    /// is flushed before the next debit (or at close).
    pub fn slack_credit(&mut self, now: SimTime, amount_ps: f64, balance_ps: f64) {
        if let Some(m) = &self.metrics {
            m.slack_credits.inc();
            m.slack_balance.set(balance_ps);
        }
        if self.sink.is_some() {
            self.pending_credit_reqs += 1;
            self.pending_credit_ps += amount_ps;
            self.pending_credit_balance = balance_ps;
            self.pending_credit_at = now;
        }
    }

    /// Emits any coalesced credits as one ledger entry.
    pub fn flush_credits(&mut self) {
        if self.pending_credit_reqs == 0 {
            return;
        }
        let ev = SimEvent::SlackCredit {
            at: self.pending_credit_at,
            requests: self.pending_credit_reqs,
            amount_ps: self.pending_credit_ps,
            balance_ps: self.pending_credit_balance,
        };
        self.pending_credit_reqs = 0;
        self.pending_credit_ps = 0.0;
        if let Some(sink) = &mut self.sink {
            sink.record(ev);
        }
    }

    /// Records one slack debit in the ledger and the metrics.
    pub fn slack_debit(
        &mut self,
        now: SimTime,
        cause: DebitCause,
        amount_ps: f64,
        balance_ps: f64,
    ) {
        self.flush_credits();
        if let Some(m) = &self.metrics {
            m.debit_histogram(cause).record(amount_ps.max(0.0) as u64);
            m.slack_balance.set(balance_ps);
        }
        if let Some(sink) = &mut self.sink {
            sink.record(SimEvent::SlackDebit {
                at: now,
                cause,
                amount_ps,
                balance_ps,
            });
        }
    }

    /// Records a DMA-TA gather decision.
    pub fn ta_gather(&mut self, now: SimTime, chip: usize, pending: usize) {
        if let Some(m) = &self.metrics {
            m.ta_gathered.inc();
        }
        if let Some(sink) = &mut self.sink {
            sink.record(SimEvent::TaGather {
                at: now,
                chip,
                pending,
            });
        }
    }

    /// Records a DMA-TA release decision.
    pub fn ta_release(&mut self, now: SimTime, chip: usize, released: usize, cause: ReleaseCause) {
        if let Some(m) = &self.metrics {
            m.release_counter(cause).inc();
        }
        if let Some(sink) = &mut self.sink {
            sink.record(SimEvent::TaRelease {
                at: now,
                chip,
                released,
                cause,
            });
        }
    }

    /// Records one PL planning interval and its page moves.
    pub fn pl_plan(
        &mut self,
        now: SimTime,
        hot_pages: usize,
        hot_chips: usize,
        moves: &[crate::controller::pl::Move],
    ) {
        if let Some(m) = &self.metrics {
            m.page_moves.add(moves.len() as u64);
        }
        if let Some(sink) = &mut self.sink {
            sink.record(SimEvent::PlPlan {
                at: now,
                hot_pages,
                hot_chips,
                moves: moves.len(),
            });
            for m in moves {
                sink.record(SimEvent::PageMove {
                    at: now,
                    page: m.page,
                    from: m.from,
                    to: m.to,
                });
            }
        }
    }

    /// Records a DMA-TA epoch tick.
    pub fn epoch_tick(&mut self, now: SimTime, pending: usize) {
        if let Some(m) = &self.metrics {
            m.epoch_ticks.inc();
        }
        if let Some(sink) = &mut self.sink {
            sink.record(SimEvent::EpochTick { at: now, pending });
        }
    }

    /// Records one served DMA-memory request's service time.
    pub fn request_served(&mut self, service: SimDuration) {
        if let Some(m) = &self.metrics {
            m.request_service_ns.record(service.as_ps() / 1_000);
        }
    }

    /// Closes the slack ledger at end of run.
    #[allow(clippy::too_many_arguments)]
    pub fn slack_close(
        &mut self,
        now: SimTime,
        credited: u64,
        balance_ps: f64,
        min_ps: f64,
        served: u64,
        service_sum_ps: u64,
        mu: f64,
        t_req: SimDuration,
    ) {
        self.flush_credits();
        if let Some(m) = &self.metrics {
            m.slack_balance.set(balance_ps);
        }
        if let Some(sink) = &mut self.sink {
            sink.record(SimEvent::SlackClose {
                at: now,
                credited,
                balance_ps,
                min_ps,
                served,
                service_sum_ps,
                mu,
                t_req_ps: t_req.as_ps(),
            });
        }
    }
}

/// The end-of-run slack-account totals (always populated when DMA-TA is
/// on, independent of whether full observability was enabled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackSummary {
    /// Requests credited.
    pub credited: u64,
    /// Total epoch (+ residual) debits, in picoseconds.
    pub debit_epoch_ps: f64,
    /// Total wake debits, in picoseconds.
    pub debit_wake_ps: f64,
    /// Total processor-interference debits, in picoseconds.
    pub debit_proc_ps: f64,
    /// Total queueing debits, in picoseconds.
    pub debit_queue_ps: f64,
    /// Final balance, in picoseconds.
    pub final_ps: f64,
    /// Lowest balance observed, in picoseconds.
    pub min_ps: f64,
}

/// What an observability-enabled run captured (see
/// [`crate::ServerSimulator::with_observability`]).
#[derive(Debug, Clone)]
pub struct RunObs {
    /// Final metric values.
    pub metrics: MetricsSnapshot,
    /// The recorded event stream.
    pub events: EventSink<SimEvent>,
}

/// The result of replaying a slack ledger (see [`replay_slack`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackReplay {
    /// Requests credited across all `slack_credit` entries.
    pub credited: u64,
    /// Total picoseconds credited.
    pub credit_ps: f64,
    /// Total picoseconds debited.
    pub debit_ps: f64,
    /// Balance after replaying every entry.
    pub balance_ps: f64,
    /// Served-request count from the `slack_close` entry (0 if absent).
    pub served: u64,
    /// Service-time sum (ps) from the `slack_close` entry.
    pub service_sum_ps: u64,
    /// The `mu` budget from the `slack_close` entry.
    pub mu: f64,
    /// Whether a `slack_close` entry was seen.
    pub closed: bool,
    /// Whether every ledger entry's recorded balance matched the replayed
    /// running balance (within float tolerance).
    pub ledger_consistent: bool,
}

impl SlackReplay {
    /// Re-derives the performance-guarantee verdict from the ledger alone:
    /// mean service time (from the close entry's exact integer totals)
    /// within `(1 + mu) * t_ref`. Matches
    /// [`crate::SimResult::guarantee_met`] by construction.
    pub fn guarantee_met(&self, t_ref: SimDuration) -> bool {
        if self.served == 0 {
            return true;
        }
        let mean_ns = self.service_sum_ps as f64 / self.served as f64 / 1_000.0;
        mean_ns <= (1.0 + self.mu) * t_ref.as_ns_f64() + 1e-9
    }
}

/// Replays slack-ledger events (any [`SimEvent`] iterator; non-ledger
/// events are ignored) into totals and a consistency check.
pub fn replay_slack<'a>(events: impl IntoIterator<Item = &'a SimEvent>) -> SlackReplay {
    let mut r = SlackReplay {
        credited: 0,
        credit_ps: 0.0,
        debit_ps: 0.0,
        balance_ps: 0.0,
        served: 0,
        service_sum_ps: 0,
        mu: 0.0,
        closed: false,
        ledger_consistent: true,
    };
    let check = |running: f64, recorded: f64, ok: &mut bool| {
        let tol = 1e-6 * recorded.abs().max(1.0);
        if (running - recorded).abs() > tol {
            *ok = false;
        }
    };
    for ev in events {
        match *ev {
            SimEvent::SlackCredit {
                requests,
                amount_ps,
                balance_ps,
                ..
            } => {
                r.credited += requests;
                r.credit_ps += amount_ps;
                r.balance_ps += amount_ps;
                check(r.balance_ps, balance_ps, &mut r.ledger_consistent);
            }
            SimEvent::SlackDebit {
                amount_ps,
                balance_ps,
                ..
            } => {
                r.debit_ps += amount_ps;
                r.balance_ps -= amount_ps;
                check(r.balance_ps, balance_ps, &mut r.ledger_consistent);
            }
            SimEvent::SlackClose {
                credited,
                balance_ps,
                served,
                service_sum_ps,
                mu,
                ..
            } => {
                r.closed = true;
                r.served = served;
                r.service_sum_ps = service_sum_ps;
                r.mu = mu;
                if credited != r.credited {
                    r.ledger_consistent = false;
                }
                check(r.balance_ps, balance_ps, &mut r.ledger_consistent);
            }
            _ => {}
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> SimTime {
        SimTime::from_ps(ps)
    }

    #[test]
    fn events_serialize_with_kind_and_fields() {
        let mut sink = EventSink::new(16);
        sink.record(SimEvent::ModeTransition {
            at: t(10),
            chip: 3,
            from: PowerMode::Active,
            to: PowerMode::Nap,
            latency: SimDuration::from_ns(5),
        });
        sink.record(SimEvent::TaRelease {
            at: t(20),
            chip: 3,
            released: 2,
            cause: ReleaseCause::MaxDelay,
        });
        let jsonl = sink.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(
            lines[0].contains(r#""kind":"mode_transition""#),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains(r#""to":"nap""#) && lines[0].contains(r#""latency_ps":5000"#));
        assert!(lines[1].contains(r#""cause":"max_delay""#) && lines[1].contains(r#""t_ps":20"#));
    }

    #[test]
    fn credits_coalesce_until_a_debit() {
        let mut obs = Obs::new(1);
        obs.sink = Some(EventSink::new(64));
        obs.slack_credit(t(1), 100.0, 100.0);
        obs.slack_credit(t(2), 100.0, 200.0);
        obs.slack_debit(t(3), DebitCause::Epoch, 50.0, 150.0);
        obs.slack_credit(t(4), 100.0, 250.0);
        obs.flush_credits();
        let sink = obs.sink.as_ref().unwrap();
        let kinds: Vec<&str> = sink.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["slack_credit", "slack_debit", "slack_credit"]);
        let replay = replay_slack(sink.iter());
        assert_eq!(replay.credited, 3);
        assert!((replay.balance_ps - 250.0).abs() < 1e-9);
        assert!(replay.ledger_consistent);
    }

    #[test]
    fn activity_dedup_per_chip() {
        let mut obs = Obs::new(2);
        obs.sink = Some(EventSink::new(64));
        obs.note_activity(0, t(1), ChipActivity::Serving);
        obs.note_activity(0, t(2), ChipActivity::Serving); // dup: dropped
        obs.note_activity(1, t(2), ChipActivity::Serving); // other chip: kept
        obs.note_activity(0, t(3), ChipActivity::LowPower);
        assert_eq!(obs.sink.as_ref().unwrap().len(), 3);
    }

    #[test]
    fn replay_flags_inconsistent_ledger() {
        let events = [
            SimEvent::SlackCredit {
                at: t(1),
                requests: 1,
                amount_ps: 100.0,
                balance_ps: 100.0,
            },
            SimEvent::SlackDebit {
                at: t(2),
                cause: DebitCause::Wake,
                amount_ps: 30.0,
                balance_ps: 99.0, // should be 70
            },
        ];
        let r = replay_slack(events.iter());
        assert!(!r.ledger_consistent);
        assert!((r.balance_ps - 70.0).abs() < 1e-9);
    }

    #[test]
    fn replay_guarantee_matches_formula() {
        let close = SimEvent::SlackClose {
            at: t(100),
            credited: 4,
            balance_ps: 0.0,
            min_ps: -5.0,
            served: 4,
            service_sum_ps: 40_000, // mean 10 ns
            mu: 0.25,
            t_req_ps: 8_000,
        };
        let r = replay_slack([&close]);
        assert!(r.closed);
        assert!(r.guarantee_met(SimDuration::from_ns(8))); // limit 10 ns
        assert!(!r.guarantee_met(SimDuration::from_ns(7))); // limit 8.75 ns
    }

    #[test]
    fn metric_keys_match_registration() {
        let reg = MetricsRegistry::new();
        let _metrics = ObsMetrics::new(&reg);
        let snap = reg.snapshot();
        let mut registered: Vec<String> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .map(|k| k.to_string())
            .collect();
        registered.sort();
        // Sweep-progress keys are published by the sweep driver into the
        // live telemetry snapshot, never registered per run.
        let mut expected: Vec<String> = METRIC_KEYS
            .iter()
            // simlint::allow(obs-key, "prefix filter over the table itself, not an emitted key")
            .filter(|k| !k.starts_with("dmamem.sweep."))
            .chain(PROF_KEYS)
            .map(|k| k.to_string())
            .collect();
        expected.sort();
        assert_eq!(
            registered, expected,
            "METRIC_KEYS + PROF_KEYS must list exactly what ObsMetrics::new registers"
        );
    }

    #[test]
    fn prof_keys_match_publication() {
        let reg = MetricsRegistry::new();
        let mut obs = Obs::new(1);
        obs.metrics = Some(ObsMetrics::new(&reg));
        let profile = simcore::EngineProfile {
            events: 11,
            heap_pushes: 12,
            heap_pops: 13,
            max_heap_depth: 14,
            transfers: 15,
            requests: 16,
            ..simcore::EngineProfile::default()
        };
        obs.publish_prof(&profile);
        let snap = reg.snapshot();
        let expect: [(&str, u64); 6] = [
            ("dmamem.prof.events", 11),
            ("dmamem.prof.heap_pushes", 12),
            ("dmamem.prof.heap_pops", 13),
            ("dmamem.prof.heap_depth_max", 14),
            ("dmamem.prof.transfers", 15),
            ("dmamem.prof.requests", 16),
        ];
        for (key, v) in expect {
            assert!(PROF_KEYS.contains(&key));
            assert_eq!(snap.counter(key), Some(v), "{key}");
        }
        // Nothing beyond the registered keys appears.
        for key in snap.counters.keys() {
            let key: &str = key;
            assert!(
                METRIC_KEYS.contains(&key) || PROF_KEYS.contains(&key),
                "unexpected published key {key}"
            );
        }
    }

    #[test]
    fn event_kinds_match_variants() {
        let probe = SimTime::ZERO;
        let dur = SimDuration::from_ns(1);
        // One value of every variant; adding a variant without extending
        // EVENT_KINDS fails here (and new kinds escape the audit replay).
        let events = [
            SimEvent::ModeTransition {
                at: probe,
                chip: 0,
                from: PowerMode::Active,
                to: PowerMode::Nap,
                latency: dur,
            },
            SimEvent::Activity {
                at: probe,
                chip: 0,
                activity: ChipActivity::Serving,
            },
            SimEvent::TaGather {
                at: probe,
                chip: 0,
                pending: 1,
            },
            SimEvent::TaRelease {
                at: probe,
                chip: 0,
                released: 1,
                cause: ReleaseCause::Rule,
            },
            SimEvent::SlackCredit {
                at: probe,
                requests: 1,
                amount_ps: 0.0,
                balance_ps: 0.0,
            },
            SimEvent::SlackDebit {
                at: probe,
                cause: DebitCause::Epoch,
                amount_ps: 0.0,
                balance_ps: 0.0,
            },
            SimEvent::SlackClose {
                at: probe,
                credited: 0,
                balance_ps: 0.0,
                min_ps: 0.0,
                served: 0,
                service_sum_ps: 0,
                mu: 0.0,
                t_req_ps: 0,
            },
            SimEvent::PageMove {
                at: probe,
                page: 0,
                from: 0,
                to: 1,
            },
            SimEvent::PlPlan {
                at: probe,
                hot_pages: 0,
                hot_chips: 0,
                moves: 0,
            },
            SimEvent::EpochTick {
                at: probe,
                pending: 0,
            },
        ];
        assert_eq!(events.len(), EVENT_KINDS.len());
        for ev in &events {
            assert!(
                EVENT_KINDS.contains(&ev.kind()),
                "kind `{}` missing from EVENT_KINDS",
                ev.kind()
            );
        }
    }

    #[test]
    fn debit_metric_keys_are_registered() {
        for cause in [
            DebitCause::Epoch,
            DebitCause::Wake,
            DebitCause::Proc,
            DebitCause::Queue,
            DebitCause::Residual,
        ] {
            assert!(METRIC_KEYS.contains(&cause.metric_key()));
        }
    }

    #[test]
    fn metrics_handles_count_decisions() {
        let reg = MetricsRegistry::new();
        let mut obs = Obs::new(1);
        obs.metrics = Some(ObsMetrics::new(&reg));
        obs.ta_gather(t(1), 0, 1);
        obs.ta_release(t(2), 0, 1, ReleaseCause::Rule);
        obs.slack_debit(t(3), DebitCause::Queue, 123.0, -123.0);
        obs.epoch_tick(t(4), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("dmamem.ta.gathered"), Some(1));
        assert_eq!(snap.counter("dmamem.ta.release.rule"), Some(1));
        assert_eq!(snap.counter("dmamem.epoch_ticks"), Some(1));
        assert_eq!(snap.histograms["dmamem.slack.debit_queue_ps"].count, 1);
        assert_eq!(snap.gauge("dmamem.slack.balance_ps"), Some(-123.0));
    }
}
