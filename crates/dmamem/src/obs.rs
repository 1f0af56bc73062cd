//! Simulator observability: one engine event stream, its consumers, and
//! the slack-guarantee audit trail.
//!
//! Enable with [`crate::ServerSimulator::with_observability`] or
//! [`with_tracing`](crate::ServerSimulator::with_tracing). The engine
//! builds each notable fact once, as a [`SimEvent`], and hands it to the
//! observer hub, which passes the same value to every attached consumer:
//!
//! * **events** — a ring-buffered [`EventSink`] of the exported kinds
//!   ([`EVENT_KINDS`]: chip power-mode transitions, DMA-TA gather/release
//!   decisions, the complete slack ledger, PL page moves, epoch ticks,
//!   chip-activity changes), exportable as JSONL; the Figure 2(a)/3
//!   timelines in [`crate::experiments`] are drawn from its
//!   chip-activity changes;
//! * **metrics** — counters/gauges/histograms in a
//!   [`MetricsRegistry`](simcore::obs::MetricsRegistry) under the
//!   `dmamem.*` namespace ([`METRIC_KEYS`]);
//! * **tracer** — the causal [`Tracer`](crate::tracing::Tracer) reads the
//!   transfer-level facts as well (transfer start, request issue, release,
//!   service start and completion), which are never written to the sink.
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

use mempower::PowerMode;
use simcore::obs::trace::{SpanTape, TraceBuffer};
use simcore::obs::{EventSink, JsonObject, MetricsRegistry, MetricsSnapshot, ObsEvent};
use simcore::{SimDuration, SimTime};

use crate::tracing::{TraceMark, Tracer};

/// Every metric key the engine registers, in registration order. This is
/// the source of truth for the `obs-key` simlint rule: any `dmamem.*`
/// string literal anywhere in the workspace must appear here, so a
/// typo'd key can never silently drop a stream from the slack audit
/// replay. The `metric_keys_match_registration` test pins this list to
/// what the engine's metric handles register.
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
    // Live sweep-progress counters. These are *not* registered per run
    // (they belong to the sweep driver, not a single run): `SweepCtx`
    // publishes them straight into the shared `LiveState` snapshot
    // served at `/metrics`. The `metric_keys_match_registration` pin
    // skips the `dmamem.sweep.` prefix for exactly that reason.
    "dmamem.sweep.wave",
    "dmamem.sweep.jobs_done",
    "dmamem.sweep.jobs_total",
];

/// Every engine self-profiling metric key, in registration order — the
/// deterministic counters of [`simcore::EngineProfile`], published into
/// the metrics snapshot at end of run. The `prof_keys_match_publication`
/// test pins this list to what the end-of-run publication actually
/// writes; the simlint `obs-key` rule checks `dmamem.prof.*` string
/// literals against it.
pub const PROF_KEYS: &[&str] = &[
    "dmamem.prof.events",
    "dmamem.prof.heap_pushes",
    "dmamem.prof.heap_pops",
    "dmamem.prof.heap_depth_max",
    "dmamem.prof.transfers",
    "dmamem.prof.requests",
];

/// Every event `kind` tag that can appear in an exported event stream
/// (`--events-out`); the simlint `obs-key` rule checks `"kind":"…"`
/// literals (e.g. in JSONL assertions) against this table. Pinned to the
/// exported [`SimEvent`] variants by the `event_kinds_match_variants`
/// test; the transfer-level variants are never exported.
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

/// What a chip is doing, as drawn in the paper's Figure 2(a)/3 timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipActivity {
    /// Actively serving a DMA-memory request or processor access.
    Serving,
    /// Active but idle between DMA-memory requests.
    IdleDma,
    /// Active and idle with no transfer in flight.
    IdleOther,
    /// Transitioning between power modes.
    Transitioning,
    /// In a low-power mode.
    LowPower,
}

impl ChipActivity {
    /// One-character glyph for ASCII rendering.
    pub fn glyph(self) -> char {
        match self {
            ChipActivity::Serving => '#',
            ChipActivity::IdleDma => '~',
            ChipActivity::IdleOther => '.',
            ChipActivity::Transitioning => '/',
            ChipActivity::LowPower => '_',
        }
    }

    /// Stable snake_case tag used in exported events.
    pub fn name(self) -> &'static str {
        match self {
            ChipActivity::Serving => "serving",
            ChipActivity::IdleDma => "idle_dma",
            ChipActivity::IdleOther => "idle_other",
            ChipActivity::Transitioning => "transitioning",
            ChipActivity::LowPower => "low_power",
        }
    }
}

/// The slack ledger's totals at the end of a run, carried by
/// [`SimEvent::SlackClose`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackTotals {
    /// Total requests credited.
    pub credited: u64,
    /// Final balance.
    pub balance_ps: f64,
    /// Lowest balance observed.
    pub min_ps: f64,
    /// DMA-memory requests served.
    pub served: u64,
    /// Sum of per-request service times, in picoseconds.
    pub service_sum_ps: u64,
    /// The `mu` budget in force.
    pub mu: f64,
    /// Reference request time `T`, in picoseconds.
    pub t_req_ps: u64,
}

/// One engine fact, as every observer consumes it.
///
/// The exported variants (those whose kind is in [`EVENT_KINDS`]) are
/// serialized (via [`ObsEvent`]) as one JSONL object per event with the
/// envelope fields `seq`, `t_ps`, `kind` followed by the variant's
/// fields. The transfer-level variants after [`SimEvent::EpochTick`]
/// feed the tracer and the metrics only; the event sink never records
/// them.
#[derive(Debug, Clone, PartialEq)]
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
        /// The gathered request's transfer (not exported).
        transfer: u64,
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
    /// Slack credits since the previous ledger entry
    /// (`kind: "slack_credit"`). The engine emits one per credited
    /// request; the event sink coalesces them up to the next debit or
    /// close.
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
    /// End-of-run ledger close (`kind: "slack_close"`). Emitted once per
    /// run, so its totals are boxed rather than widening every event.
    SlackClose {
        /// Simulation end time.
        at: SimTime,
        /// The ledger's totals.
        totals: Box<SlackTotals>,
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
    /// A DMA transfer arrived at the controller (transfer-level).
    TransferStart {
        /// Arrival time.
        at: SimTime,
        /// Transfer id.
        transfer: u64,
        /// The I/O bus carrying it.
        bus: usize,
    },
    /// The bus delivered one request of a transfer (transfer-level).
    RequestIssued {
        /// Delivery time.
        at: SimTime,
        /// Transfer id.
        transfer: u64,
        /// The transfer's first request.
        is_first: bool,
        /// The transfer's last request.
        is_last: bool,
        /// The request found its chip asleep and wakes it now (no
        /// gathering).
        wake_pending: bool,
    },
    /// DMA-TA released a gathered transfer (transfer-level; one per
    /// transfer of a [`SimEvent::TaRelease`]).
    TransferRelease {
        /// Release time.
        at: SimTime,
        /// Transfer id.
        transfer: u64,
    },
    /// A chip began serving a request of a transfer (transfer-level).
    ServeStart {
        /// Service start.
        at: SimTime,
        /// Transfer id.
        transfer: u64,
    },
    /// A chip finished serving one DMA-memory request (transfer-level).
    RequestServed {
        /// Completion time.
        at: SimTime,
        /// Transfer id.
        transfer: u64,
        /// The transfer's last request.
        is_last: bool,
        /// Arrival-to-completion service time.
        service: SimDuration,
    },
}

impl SimEvent {
    /// True for the kinds the event sink records ([`EVENT_KINDS`]); false
    /// for the transfer-level facts only the tracer and the metrics read.
    pub(crate) fn is_exported(&self) -> bool {
        !matches!(
            self,
            SimEvent::TransferStart { .. }
                | SimEvent::RequestIssued { .. }
                | SimEvent::TransferRelease { .. }
                | SimEvent::ServeStart { .. }
                | SimEvent::RequestServed { .. }
        )
    }
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
            SimEvent::TransferStart { .. } => "transfer_start",
            SimEvent::RequestIssued { .. } => "request_issued",
            SimEvent::TransferRelease { .. } => "transfer_release",
            SimEvent::ServeStart { .. } => "serve_start",
            SimEvent::RequestServed { .. } => "request_served",
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
            | SimEvent::EpochTick { at, .. }
            | SimEvent::TransferStart { at, .. }
            | SimEvent::RequestIssued { at, .. }
            | SimEvent::TransferRelease { at, .. }
            | SimEvent::ServeStart { at, .. }
            | SimEvent::RequestServed { at, .. } => at.as_ps(),
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
            SimEvent::SlackClose { ref totals, .. } => {
                let SlackTotals {
                    credited,
                    balance_ps,
                    min_ps,
                    served,
                    service_sum_ps,
                    mu,
                    t_req_ps,
                } = **totals;
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
            // Transfer-level facts are never exported.
            _ => {}
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
pub(crate) struct ObsMetrics {
    /// The registry every handle below belongs to.
    registry: MetricsRegistry,
    /// `dmamem.wakes` — chip wake transitions begun.
    wakes: simcore::obs::Counter,
    /// `dmamem.sleeps` — chip sleep transitions begun.
    sleeps: simcore::obs::Counter,
    /// `dmamem.ta.gathered` — first requests buffered by DMA-TA.
    ta_gathered: simcore::obs::Counter,
    /// `dmamem.ta.release.rule` / `.max_delay` / `.proc_wake`, indexed by
    /// [`ReleaseCause`] declaration order.
    releases: [simcore::obs::Counter; 3],
    /// `dmamem.slack.credits` — requests credited.
    slack_credits: simcore::obs::Counter,
    /// `dmamem.slack.balance_ps` — current account balance.
    slack_balance: simcore::obs::Gauge,
    /// `dmamem.slack.debit_<cause>_ps` — debit-size histograms, indexed by
    /// [`DebitCause`] declaration order.
    slack_debits: [simcore::obs::Histogram; 5],
    /// `dmamem.pl.page_moves` — PL page moves planned.
    page_moves: simcore::obs::Counter,
    /// `dmamem.epoch_ticks` — DMA-TA epoch ticks.
    epoch_ticks: simcore::obs::Counter,
    /// `dmamem.request_service_ns` — per-request service-time histogram.
    request_service_ns: simcore::obs::Histogram,
    /// `dmamem.prof.*` — engine self-profile counters, indexed in
    /// [`PROF_KEYS`] order (set once at end of run).
    prof: [simcore::obs::Counter; 6],
}

impl ObsMetrics {
    /// Registers (or reattaches to) the `dmamem.*` metrics in `registry`.
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
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

    /// Folds one engine event into the metrics.
    fn on(&self, ev: &SimEvent) {
        match *ev {
            SimEvent::ModeTransition { to, .. } => {
                if to == PowerMode::Active {
                    self.wakes.inc();
                } else {
                    self.sleeps.inc();
                }
            }
            SimEvent::TaGather { .. } => self.ta_gathered.inc(),
            SimEvent::TaRelease { cause, .. } => self.releases[cause as usize].inc(),
            SimEvent::SlackCredit {
                requests,
                balance_ps,
                ..
            } => {
                self.slack_credits.add(requests);
                self.slack_balance.set(balance_ps);
            }
            SimEvent::SlackDebit {
                cause,
                amount_ps,
                balance_ps,
                ..
            } => {
                self.slack_debits[cause as usize].record(amount_ps.max(0.0) as u64);
                self.slack_balance.set(balance_ps);
            }
            SimEvent::SlackClose { ref totals, .. } => self.slack_balance.set(totals.balance_ps),
            SimEvent::PlPlan { moves, .. } => self.page_moves.add(moves as u64),
            SimEvent::EpochTick { .. } => self.epoch_ticks.inc(),
            SimEvent::RequestServed { service, .. } => {
                self.request_service_ns.record(service.as_ps() / 1_000);
            }
            _ => {}
        }
    }

    /// Publishes the engine self-profile counters (once, at end of run).
    /// Key order matches [`PROF_KEYS`].
    fn publish_prof(&self, profile: &simcore::EngineProfile) {
        let values = [
            profile.events,
            profile.heap_pushes,
            profile.heap_pops,
            profile.max_heap_depth,
            profile.transfers,
            profile.requests,
        ];
        for (counter, v) in self.prof.iter().zip(values) {
            counter.add(v);
        }
    }
}

/// The event sink's consumer: records the exported kinds, coalescing
/// slack credits into one ledger entry per run of credits.
#[derive(Debug)]
pub(crate) struct EventLog {
    sink: EventSink<SimEvent>,
    credit_reqs: u64,
    credit_ps: f64,
    credit_balance: f64,
    credit_at: SimTime,
}

impl EventLog {
    /// A log over a ring of `capacity` events (oldest dropped first).
    pub(crate) fn new(capacity: usize) -> Self {
        EventLog {
            sink: EventSink::new(capacity),
            credit_reqs: 0,
            credit_ps: 0.0,
            credit_balance: 0.0,
            credit_at: SimTime::ZERO,
        }
    }

    /// Records one engine event.
    fn on(&mut self, ev: SimEvent) {
        match ev {
            SimEvent::SlackCredit {
                at,
                requests,
                amount_ps,
                balance_ps,
            } => {
                self.credit_reqs += requests;
                self.credit_ps += amount_ps;
                self.credit_balance = balance_ps;
                self.credit_at = at;
            }
            SimEvent::SlackDebit { .. } | SimEvent::SlackClose { .. } => {
                self.flush_credits();
                self.sink.record(ev);
            }
            _ if ev.is_exported() => self.sink.record(ev),
            _ => {}
        }
    }

    /// Writes any coalesced credits as one ledger entry.
    fn flush_credits(&mut self) {
        if self.credit_reqs == 0 {
            return;
        }
        self.sink.record(SimEvent::SlackCredit {
            at: self.credit_at,
            requests: self.credit_reqs,
            amount_ps: self.credit_ps,
            balance_ps: self.credit_balance,
        });
        self.credit_reqs = 0;
        self.credit_ps = 0.0;
    }
}

/// The engine-side observer hub: every consumer (event log, metrics,
/// causal tracer) hangs off this one struct, and the engine reaches them
/// all through [`Obs::emit`].
#[derive(Debug, Default)]
pub(crate) struct Obs {
    /// Event log, when observability is enabled.
    pub(crate) log: Option<EventLog>,
    /// Metric handles, when observability is enabled.
    pub(crate) metrics: Option<ObsMetrics>,
    /// Causal span tracer, when transfer-level tracing was requested.
    pub(crate) tracer: Option<Tracer>,
    last_activity: Vec<Option<ChipActivity>>,
    last_ps: u64,
}

impl Obs {
    /// A hub with every consumer detached, sized for `chips` chips.
    pub(crate) fn new(chips: usize) -> Self {
        Obs {
            last_activity: vec![None; chips],
            ..Obs::default()
        }
    }

    /// Passes one engine event to every attached consumer. A chip
    /// activity equal to the chip's previous one is not a change and
    /// reaches no consumer.
    pub(crate) fn emit(&mut self, ev: SimEvent) {
        let t = ev.timestamp_ps();
        debug_assert!(t >= self.last_ps, "observer event time went backwards");
        self.last_ps = t;
        if let SimEvent::Activity { chip, activity, .. } = ev {
            if self.last_activity[chip] == Some(activity) {
                return;
            }
            self.last_activity[chip] = Some(activity);
        }
        if let Some(m) = &self.metrics {
            m.on(&ev);
        }
        if let Some(tr) = &mut self.tracer {
            tr.on(&ev);
        }
        // The log keeps the event, so it goes last.
        if let Some(log) = &mut self.log {
            log.on(ev);
        }
    }

    /// True when the causal tracer is the only consumer: such a run
    /// serves train windows and books their batches, replaying the
    /// tracer's records (see [`Obs::replay`]).
    pub(crate) fn tracer_only(&self) -> bool {
        self.tracer.is_some() && self.log.is_none() && self.metrics.is_none()
    }

    /// Fills `m` with the tracer's state and the hub's.
    pub(crate) fn mark(&self, m: &mut TraceMark) {
        if let Some(tr) = &self.tracer {
            tr.mark(m);
        }
        m.activity.clone_from(&self.last_activity);
        m.last_ps = self.last_ps;
    }

    /// Starts copying the tracer's records into `tape`.
    pub(crate) fn start_tape(&mut self, tape: SpanTape) {
        if let Some(tr) = &mut self.tracer {
            tr.buf.start_tape(tape);
        }
    }

    /// Stops the tracer's tape and returns it.
    pub(crate) fn stop_tape(&mut self) -> Option<SpanTape> {
        self.tracer.as_mut()?.buf.stop_tape()
    }

    /// The tracer's running tape.
    pub(crate) fn tape(&self) -> Option<&SpanTape> {
        self.tracer.as_ref()?.buf.tape()
    }

    /// Books `n` more train periods like the taped one, which ran from
    /// mark `start` to mark `end`: the tracer replays their records (see
    /// [`Tracer::replay`]), and the last event stamp moves on as the
    /// periods' events would have moved it. Every event the hub passes on
    /// in those periods repeats one of the taped period, so the chips'
    /// last activities stay as they are.
    pub(crate) fn replay(
        &mut self,
        tape: &SpanTape,
        start: &TraceMark,
        end: &TraceMark,
        n: u64,
        period: SimDuration,
    ) {
        if let Some(tr) = &mut self.tracer {
            tr.replay(tape, start, end, n, period);
        }
        if end.last_ps > start.last_ps {
            self.last_ps = end.last_ps + n * period.as_ps();
        }
    }

    /// Closes every consumer at `horizon` and returns what they captured:
    /// the metrics snapshot and event stream, and the span trace, each
    /// when attached. The self-profile counters and, when a tracer ran,
    /// its ring-loss counters (`dmamem.trace.spilled` / `.dropped`) land
    /// in the metrics snapshot, so truncation is observable, not silent.
    pub(crate) fn finish(
        self,
        horizon: SimTime,
        profile: &simcore::EngineProfile,
    ) -> (Option<RunObs>, Option<TraceBuffer>) {
        let Obs {
            log,
            metrics,
            tracer,
            ..
        } = self;
        let trace = tracer.map(|t| t.into_buffer(horizon));
        if let Some(m) = &metrics {
            m.publish_prof(profile);
            if let Some(buf) = &trace {
                m.registry
                    .counter(crate::tracing::COUNTER_SPILLED)
                    .add(buf.spilled());
                m.registry
                    .counter(crate::tracing::COUNTER_DROPPED)
                    .add(buf.dropped());
            }
        }
        let run = log.map(|mut log| {
            log.flush_credits();
            RunObs {
                metrics: metrics
                    .as_ref()
                    .map(|m| m.registry.snapshot())
                    .unwrap_or_default(),
                events: log.sink,
            }
        });
        (run, trace)
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
            SimEvent::SlackClose { ref totals, .. } => {
                r.closed = true;
                r.served = totals.served;
                r.service_sum_ps = totals.service_sum_ps;
                r.mu = totals.mu;
                if totals.credited != r.credited {
                    r.ledger_consistent = false;
                }
                check(r.balance_ps, totals.balance_ps, &mut r.ledger_consistent);
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

    fn credit(ps: u64, balance_ps: f64) -> SimEvent {
        SimEvent::SlackCredit {
            at: t(ps),
            requests: 1,
            amount_ps: 100.0,
            balance_ps,
        }
    }

    fn activity(ps: u64, chip: usize, activity: ChipActivity) -> SimEvent {
        SimEvent::Activity {
            at: t(ps),
            chip,
            activity,
        }
    }

    /// A hub with only the event log attached; returns its recorded
    /// events after `events` and the end-of-run close.
    fn logged(chips: usize, events: &[SimEvent]) -> EventSink<SimEvent> {
        let mut obs = Obs::new(chips);
        obs.log = Some(EventLog::new(64));
        for ev in events {
            obs.emit(ev.clone());
        }
        let (run, _) = obs.finish(t(100), &simcore::EngineProfile::default());
        run.expect("event log attached").events
    }

    #[test]
    fn credits_coalesce_until_a_debit() {
        let sink = logged(
            1,
            &[
                credit(1, 100.0),
                credit(2, 200.0),
                SimEvent::SlackDebit {
                    at: t(3),
                    cause: DebitCause::Epoch,
                    amount_ps: 50.0,
                    balance_ps: 150.0,
                },
                credit(4, 250.0),
            ],
        );
        let kinds: Vec<&str> = sink.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["slack_credit", "slack_debit", "slack_credit"]);
        let replay = replay_slack(sink.iter());
        assert_eq!(replay.credited, 3);
        assert!((replay.balance_ps - 250.0).abs() < 1e-9);
        assert!(replay.ledger_consistent);
    }

    #[test]
    fn activity_dedup_per_chip() {
        let sink = logged(
            2,
            &[
                activity(1, 0, ChipActivity::Serving),
                activity(2, 0, ChipActivity::Serving), // dup: dropped
                activity(2, 1, ChipActivity::Serving), // other chip: kept
                activity(3, 0, ChipActivity::LowPower),
            ],
        );
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn transfer_level_facts_never_reach_the_log() {
        let sink = logged(
            1,
            &[
                SimEvent::TransferStart {
                    at: t(1),
                    transfer: 1,
                    bus: 0,
                },
                SimEvent::TaGather {
                    at: t(1),
                    chip: 0,
                    pending: 1,
                    transfer: 1,
                },
                SimEvent::ServeStart {
                    at: t(2),
                    transfer: 1,
                },
                SimEvent::RequestServed {
                    at: t(3),
                    transfer: 1,
                    is_last: true,
                    service: SimDuration::from_ns(2),
                },
            ],
        );
        let kinds: Vec<&str> = sink.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["ta_gather"]);
        // The transfer id rides on the gather fact for the tracer only.
        assert_eq!(
            sink.to_jsonl(),
            "{\"seq\":0,\"t_ps\":1,\"kind\":\"ta_gather\",\"chip\":0,\"pending\":1}\n"
        );
    }

    #[test]
    fn sim_event_does_not_grow() {
        // The sink ring is preallocated at its full capacity: a wider
        // event widens every run's observability footprint.
        assert!(std::mem::size_of::<SimEvent>() <= 40);
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
            totals: Box::new(SlackTotals {
                credited: 4,
                balance_ps: 0.0,
                min_ps: -5.0,
                served: 4,
                service_sum_ps: 40_000, // mean 10 ns
                mu: 0.25,
                t_req_ps: 8_000,
            }),
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
        obs.finish(t(1), &profile);
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
                transfer: 1,
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
                totals: Box::new(SlackTotals {
                    credited: 0,
                    balance_ps: 0.0,
                    min_ps: 0.0,
                    served: 0,
                    service_sum_ps: 0,
                    mu: 0.0,
                    t_req_ps: 0,
                }),
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
        let transfer_level = [
            SimEvent::TransferStart {
                at: probe,
                transfer: 1,
                bus: 0,
            },
            SimEvent::RequestIssued {
                at: probe,
                transfer: 1,
                is_first: true,
                is_last: false,
                wake_pending: false,
            },
            SimEvent::TransferRelease {
                at: probe,
                transfer: 1,
            },
            SimEvent::ServeStart {
                at: probe,
                transfer: 1,
            },
            SimEvent::RequestServed {
                at: probe,
                transfer: 1,
                is_last: true,
                service: dur,
            },
        ];
        assert_eq!(events.len(), EVENT_KINDS.len());
        for ev in &events {
            assert!(ev.is_exported());
            assert!(
                EVENT_KINDS.contains(&ev.kind()),
                "kind `{}` missing from EVENT_KINDS",
                ev.kind()
            );
        }
        for ev in &transfer_level {
            assert!(!ev.is_exported());
            assert!(!EVENT_KINDS.contains(&ev.kind()), "{}", ev.kind());
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
        for ev in [
            SimEvent::TaGather {
                at: t(1),
                chip: 0,
                pending: 1,
                transfer: 1,
            },
            SimEvent::TaRelease {
                at: t(2),
                chip: 0,
                released: 1,
                cause: ReleaseCause::Rule,
            },
            SimEvent::SlackDebit {
                at: t(3),
                cause: DebitCause::Queue,
                amount_ps: 123.0,
                balance_ps: -123.0,
            },
            SimEvent::EpochTick {
                at: t(4),
                pending: 0,
            },
        ] {
            obs.emit(ev);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("dmamem.ta.gathered"), Some(1));
        assert_eq!(snap.counter("dmamem.ta.release.rule"), Some(1));
        assert_eq!(snap.counter("dmamem.epoch_ticks"), Some(1));
        assert_eq!(snap.histograms["dmamem.slack.debit_queue_ps"].count, 1);
        assert_eq!(snap.gauge("dmamem.slack.balance_ps"), Some(-123.0));
    }
}
