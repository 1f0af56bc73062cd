//! Periodic train batching: once a request-train window repeats itself
//! slot period for slot period, book whole periods without dispatching
//! them.
//!
//! A steady train window ([`Engine::serve_train`]) is periodic: every
//! slot period of its buses issues the same requests, serves them on the
//! same chips and re-arms the same policy timers, shifted in time. The
//! window tapes one *reference period* — the operands its handlers'
//! floating-point data-path calls add (slack credits and queue debits,
//! the energy stretches each chip service start accrues, service-time
//! records) and its policy arms — and compares a time-relative signature
//! of the train state at the period's start and end. If they match, the
//! next `n` periods are booked: every accumulator takes the taped
//! operands `n` times over, in tape order, the integer ledgers, buses and
//! counters advance in closed form, and the lane's times and generations
//! shift; the window then carries on through the normal handlers. Each
//! accumulator receives the operands the handlers would have given it, in
//! the same order, so every result is bit-identical. The booked periods
//! end before the first event that does not commute with the train;
//! commuting events inside them run afterwards, at their own times.
//!
//! A run whose only observer is the causal tracer batches too. Its
//! handlers hand the tracer their events, so the reference period also
//! tapes the span records they push, and a mark of the tracer's state is
//! compared at the period's start and end. A batch then replays the
//! taped records once per booked period, shifted in time and span ids
//! ([`simcore::obs::TraceBuffer::replay`]), and moves the tracer's
//! per-transfer counts and held spans on in closed form. Records must
//! come out in stamp order, so in such a run the bound is the next event
//! outside the lane: nothing commutes past a batch.
//! DESIGN §14 ("Periodic train batching") has the exactness argument.

use iobus::{BusDiscipline, DmaRequest};
use mempower::{Accrual, EnergyBreakdown, ModeResidency, PowerMode};
use simcore::obs::SpanTape;
use simcore::prof::{Phase, PhaseProfile};
use simcore::{SimDuration, SimTime};

use super::{Engine, Ev, Serving, SlackOp};
use crate::tracing::TraceMark;

/// Fewest slot periods worth booking. A window takes a signature only while
/// its bound leaves room for this many past the reference period and the
/// period after the batch, so short windows (a processor access to a
/// train chip every few requests) pay one comparison and no signature.
const MIN_BATCH: u64 = 16;

/// Reference periods a window tapes before it gives up looking for a
/// steady state (a transient, or buses that never line up) until its
/// bound moves.
const ATTEMPTS: u32 = 3;

/// Longest period looked for, in slot periods. Several streams sharing
/// buses and chips can take a few slots to come back to the same state
/// (their completions reorder at equal times).
const MAX_SPAN: u64 = 8;

/// Lane entries a signature holds. Tape and signature buffers are
/// reserved once per engine; a period or state that does not fit is
/// simply not batched, so the hot loop never allocates.
const LANE_CAPACITY: usize = 512;

/// Ready streams, and queued requests, a signature holds.
const STREAM_CAPACITY: usize = 64;

/// Calls a tape holds: [`MAX_SPAN`] slot periods of a busy train.
const TAPE_CAPACITY: usize = 1024;

/// Span records a traced run's tape holds: a served request pushes up to
/// eight (its transfer's child span and its chip's activity span, each
/// ended and begun twice), and takes two or three calls.
const SPAN_TAPE_CAPACITY: usize = 4 * TAPE_CAPACITY;

/// `PowerPolicy::next_step` arming an idle chip in a train period: chip,
/// mode, time, and the answer.
type Arm = (usize, PowerMode, SimTime, Option<(PowerMode, SimTime)>);

/// The data-path calls of one train period, as the operands they add,
/// each kind in call order.
#[derive(Debug)]
pub(super) struct Period {
    /// Calls of every kind: the tape holds [`TAPE_CAPACITY`].
    calls: usize,
    /// `Chip::begin_service` of a middle DMA request: chip, start, length.
    serves: Vec<(usize, SimTime, SimDuration)>,
    /// The stretches those calls accrued (`Chip::sync_noting`), with
    /// their chip.
    accruals: Vec<(usize, Accrual)>,
    /// `SlackAccount::credit_request` and `debit_queue`.
    slack: Vec<SlackOp>,
    /// `DurationStats::record` of a request's service time, in ns.
    records: Vec<f64>,
    /// Policy arms: debug builds check them again for every booked period.
    arms: Vec<Arm>,
}

impl Period {
    fn with_capacity(calls: usize) -> Self {
        Period {
            calls: 0,
            serves: Vec::with_capacity(calls),
            // A service accrues at most its predecessor's end and a gap.
            accruals: Vec::with_capacity(2 * calls),
            slack: Vec::with_capacity(calls),
            records: Vec::with_capacity(calls),
            arms: Vec::with_capacity(if cfg!(debug_assertions) { calls } else { 0 }),
        }
    }

    fn clear(&mut self) {
        self.calls = 0;
        self.serves.clear();
        self.accruals.clear();
        self.slack.clear();
        self.records.clear();
        self.arms.clear();
    }

    /// True when this period made `reference`'s calls, `by` later.
    fn repeats(&self, reference: &Period, by: SimDuration) -> bool {
        self.calls == reference.calls
            && self.accruals == reference.accruals
            && self.slack == reference.slack
            && self.records == reference.records
            && self.serves.len() == reference.serves.len()
            && self
                .serves
                .iter()
                .zip(&reference.serves)
                .all(|(&(c, at, d), &(rc, rat, rd))| (c, at, d) == (rc, rat + by, rd))
            && self.arms.len() == reference.arms.len()
            && self
                .arms
                .iter()
                .zip(&reference.arms)
                .all(|(&a, &(chip, mode, at, step))| {
                    a == (chip, mode, at + by, step.map(|(m, when)| (m, when + by)))
                })
    }
}

/// The period being taped.
#[derive(Debug)]
pub(super) struct Tape {
    /// Handlers append their calls while this is set.
    pub(super) on: bool,
    /// Cleared when the period did something a batch cannot repeat (a
    /// first or last request, a processor or migration service, a queued
    /// event, a full tape).
    pub(super) ok: bool,
    period: Period,
    /// Commuting steps the period ran from the queue: no part of the
    /// period, so a batch must not repeat their phase calls.
    outside: PhaseProfile,
}

impl Tape {
    pub(super) fn new() -> Self {
        Tape {
            on: false,
            ok: false,
            period: Period::with_capacity(TAPE_CAPACITY),
            outside: PhaseProfile::default(),
        }
    }

    /// True while taping a period that can still be batched.
    #[inline]
    pub(super) fn taping(&self) -> bool {
        self.on && self.ok
    }

    /// Counts one call while taping a usable period; false when there is
    /// nothing to record, or no room for it.
    #[inline]
    fn call(&mut self) -> bool {
        if !self.taping() {
            return false;
        }
        self.period.calls += 1;
        self.ok = self.period.calls <= TAPE_CAPACITY;
        self.ok
    }

    /// Appends a slack call.
    #[inline]
    pub(super) fn slack(&mut self, op: SlackOp) {
        if self.call() {
            self.ok = push(&mut self.period.slack, op);
        }
    }

    /// Appends a stretch the next service's `begin_service` accrues on
    /// `chip` (see [`Tape::serve`]).
    #[inline]
    pub(super) fn accrue(&mut self, chip: usize, a: Accrual) {
        if self.taping() {
            self.ok = push(&mut self.period.accruals, (chip, a));
        }
    }

    /// Appends a `begin_service` of a middle DMA request.
    #[inline]
    pub(super) fn serve(&mut self, chip: usize, at: SimTime, service: SimDuration) {
        if self.call() {
            self.ok = push(&mut self.period.serves, (chip, at, service));
        }
    }

    /// Appends a request's service-time record.
    #[inline]
    pub(super) fn record(&mut self, service: SimDuration) {
        if self.call() {
            self.ok = push(&mut self.period.records, service.as_ns_f64());
        }
    }

    /// Counts a policy arm of an idle chip; debug builds keep it, with
    /// its answer.
    #[inline]
    pub(super) fn arm(&mut self, arm: Arm) {
        if self.call() && cfg!(debug_assertions) {
            self.ok = push(&mut self.period.arms, arm);
        }
    }

    /// Marks the taped period as not replayable (while taping).
    #[inline]
    pub(super) fn taint(&mut self) {
        if self.on {
            self.ok = false;
        }
    }

    /// Books a step the period ran from the queue that commutes with the
    /// train: no part of the period.
    pub(super) fn note_outside(&mut self, phase: Phase) {
        self.outside.note(phase);
    }

    fn restart(&mut self) {
        self.on = true;
        self.ok = true;
        self.period.clear();
        self.outside = PhaseProfile::default();
    }
}

/// A request in service or queued at a chip, time-relative.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReqShape {
    bus: usize,
    slot: u32,
    bytes: u64,
    first: bool,
    last: bool,
    arrival: i64,
    service: SimDuration,
}

impl ReqShape {
    fn of(req: &DmaRequest, arrival: SimTime, service: SimDuration, t: SimTime) -> Self {
        ReqShape {
            bus: req.bus,
            slot: req.slot,
            bytes: req.bytes,
            first: req.is_first,
            last: req.is_last,
            arrival: rel(arrival, t),
            service,
        }
    }
}

/// The train state the handlers read, relative to the boundary time:
/// equal shapes at the start and end of a period mean the next period
/// makes the same calls, shifted by one period. Everything in it belongs
/// to the train: the per-chip entries carry the train's live requests
/// and services, so work elsewhere in the engine leaves it unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
struct Shape {
    /// Lane entries in `(time, seq)` order: time after the boundary, and
    /// the event with its generation taken relative to the current one.
    lane: Vec<(SimDuration, Ev)>,
    /// Per train bus: id, streams (Ready or awaiting an ack), round-robin
    /// cursor.
    buses: Vec<(usize, usize, usize)>,
    /// Per Ready stream of a train bus: transfer slot, requests in the
    /// transfer, next due time.
    streams: Vec<(u32, u64, i64)>,
    /// Per chip of the train: see [`ChipShape`].
    chips: Vec<ChipShape>,
    /// The chips' queued DMA requests, chip by chip.
    queued: Vec<ReqShape>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct ChipShape {
    chip: usize,
    active: bool,
    /// Other work that would interleave: processor, migration, gathered
    /// or wake.
    other_work: bool,
    busy_until: i64,
    last_accrual: i64,
    idle_start: i64,
    planned: Option<PowerMode>,
    serving: Option<ReqShape>,
    queued: usize,
}

/// The monotone counters a period advances, differenced rather than
/// compared.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    requests: u64,
    served: u64,
    service_sum_ps: u64,
    dma_serving_ps: u64,
    dispatch_calls: u64,
    policy_calls: u64,
    /// Per train bus, as in [`Shape::buses`].
    bus_gen: Vec<u64>,
    /// Per Ready stream, as in [`Shape::streams`]: requests issued.
    issued: Vec<u64>,
    /// Per train chip, as in [`Shape::chips`]: policy-timer generation.
    chip: Vec<u64>,
}

/// The train state at one period boundary.
#[derive(Debug, Default)]
struct Signature {
    shape: Shape,
    counts: Counts,
}

impl Signature {
    fn new(buses: usize, chips: usize) -> Self {
        let shape = Shape {
            lane: Vec::with_capacity(LANE_CAPACITY),
            buses: Vec::with_capacity(buses),
            streams: Vec::with_capacity(STREAM_CAPACITY),
            chips: Vec::with_capacity(chips),
            queued: Vec::with_capacity(STREAM_CAPACITY),
        };
        let counts = Counts {
            bus_gen: Vec::with_capacity(buses),
            issued: Vec::with_capacity(STREAM_CAPACITY),
            chip: Vec::with_capacity(chips),
            ..Counts::default()
        };
        Signature { shape, counts }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// Waiting, tick by tick of the opening bus, for the window to settle
    /// and its bound to leave room for a batch.
    Warmup,
    /// Taping the reference period that began at `start`.
    Reference,
    /// Debug builds: about to check the state a batch left behind.
    Landed,
    /// Debug builds: taping the period right after a batch, to check it
    /// against the batch's reference period.
    Verify,
    /// Not looking for a steady state until the bound moves.
    Off,
}

/// Per-engine batching state, reserved once.
#[derive(Debug)]
pub(super) struct Batcher {
    state: State,
    attempts: u32,
    /// Slot period of the window's opening bus.
    slot: SimDuration,
    /// Length of the period found: a whole number of slot periods.
    span: SimDuration,
    /// Start of the period being taped.
    start: SimTime,
    /// The window's batch bound (see [`Engine::batch_bound`]), once
    /// computed. Untraced, it stays valid until the window reaches it:
    /// within a window, only train steps and commuting steps run, and
    /// neither creates an earlier event that does not commute.
    bound: Option<SimTime>,
    /// No reference period starts before this time (see
    /// [`Engine::settle_time`]); set at the window's first boundary.
    settle: Option<SimTime>,
    /// Boundary signatures: `[0]` opens the taped period, `[1]` closes it.
    /// Debug builds use `[2]` to check commuting steps.
    sigs: [Signature; 3],
    /// The last batch's reference period and its start (debug self-check).
    reference: Period,
    reference_t: SimTime,
    bus_marks: Vec<bool>,
    chip_marks: Vec<bool>,
    /// Generation increments of the current batch, by bus and by chip.
    bus_inc: Vec<u64>,
    timer_inc: Vec<u64>,
    /// Traced runs: the tracer's marks at the taped period's start and
    /// end; debug builds use `[2]` at the end of the period after a batch.
    marks: [TraceMark; 3],
    /// Traced runs: the tracer's tape while it is not running, and the
    /// last batch's tape (debug self-check). Reserved on first use.
    span_tape: Option<SpanTape>,
    span_reference: Option<SpanTape>,
    /// Requests booked by batches rather than dispatched.
    pub(super) batched_requests: u64,
}

impl Batcher {
    pub(super) fn new(buses: usize, chips: usize) -> Self {
        Batcher {
            state: State::Off,
            attempts: 0,
            slot: SimDuration::ZERO,
            span: SimDuration::ZERO,
            start: SimTime::ZERO,
            bound: None,
            settle: None,
            sigs: std::array::from_fn(|_| Signature::new(buses, chips)),
            // Only the debug self-check keeps a batch's tape.
            reference: Period::with_capacity(if cfg!(debug_assertions) {
                TAPE_CAPACITY
            } else {
                0
            }),
            reference_t: SimTime::ZERO,
            bus_marks: vec![false; buses],
            chip_marks: vec![false; chips],
            bus_inc: vec![0; buses],
            timer_inc: vec![0; chips],
            marks: Default::default(),
            span_tape: None,
            span_reference: None,
            batched_requests: 0,
        }
    }

    /// Resets for a window opened by a tick of a bus with this slot
    /// period.
    pub(super) fn open(&mut self, slot: SimDuration) {
        self.state = if slot.is_zero() {
            State::Off
        } else {
            State::Warmup
        };
        self.attempts = 0;
        self.slot = slot;
        self.bound = None;
        self.settle = None;
    }

    /// Checks, at window close, that no debug self-check was cut short.
    pub(super) fn close(&self) {
        debug_assert!(
            !matches!(self.state, State::Landed | State::Verify),
            "train window closed inside the period after a batch"
        );
    }
}

fn rel(time: SimTime, t: SimTime) -> i64 {
    time.as_ps() as i64 - t.as_ps() as i64
}

/// Pushes into a buffer reserved once; false (nothing pushed) when full.
fn push<T>(v: &mut Vec<T>, x: T) -> bool {
    let room = v.len() < v.capacity();
    if room {
        v.push(x);
    }
    room
}

/// The train state a step that commutes with it must leave untouched
/// (debug builds): the train's signature, the slack account's fields,
/// the raw Welford state of `request_service`, and each train chip's
/// energy and residency, all bit for bit.
#[derive(Debug, PartialEq)]
pub(super) struct TrainState {
    signed: bool,
    shape: Shape,
    counts: Counts,
    slack: Option<[u64; 6]>,
    service: (u64, u64, u64, Option<u64>, Option<u64>),
    chips: Vec<(EnergyBreakdown, ModeResidency)>,
}

impl Engine<'_> {
    /// Runs at every live tick of the window's opening bus, before the
    /// tick is dispatched; `t` is its time. Returns true when it booked
    /// periods: the lane then moved on and the caller must pick its next
    /// step afresh.
    pub(super) fn period_boundary(&mut self, t: SimTime) -> bool {
        let (t0, slot) = (self.batch.start, self.batch.slot.as_ps());
        let elapsed = t.saturating_since(t0).as_ps();
        let on_grid = elapsed > 0 && elapsed.is_multiple_of(slot);
        match self.batch.state {
            State::Warmup => {
                let settle = self.batch.settle.unwrap_or_else(|| self.settle_time(t));
                self.batch.settle = Some(settle);
                if t >= settle {
                    self.start_reference(t);
                }
            }
            // Ticks off the slot grid belong to other streams of the bus.
            State::Reference if !on_grid && elapsed < MAX_SPAN * slot => {}
            State::Reference => {
                if !self.tape.ok || !on_grid {
                    self.retry(t);
                } else if !self.capture(1, t) {
                    self.stop();
                } else if self.batch.sigs[0].shape == self.batch.sigs[1].shape
                    && self.trace_repeats()
                {
                    self.batch.span = SimDuration::from_ps(elapsed);
                    let bound = self.batch_bound(t);
                    let n = self.batch_len(t, bound);
                    if n > 0 {
                        self.apply(n);
                        return true;
                    }
                    // Steady but out of room until the bound moves.
                    self.stop();
                } else if elapsed >= MAX_SPAN * slot {
                    self.retry(t);
                }
            }
            State::Landed => {
                let ok = self.capture(0, t);
                debug_assert!(
                    ok && self.batch.sigs[0].shape == self.batch.sigs[1].shape,
                    "a batch left a different train state than it booked"
                );
                self.tape_period();
                debug_assert!(
                    !self.traced || {
                        let [landed, end, _] = &self.batch.marks;
                        landed.repeats(end)
                    },
                    "a batch left another tracer state than it booked"
                );
                self.batch.start = t;
                self.batch.state = State::Verify;
            }
            State::Verify if elapsed < self.batch.span.as_ps() => {}
            State::Verify => {
                // The reference period may have ended at a later tick of
                // the same instant: several streams of the opening bus can
                // be due at once.
                debug_assert!(
                    elapsed == self.batch.span.as_ps() && self.tape.ok,
                    "the period after a batch did not come round again"
                );
                if self.capture(0, t) && self.batch.sigs[0].shape == self.batch.sigs[1].shape {
                    let by = t0 - self.batch.reference_t;
                    debug_assert!(
                        self.tape.period.repeats(&self.batch.reference, by),
                        "the period after a batch made other calls than the one it booked"
                    );
                    debug_assert!(
                        self.trace_verified(by),
                        "the period after a batch traced other records than it replayed"
                    );
                    self.warm_up();
                }
            }
            // A zero slot period never batches; otherwise look again once
            // the window has passed its bound.
            State::Off if slot > 0 && self.batch.bound.is_some_and(|b| b <= t) => {
                self.start_reference(t);
            }
            State::Off => {}
        }
        false
    }

    /// The window's batch bound at boundary `t`, recomputed once the
    /// window has reached it (the event there was a train step, or the
    /// window would have closed). A moved bound gives the batcher its
    /// attempts back.
    ///
    /// A traced run's commuting steps push span records, and a batch's
    /// replayed records must all come before them: its bound is the next
    /// event outside the lane. That is read afresh each time (the queue
    /// head is memoized), since a chip that loses its DMA work inside the
    /// window moves its events out of the lane, and can bring it forward.
    fn batch_bound(&mut self, t: SimTime) -> SimTime {
        if self.traced {
            let b = self.next_key().map_or(SimTime::NEVER, |(at, _)| at);
            if self.batch.bound.is_some_and(|prev| prev != b) {
                self.batch.attempts = 0;
            }
            self.batch.bound = Some(b);
            return b;
        }
        match self.batch.bound {
            Some(b) if b > t => b,
            prev => {
                let b = self.train_bound();
                if prev.is_some() {
                    self.batch.attempts = 0;
                }
                self.batch.bound = Some(b);
                b
            }
        }
    }

    /// The earliest time anything outside the open train could act on
    /// it: the first queued event that does not commute with the train
    /// (see [`Engine::commutes`]) and cannot come to, or the first trace
    /// record past the cursor that would not commute, since those are not
    /// scheduled yet. [`SimTime::NEVER`] when there is none.
    fn train_bound(&self) -> SimTime {
        let lasting = |ev: Ev| match ev {
            // A moot timer of a chip with DMA work acts once it idles.
            Ev::PolicyTimer { chip, gen } => gen != self.timer_gen[chip] || self.dma_free(chip),
            // The trace is scanned below.
            Ev::Trace => true,
            ev => self.commutes(ev),
        };
        let queued = self
            .queue
            .pending()
            .filter(|&(_, &ev)| !lasting(ev))
            .map(|(t, _)| t)
            .min();
        let traced = self
            .trace
            .clone()
            .find(|e| !self.record_commutes(e))
            .map(|e| e.time());
        queued
            .into_iter()
            .chain(traced)
            .min()
            .unwrap_or(SimTime::NEVER)
    }

    /// The time from which a window opened at about `t` may take a
    /// reference period: the last queued bus tick or event of a chip with
    /// DMA work within the room a batch needs. Those are what an earlier
    /// window handed back; until they have popped, the lane is still
    /// refilling with their successors and no period would repeat.
    fn settle_time(&self, t: SimTime) -> SimTime {
        let near = t + self.batch.slot * (MIN_BATCH + 2);
        self.queue
            .pending()
            .filter(|&(at, &ev)| {
                at <= near
                    && match ev {
                        Ev::BusTick { .. } => true,
                        ev => ev.chip().is_some_and(|chip| !self.dma_free(chip)),
                    }
            })
            .map(|(at, _)| at)
            .max()
            .unwrap_or(t)
    }

    /// Stops looking for a steady state until the bound moves.
    fn stop(&mut self) {
        self.stop_taping();
        self.batch.state = State::Off;
    }

    /// Starts looking for the next steady state afresh.
    fn warm_up(&mut self) {
        self.stop_taping();
        self.batch.state = State::Warmup;
        self.batch.attempts = 0;
    }

    /// Starts taping a period at the current boundary: the handlers'
    /// operands and, in a traced run, the tracer's records, after a mark
    /// of its state.
    fn tape_period(&mut self) {
        self.tape.restart();
        if self.traced {
            let Engine { obs, batch, .. } = self;
            let [start, ..] = &mut batch.marks;
            obs.mark(start);
            let tape = batch
                .span_tape
                .take()
                .unwrap_or_else(|| SpanTape::with_capacity(SPAN_TAPE_CAPACITY));
            obs.start_tape(tape);
        }
    }

    /// Stops taping, the tracer's records included.
    pub(super) fn stop_taping(&mut self) {
        // The tracer's tape runs exactly while the engine's does.
        if std::mem::replace(&mut self.tape.on, false) && self.traced {
            if let Some(tape) = self.obs.stop_tape() {
                self.batch.span_tape = Some(tape);
            }
        }
    }

    /// True when the taped period also repeats for the tracer (always,
    /// untraced): its records can be replayed, and the tracer's state at
    /// the boundary repeats its state at the period's start.
    fn trace_repeats(&mut self) -> bool {
        if !self.traced {
            return true;
        }
        let Engine { obs, batch, .. } = self;
        let [start, end, _] = &mut batch.marks;
        obs.mark(end);
        obs.tape().is_some_and(SpanTape::is_usable) && end.repeats(start)
    }

    /// Debug builds, traced runs: true when the period after a batch,
    /// which started `by` after the batch's reference period, left the
    /// tracer as it found it and pushed the reference period's records
    /// again.
    fn trace_verified(&mut self, by: SimDuration) -> bool {
        if !self.traced {
            return true;
        }
        let Engine { obs, batch, .. } = self;
        let [start, _, verified] = &mut batch.marks;
        obs.mark(verified);
        verified.repeats(start)
            && batch
                .span_reference
                .as_ref()
                .is_some_and(|reference| obs.tape().is_some_and(|tape| tape.repeats(reference, by)))
    }

    /// Gives up on the current reference period, and starts another one
    /// at `t` unless the window has used up its attempts.
    fn retry(&mut self, t: SimTime) {
        self.batch.attempts += 1;
        if self.batch.attempts < ATTEMPTS {
            self.start_reference(t);
        } else {
            self.stop();
        }
    }

    /// Takes the signature opening a reference period at `t` and starts
    /// taping it, once a batch could fit before the bound.
    fn start_reference(&mut self, t: SimTime) {
        self.stop_taping();
        self.batch.state = State::Warmup;
        if self.batch_bound(t) <= t + self.batch.slot * (MIN_BATCH + 2) {
            return;
        }
        if self.capture(0, t) {
            self.tape_period();
            self.batch.start = t;
            self.batch.state = State::Reference;
        } else {
            self.stop();
        }
    }

    /// Debug builds: the train state at the current clock, for checking a
    /// commuting step (see [`TrainState`]).
    pub(super) fn train_state(&mut self) -> TrainState {
        let signed = self.capture(2, self.now);
        let sig = &self.batch.sigs[2];
        let mut counts = sig.counts.clone();
        // Phase calls are the one thing every step moves.
        counts.dispatch_calls = 0;
        counts.policy_calls = 0;
        let slack = self.slack.as_ref().map(|s| {
            let (epoch, wake, proc, queue) = s.debits_ps();
            [s.slack_ps(), s.min_slack_ps(), epoch, wake, proc, queue].map(f64::to_bits)
        });
        let w = self.request_service.raw();
        TrainState {
            signed,
            shape: sig.shape.clone(),
            counts,
            slack,
            service: (
                w.count(),
                w.mean().to_bits(),
                w.population_variance().to_bits(),
                w.min().map(f64::to_bits),
                w.max().map(f64::to_bits),
            ),
            chips: sig
                .shape
                .chips
                .iter()
                .map(|c| {
                    let chip = &self.chips[c.chip].chip;
                    (chip.energy().clone(), *chip.residency())
                })
                .collect(),
        }
    }

    /// Captures the train state at boundary time `t` into `sigs[which]`.
    /// False when the state cannot be batched: a train bus of another
    /// slot period or discipline, a chip serving anything but a DMA
    /// request, or a full buffer.
    fn capture(&mut self, which: usize, t: SimTime) -> bool {
        let Engine {
            batch,
            lane,
            buses,
            bus_gen,
            chips,
            serving,
            timer_gen,
            planned_mode,
            wake_requested,
            idle_start,
            tracks,
            phases,
            ..
        } = self;
        let sig = &mut batch.sigs[which];
        let (shape, counts) = (&mut sig.shape, &mut sig.counts);
        shape.lane.clear();
        shape.buses.clear();
        shape.streams.clear();
        shape.chips.clear();
        shape.queued.clear();
        counts.bus_gen.clear();
        counts.issued.clear();
        counts.chip.clear();
        batch.bus_marks.fill(false);
        batch.chip_marks.fill(false);

        for e in lane.in_order() {
            let ev = match e.ev {
                Ev::BusTick { bus, gen } => {
                    batch.bus_marks[bus] = true;
                    Ev::BusTick {
                        bus,
                        gen: gen.wrapping_sub(bus_gen[bus]),
                    }
                }
                Ev::PolicyTimer { chip, gen } => {
                    batch.chip_marks[chip] = true;
                    Ev::PolicyTimer {
                        chip,
                        gen: gen.wrapping_sub(timer_gen[chip]),
                    }
                }
                Ev::ServiceDone { chip } => {
                    batch.chip_marks[chip] = true;
                    e.ev
                }
                _ => return false,
            };
            if !push(&mut shape.lane, (e.time - t, ev)) {
                return false;
            }
        }
        for (id, b) in buses.iter().enumerate() {
            if !batch.bus_marks[id] {
                continue;
            }
            if b.config().discipline != BusDiscipline::PerEngine
                || b.slot_period() != batch.slot
                || !push(&mut shape.buses, (id, b.active_transfers(), b.rr_cursor()))
                || !push(&mut counts.bus_gen, bus_gen[id])
            {
                return false;
            }
            for s in b.ready_streams() {
                if !push(&mut shape.streams, (s.slot, s.total, rel(s.next_due, t)))
                    || !push(&mut counts.issued, s.next_seq)
                {
                    return false;
                }
                if let Some(track) = tracks.get(s.slot) {
                    batch.chip_marks[track.chip] = true;
                }
            }
        }
        for (id, c) in chips.iter().enumerate() {
            if !batch.chip_marks[id] {
                continue;
            }
            let serving = match serving[id] {
                None => None,
                Some(Serving::Dma {
                    req,
                    arrival,
                    service,
                }) => Some(ReqShape::of(&req, arrival, service, t)),
                Some(_) => return false,
            };
            let chip = ChipShape {
                chip: id,
                active: c.chip.is_active(),
                other_work: !c.proc_ready.is_empty()
                    || !c.mig_ready.is_empty()
                    || !c.pending.is_empty()
                    || wake_requested[id],
                busy_until: rel(c.chip.busy_until(), t),
                last_accrual: rel(c.chip.last_accrual(), t),
                idle_start: rel(idle_start[id], t),
                planned: planned_mode[id],
                serving,
                queued: c.dma_ready.len(),
            };
            if !push(&mut shape.chips, chip) || !push(&mut counts.chip, timer_gen[id]) {
                return false;
            }
            for r in &c.dma_ready {
                if !push(
                    &mut shape.queued,
                    ReqShape::of(&r.req, r.arrival, SimDuration::ZERO, t),
                ) {
                    return false;
                }
            }
        }
        counts.requests = self.dma_requests;
        counts.served = self.served;
        counts.service_sum_ps = self.service_sum_ps;
        counts.dma_serving_ps = self.dma_serving.as_ps();
        counts.dispatch_calls = phases.get(Phase::Dispatch).calls;
        counts.policy_calls = phases.get(Phase::Policy).calls;
        true
    }

    /// How many periods after the reference one, which ended at `t`, can
    /// be booked. The lane after them (at least one more period, and all
    /// of its entries) must lie before `bound`, so nothing outside the
    /// train acts inside the booked span and no event that does not
    /// commute ties with a shifted lane entry. Every stream must keep
    /// requests beyond that lane, so the train stays live through it, and
    /// issue only middle requests.
    fn batch_len(&self, t: SimTime, bound: SimTime) -> u64 {
        let [s0, s1, _] = &self.batch.sigs;
        let (p, slot) = (self.batch.span.as_ps(), self.batch.slot.as_ps());
        if p == 0 || s1.counts.issued.is_empty() {
            return 0;
        }
        let reach = s1.shape.lane.last().map_or(0, |(d, _)| d.as_ps()).max(p);
        let mut n = if bound == SimTime::NEVER {
            u64::MAX
        } else {
            bound.saturating_since(t).as_ps().saturating_sub(reach + 1) / p
        };
        for ((&(_, total, _), &i0), &i1) in s1
            .shape
            .streams
            .iter()
            .zip(&s0.counts.issued)
            .zip(&s1.counts.issued)
        {
            let d = i1.saturating_sub(i0);
            if d == 0 {
                return 0;
            }
            // A stream issues at most one request per slot.
            let keep = d.max(reach.div_ceil(slot)) + 2;
            n = n.min(total.saturating_sub(i1 + keep) / d);
        }
        n
    }

    /// Books `n` periods after the reference one: adds its operands `n`
    /// times over to their accumulators, advances the integer ledgers and
    /// counters in closed form, and shifts the in-flight requests and the
    /// lane by `n` periods.
    fn apply(&mut self, n: u64) {
        let step = self.batch.span;
        let shift = step * n;
        let Engine {
            tape,
            batch,
            chips,
            slack,
            request_service,
            ..
        } = self;
        let period = &tape.period;
        // Each accumulator takes the reference period's operands in call
        // order, period after period. Calls on different accumulators
        // commute, so the replay runs accumulator by accumulator. Every
        // taped call passed its asserts (`begin_service`'s free-chip and
        // time-order checks, `accrue`'s power check), and a booked period
        // is the reference one shifted by `k·P`, so its calls pass them too.
        // Each served chip once; `chip_marks` is free between captures.
        batch.chip_marks.fill(false);
        for &(chip, _, _) in &period.serves {
            if std::mem::replace(&mut batch.chip_marks[chip], true) {
                continue;
            }
            let accruals = period.accruals.iter().filter(|(c, _)| *c == chip);
            let services = period.serves.iter().filter(|s| s.0 == chip).count();
            chips[chip]
                .chip
                .book_rounds(accruals.map(|&(_, a)| a), services as u64, step, n);
        }
        if let Some(slack) = slack {
            slack.book_rounds(&period.slack, n);
        }
        request_service.record_rounds_ns(&period.records, n);
        // `next_step` is a pure query, so only debug builds ask it again.
        if cfg!(debug_assertions) {
            for k in 1..=n {
                let by = step * k;
                for &(chip, mode, at, answer) in &period.arms {
                    debug_assert_eq!(
                        chips[chip].policy.next_step(mode, at + by),
                        answer.map(|(mode, when)| (mode, when + by)),
                        "policy arm is not shift-invariant"
                    );
                }
            }
        }

        let Engine { batch, .. } = self;
        let [s0, s1, _] = &batch.sigs;
        let (c0, c1) = (&s0.counts, &s1.counts);
        // Requests each Ready stream issues per period, by transfer slot.
        let issued_per_period = |slot: u32| {
            s1.shape
                .streams
                .iter()
                .zip(c0.issued.iter().zip(&c1.issued))
                .find(|((s, _, _), _)| *s == slot)
                .map_or(0, |(_, (i0, i1))| i1 - i0)
        };
        let outside = &self.tape.outside;
        let requests = n * (c1.requests - c0.requests);
        self.dma_requests += requests;
        batch.batched_requests += requests;
        self.served += n * (c1.served - c0.served);
        self.service_sum_ps += n * (c1.service_sum_ps - c0.service_sum_ps);
        self.dma_serving += SimDuration::from_ps(n * (c1.dma_serving_ps - c0.dma_serving_ps));
        for (phase, c0, c1) in [
            (Phase::Dispatch, c0.dispatch_calls, c1.dispatch_calls),
            (Phase::Policy, c0.policy_calls, c1.policy_calls),
        ] {
            self.phases
                .note_n(phase, n * (c1 - c0 - outside.get(phase).calls));
        }
        for ((&(bus, _, _), &g0), &g1) in s1.shape.buses.iter().zip(&c0.bus_gen).zip(&c1.bus_gen) {
            // Issuing holds no floating point: one closed-form step.
            self.buses[bus].repeat(shift, n, issued_per_period);
            batch.bus_inc[bus] = n * (g1 - g0);
            self.bus_gen[bus] += batch.bus_inc[bus];
        }
        for ((chip, &g0), &g1) in s1.shape.chips.iter().zip(&c0.chip).zip(&c1.chip) {
            let id = chip.chip;
            batch.timer_inc[id] = n * (g1 - g0);
            self.timer_gen[id] += batch.timer_inc[id];
            self.idle_start[id] += shift;
            // The in-flight requests are the same ones `n` periods on:
            // later arrivals, and each `d·n` further into its transfer.
            if let Some(Serving::Dma { req, arrival, .. }) = &mut self.serving[id] {
                *arrival += shift;
                req.seq += n * issued_per_period(req.slot);
            }
            for r in &mut self.chips[id].dma_ready {
                r.arrival += shift;
                r.req.seq += n * issued_per_period(r.req.slot);
            }
        }
        let (bus_inc, timer_inc) = (&batch.bus_inc, &batch.timer_inc);
        self.lane.shift(shift, |ev| match ev {
            Ev::BusTick { bus, gen } => Ev::BusTick {
                bus,
                gen: gen + bus_inc[bus],
            },
            Ev::PolicyTimer { chip, gen } => Ev::PolicyTimer {
                chip,
                gen: gen + timer_inc[chip],
            },
            ev => ev,
        });

        if self.traced {
            let Engine { obs, batch, .. } = self;
            // simlint::allow(panic-path, "a traced reference period starts the tracer's tape and only a batch or a stop takes it")
            let tape = obs.stop_tape().expect("a traced period runs a tape");
            let [m0, m1, _] = &batch.marks;
            obs.replay(&tape, m0, m1, n, step);
            if cfg!(debug_assertions) {
                batch.span_tape = batch.span_reference.replace(tape);
            } else {
                batch.span_tape = Some(tape);
            }
        }

        if cfg!(debug_assertions) {
            std::mem::swap(&mut self.tape.period, &mut self.batch.reference);
            self.batch.reference_t = self.batch.start;
            // The post-batch state is checked against `sigs[1]`.
            self.stop_taping();
            self.batch.state = State::Landed;
        } else {
            self.warm_up();
        }
    }
}
