//! Trace event model and the column layout traces are stored in.

use std::fmt;

use iobus::{BusId, DmaDirection, DmaSource, PageId};
use simcore::{SimDuration, SimTime};

use crate::popularity::PopularityCdf;
use crate::stats::TraceStats;

/// One large DMA transfer in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaRecord {
    /// When the transfer starts issuing requests.
    pub time: SimTime,
    /// Bus carrying the transfer.
    pub bus: BusId,
    /// Logical page moved.
    pub page: PageId,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Direction relative to memory.
    pub direction: DmaDirection,
    /// Initiating device class.
    pub source: DmaSource,
}

/// One processor access (a cache-line fill/writeback) in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcRecord {
    /// When the access reaches memory.
    pub time: SimTime,
    /// Logical page touched.
    pub page: PageId,
    /// Access size in bytes (typically one 64-byte cache line).
    pub bytes: u64,
}

/// A memory access in a data-server trace: either a DMA transfer or a
/// processor access (paper Table 2 traces contain both kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A DMA transfer.
    Dma(DmaRecord),
    /// A processor access.
    Proc(ProcRecord),
}

impl TraceEvent {
    /// The event's timestamp.
    #[inline]
    pub fn time(&self) -> SimTime {
        match self {
            TraceEvent::Dma(d) => d.time,
            TraceEvent::Proc(p) => p.time,
        }
    }

    /// The logical page the event touches.
    pub fn page(&self) -> PageId {
        match self {
            TraceEvent::Dma(d) => d.page,
            TraceEvent::Proc(p) => p.page,
        }
    }

    /// True for DMA transfers.
    pub fn is_dma(&self) -> bool {
        matches!(self, TraceEvent::Dma(_))
    }
}

// Record words. The low `KIND_BITS` of a word give the record's kind;
// the rest depends on it:
//
// | kind     | bits above the kind                  | record                       |
// |----------|--------------------------------------|------------------------------|
// | `PROC`   | page (32 bits), time delta (30 bits) | a 64-byte processor access   |
// | `DMA`    | time delta (62 bits)                 | the DMA column's next entry  |
// | `ESCAPE` | unused                               | the escape column's next one |
//
// A delta is the time since the previous record (since zero for the
// first). A processor access whose delta, page or size does not fit, and
// a DMA whose delta does not, is stored whole in the escape column, with
// its absolute time.
const KIND_BITS: u32 = 2;
const KIND_MASK: u64 = (1 << KIND_BITS) - 1;
const PROC: u64 = 0;
const DMA: u64 = 1;
const ESCAPE: u64 = 2;
/// Width of a processor access's page, and of a staged record's payload.
const PAYLOAD_BITS: u32 = 32;
const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;
/// An inline processor access's delta sits above its page: up to
/// 2^30 ps (about 1.07 ms).
const PROC_DELTA_SHIFT: u32 = KIND_BITS + PAYLOAD_BITS;
/// The size of an inline processor access: one cache line.
const LINE_BYTES: u64 = 64;
/// A staged record's push order sits above its payload, so sorting staged
/// records by `(time, word)` keeps pushes of equal time in push order.
const SEQ_BITS: u32 = 64 - PROC_DELTA_SHIFT;

/// A DMA transfer without its time, which its record word carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DmaBody {
    bus: BusId,
    page: PageId,
    bytes: u64,
    direction: DmaDirection,
    source: DmaSource,
}

impl DmaBody {
    fn of(d: &DmaRecord) -> Self {
        DmaBody {
            bus: d.bus,
            page: d.page,
            bytes: d.bytes,
            direction: d.direction,
            source: d.source,
        }
    }

    #[inline]
    fn at(self, time: SimTime) -> DmaRecord {
        DmaRecord {
            time,
            bus: self.bus,
            page: self.page,
            bytes: self.bytes,
            direction: self.direction,
            source: self.source,
        }
    }
}

/// A time-ordered memory access trace.
///
/// Records are stored by column. Every record has one 8-byte word in
/// record order: a 64-byte processor access is stored whole in it, as its
/// page and its time since the previous record. A DMA transfer's word
/// holds its time delta and the rest of the transfer is the next entry of
/// a DMA column. A record that fits neither form (a gap of 2^30 ps, about
/// 1.07 ms, or more before a processor access, a page of 2^32 or above, an
/// access of other than 64 bytes) is kept whole in an escape column. A trace
/// thus takes 8 bytes per processor access and 40 per DMA transfer, where
/// a [`TraceEvent`] takes 40 for either.
///
/// Records are read by value, through a [`Cursor`] ([`Trace::iter`]).
///
/// # Example
///
/// ```
/// use dma_trace::{DmaRecord, Trace, TraceEvent};
/// use iobus::{DmaDirection, DmaSource};
/// use simcore::{SimDuration, SimTime};
///
/// let e = TraceEvent::Dma(DmaRecord {
///     time: SimTime::ZERO + SimDuration::from_us(3),
///     bus: 0,
///     page: 7,
///     bytes: 8192,
///     direction: DmaDirection::FromMemory,
///     source: DmaSource::Network,
/// });
/// let trace = Trace::from_events(vec![e]);
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.iter().next(), Some(e));
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Trace {
    /// One word per record, in record order.
    words: Vec<u64>,
    /// The DMA records' other fields, in record order.
    dmas: Vec<DmaBody>,
    /// Records stored whole, in record order.
    escapes: Vec<TraceEvent>,
    /// Time of the last record (zero for an empty trace).
    end: SimTime,
}

impl Trace {
    /// Builds a trace, sorting events by time (stable, so simultaneous
    /// events keep their given order).
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        events.into_iter().collect()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterates over events in time order.
    #[inline]
    pub fn iter(&self) -> Cursor<'_> {
        Cursor {
            trace: self,
            place: Place::default(),
        }
    }

    /// Timestamp of the last event (zero for an empty trace).
    pub fn duration(&self) -> SimDuration {
        self.end.elapsed_since(SimTime::ZERO)
    }

    /// Bytes of heap the trace's columns hold.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.dmas.capacity() * std::mem::size_of::<DmaBody>()
            + self.escapes.capacity() * std::mem::size_of::<TraceEvent>()
    }

    /// Summary statistics (the rows of the paper's Table 2).
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_trace(self)
    }

    /// The DMA page-popularity CDF (the paper's Figure 4).
    pub fn popularity_cdf(&self) -> PopularityCdf {
        PopularityCdf::from_trace(self)
    }

    /// Merges two traces into one time-ordered trace. At equal times,
    /// `self`'s events come first.
    pub fn merge(self, other: Trace) -> Trace {
        self.iter().chain(&other).collect()
    }

    /// A copy containing only events strictly before `cutoff` (useful for
    /// warm-up splits).
    pub fn truncated(&self, cutoff: SimTime) -> Trace {
        self.iter().take_while(|e| e.time() < cutoff).collect()
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = TraceEvent;
    type IntoIter = Cursor<'a>;

    fn into_iter(self) -> Cursor<'a> {
        self.iter()
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let mut b = TraceBuilder::default();
        for e in iter {
            b.push(e);
        }
        b.build()
    }
}

impl Extend<TraceEvent> for Trace {
    /// Adds events and re-sorts; at equal times the trace's own events
    /// come first.
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        *self = self.iter().chain(iter).collect();
    }
}

impl Trace {
    /// Time of the record at `place`, or `None` past the last one.
    #[inline]
    fn time_at(&self, place: &Place) -> Option<SimTime> {
        let &w = self.words.get(place.word)?;
        Some(match w & KIND_MASK {
            PROC => SimTime::from_ps(place.time + (w >> PROC_DELTA_SHIFT)),
            DMA => SimTime::from_ps(place.time + (w >> KIND_BITS)),
            _ => self.escapes.get(place.escape)?.time(),
        })
    }

    /// The record at `place`, moving `place` past it; `None` past the
    /// last one.
    #[inline]
    fn read(&self, place: &mut Place) -> Option<TraceEvent> {
        let &w = self.words.get(place.word)?;
        let e = match w & KIND_MASK {
            PROC => {
                place.time += w >> PROC_DELTA_SHIFT;
                TraceEvent::Proc(ProcRecord {
                    time: SimTime::from_ps(place.time),
                    page: (w >> KIND_BITS) & PAYLOAD_MASK,
                    bytes: LINE_BYTES,
                })
            }
            DMA => {
                place.time += w >> KIND_BITS;
                let &body = self.dmas.get(place.dma)?;
                place.dma += 1;
                TraceEvent::Dma(body.at(SimTime::from_ps(place.time)))
            }
            _ => {
                let &e = self.escapes.get(place.escape)?;
                place.escape += 1;
                place.time = e.time().as_ps();
                e
            }
        };
        place.word += 1;
        Some(e)
    }
}

/// A reader's place in a trace's columns: the index of the next record's
/// word, of the next DMA body and of the next escaped record, and the
/// time of the record before them in picoseconds (zero before the first).
#[derive(Debug, Clone, Copy, Default)]
struct Place {
    word: usize,
    dma: usize,
    escape: usize,
    time: u64,
}

/// A forward cursor over a [`Trace`]: its records in time order, by value.
///
/// The cursor keeps its place in each column and the absolute time of
/// the last record it passed, so a step decodes one word. Cloning it is
/// cheap, and a clone looks ahead without moving the original.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    trace: &'a Trace,
    place: Place,
}

impl Cursor<'_> {
    /// Time of the next record, or `None` once every record is passed.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.trace.time_at(&self.place)
    }

    /// The next record if it is due by `now` (its time is `now` or
    /// earlier), advancing past it; `None` otherwise.
    #[inline]
    pub fn next_due(&mut self, now: SimTime) -> Option<TraceEvent> {
        if self.peek_time()? > now {
            return None;
        }
        self.next()
    }

    /// Time of the last record passed (zero before the first). Once the
    /// cursor is done, the trace's [`duration`](Trace::duration) past
    /// zero.
    #[inline]
    pub fn time(&self) -> SimTime {
        SimTime::from_ps(self.place.time)
    }

    /// True once every record is passed.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.place.word >= self.trace.words.len()
    }
}

impl Iterator for Cursor<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        self.trace.read(&mut self.place)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.trace.words.len() - self.place.word;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Cursor<'_> {}

/// Staged records past which [`TraceBuilder::settle`] packs.
const PACK_AT: usize = 1 << 16;

/// Packs records into a [`Trace`]: the one way every trace is built.
///
/// A pushed record is staged in 16 bytes: its time, and a word holding
/// its push order, its kind and a payload (a processor access's page, or
/// an index into a side list of the builder's DMA bodies or escaped
/// records). Packing sorts the staged records by time in place, pushes of
/// equal time in push order, and appends them to the trace's columns.
/// [`build`] packs whatever is staged and trims the columns to size.
///
/// A generator whose records never come earlier than a moving bound
/// calls [`settle`] with it, and the builder then packs the records
/// before it once enough are staged: staging stays bounded instead of
/// holding 16 bytes for every record until [`build`].
///
/// [`build`]: TraceBuilder::build
/// [`settle`]: TraceBuilder::settle
#[derive(Debug, Default)]
pub(crate) struct TraceBuilder {
    staged: Vec<(u64, u64)>,
    dmas: Vec<DmaBody>,
    escapes: Vec<TraceEvent>,
    /// The records packed so far.
    trace: Trace,
    /// Records pushed so far.
    pushed: u64,
    /// No record may be pushed earlier than this, in picoseconds.
    settled: u64,
}

impl TraceBuilder {
    /// Adds a record.
    ///
    /// # Panics
    ///
    /// Panics past 2^30 records, and on a record earlier than a time
    /// passed to [`settle`](TraceBuilder::settle).
    pub(crate) fn push(&mut self, e: TraceEvent) {
        let time = e.time().as_ps();
        assert!(
            time >= self.settled,
            "trace record pushed before a settled time"
        );
        let seq = self.pushed;
        assert!(seq < 1 << SEQ_BITS, "a trace holds at most 2^30 records");
        self.pushed += 1;
        let (kind, payload) = match e {
            TraceEvent::Proc(p) if p.bytes == LINE_BYTES && p.page <= PAYLOAD_MASK => {
                (PROC, p.page)
            }
            TraceEvent::Dma(d) => {
                self.dmas.push(DmaBody::of(&d));
                (DMA, self.dmas.len() as u64 - 1)
            }
            e => {
                self.escapes.push(e);
                (ESCAPE, self.escapes.len() as u64 - 1)
            }
        };
        self.staged
            .push((time, seq << PROC_DELTA_SHIFT | payload << KIND_BITS | kind));
    }

    /// Promises that no record pushed from now on is earlier than `t`.
    pub(crate) fn settle(&mut self, t: SimTime) {
        self.settled = self.settled.max(t.as_ps());
        if self.staged.len() >= PACK_AT {
            self.pack(Some(self.settled));
        }
    }

    /// Packs every record and returns the trace.
    pub(crate) fn build(mut self) -> Trace {
        self.pack(None);
        let mut trace = self.trace;
        trace.words.shrink_to_fit();
        trace.dmas.shrink_to_fit();
        trace.escapes.shrink_to_fit();
        trace
    }

    /// Packs the staged records whose time is before `before` (all of
    /// them for `None`) in time order. Each comes after every record
    /// packed earlier, since none was pushed before the settled time.
    fn pack(&mut self, before: Option<u64>) {
        // The push order in each word breaks ties of time.
        self.staged.sort_unstable();
        let n = before.map_or(self.staged.len(), |b| {
            self.staged.partition_point(|&(t, _)| t < b)
        });
        if self.trace.words.is_empty() {
            self.trace.words.reserve_exact(n);
        }
        for i in 0..n {
            self.pack_one(self.staged[i]);
        }
        self.staged.drain(..n);
    }

    /// Appends the record staged as `(time, word)` to the trace.
    fn pack_one(&mut self, (time, word): (u64, u64)) {
        let trace = &mut self.trace;
        let before = Place {
            word: trace.words.len(),
            dma: trace.dmas.len(),
            escape: trace.escapes.len(),
            time: trace.end.as_ps(),
        };
        let delta = time - before.time;
        let payload = (word >> KIND_BITS) & PAYLOAD_MASK;
        let packed = match word & KIND_MASK {
            PROC if delta >> (64 - PROC_DELTA_SHIFT) == 0 => {
                delta << PROC_DELTA_SHIFT | payload << KIND_BITS | PROC
            }
            DMA if delta >> (64 - KIND_BITS) == 0 => {
                trace.dmas.push(self.dmas[payload as usize]);
                delta << KIND_BITS | DMA
            }
            _ => {
                let e = Self::record(&self.dmas, &self.escapes, (time, word));
                trace.escapes.push(e);
                ESCAPE
            }
        };
        trace.words.push(packed);
        trace.end = SimTime::from_ps(time);
        debug_assert_eq!(
            trace.read(&mut { before }),
            Some(Self::record(&self.dmas, &self.escapes, (time, word))),
            "a packed trace record does not decode back to itself"
        );
    }

    /// The record staged as `(time, word)`, given the side lists.
    fn record(dmas: &[DmaBody], escapes: &[TraceEvent], (time, word): (u64, u64)) -> TraceEvent {
        let time = SimTime::from_ps(time);
        let payload = (word >> KIND_BITS) & PAYLOAD_MASK;
        match word & KIND_MASK {
            PROC => TraceEvent::Proc(ProcRecord {
                time,
                page: payload,
                bytes: LINE_BYTES,
            }),
            DMA => TraceEvent::Dma(dmas[payload as usize].at(time)),
            _ => escapes[payload as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dma_at(us: u64, page: PageId) -> TraceEvent {
        TraceEvent::Dma(DmaRecord {
            time: SimTime::ZERO + SimDuration::from_us(us),
            bus: 0,
            page,
            bytes: 8192,
            direction: DmaDirection::FromMemory,
            source: DmaSource::Network,
        })
    }

    fn proc_at(us: u64, page: PageId) -> TraceEvent {
        TraceEvent::Proc(ProcRecord {
            time: SimTime::ZERO + SimDuration::from_us(us),
            page,
            bytes: 64,
        })
    }

    #[test]
    fn from_events_sorts_by_time() {
        let t = Trace::from_events(vec![dma_at(30, 1), proc_at(10, 2), dma_at(20, 3)]);
        let times: Vec<u64> = t.iter().map(|e| e.time().as_ps() / 1_000_000).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!(t.duration(), SimDuration::from_us(30));
    }

    #[test]
    fn merge_interleaves() {
        let a = Trace::from_events(vec![dma_at(10, 1), dma_at(30, 1)]);
        let b = Trace::from_events(vec![proc_at(20, 2)]);
        let m = a.merge(b);
        assert_eq!(m.len(), 3);
        assert!(!m.iter().nth(1).unwrap().is_dma());
    }

    #[test]
    fn truncated_keeps_prefix() {
        let t = Trace::from_events(vec![dma_at(10, 1), dma_at(20, 2), dma_at(30, 3)]);
        let cut = t.truncated(SimTime::ZERO + SimDuration::from_us(20));
        assert_eq!(cut.len(), 1);
        assert_eq!(cut.iter().next().unwrap().page(), 1);
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Trace = vec![dma_at(5, 1)].into_iter().collect();
        t.extend(vec![dma_at(1, 2)]);
        assert_eq!(t.iter().next().unwrap().page(), 2);
        let pages: Vec<PageId> = (&t).into_iter().map(|e| e.page()).collect();
        assert_eq!(pages, vec![2, 1]);
    }

    #[test]
    fn records_that_do_not_fit_a_word_escape() {
        let far = 1 << 40;
        let events = vec![
            proc_at(1, 1),
            // A gap past the inline delta, then a page past 32 bits.
            proc_at(far, 2),
            proc_at(far, 1 << 32),
            TraceEvent::Proc(ProcRecord {
                time: SimTime::ZERO + SimDuration::from_us(far),
                page: 3,
                bytes: 128,
            }),
            dma_at(far, 4),
            proc_at(far + 1, 5),
        ];
        let t = Trace::from_events(events.clone());
        assert_eq!(t.iter().collect::<Vec<_>>(), events);
        assert_eq!((t.dmas.len(), t.escapes.len()), (1, 3));
        assert_eq!(t.duration(), SimDuration::from_us(far + 1));
    }

    #[test]
    fn columns_are_exactly_sized() {
        let t = Trace::from_events(vec![dma_at(2, 1), proc_at(1, 2), proc_at(3, 3)]);
        assert_eq!(
            t.heap_bytes(),
            3 * std::mem::size_of::<u64>() + std::mem::size_of::<DmaBody>()
        );
        assert!(std::mem::size_of::<DmaBody>() + 8 <= std::mem::size_of::<DmaRecord>());
    }

    #[test]
    fn cursor_clones_look_ahead_and_next_due_stops_at_now() {
        let t = Trace::from_events(vec![proc_at(1, 1), dma_at(1, 2), proc_at(5, 3)]);
        let mut c = t.iter();
        let at = |us| SimTime::ZERO + SimDuration::from_us(us);
        assert_eq!(c.peek_time(), Some(at(1)));
        assert_eq!(c.clone().filter(|e| e.is_dma()).count(), 1);
        assert_eq!(c.next_due(at(1)).map(|e| e.page()), Some(1));
        assert_eq!(c.next_due(at(1)).map(|e| e.page()), Some(2));
        assert_eq!(c.next_due(at(4)), None);
        assert_eq!((c.len(), c.time(), c.peek_time()), (1, at(1), Some(at(5))));
        assert_eq!(c.next_due(at(5)).map(|e| e.page()), Some(3));
        assert!(c.is_done());
        assert_eq!((c.peek_time(), c.time()), (None, at(5)));
    }

    #[test]
    fn settling_packs_early_without_moving_a_record() {
        // Bursts around each transfer, as the database generators push
        // them, with many equal stamps, over several packs.
        let mut rng = simcore::rng::DetRng::new(5);
        let (mut events, mut b) = (Vec::new(), TraceBuilder::default());
        for i in 0..3_000u64 {
            let t = 50 + i * 10;
            b.settle(SimTime::ZERO + SimDuration::from_us(t - 50));
            let mut push = |e| {
                events.push(e);
                b.push(e);
            };
            push(dma_at(t, i));
            for _ in 0..100 {
                push(proc_at(t - 50 + rng.below(100), rng.below(64)));
            }
        }
        assert!(events.len() > 4 * PACK_AT);
        assert_eq!(b.build(), Trace::from_events(events));
    }

    #[test]
    #[should_panic(expected = "pushed before a settled time")]
    fn a_record_before_the_settled_time_is_refused() {
        let mut b = TraceBuilder::default();
        b.settle(SimTime::ZERO + SimDuration::from_us(5));
        b.push(proc_at(4, 1));
    }

    #[test]
    fn empty_trace_duration_zero() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.duration(), SimDuration::ZERO);
    }
}
