//! Causal span tracing with Chrome/Perfetto `trace_event` export.
//!
//! A [`TraceBuffer`] records a span tree over simulated time: `begin`/`end`
//! pairs (optionally parented to an enclosing span), point-in-time
//! instants, and counter samples. Records live in a bounded ring (oldest
//! dropped first) and carry monotonic [`SimTime`] stamps, so a buffer can
//! run for the whole simulation at a fixed memory cost.
//!
//! Tracks give records a home row in the exported view: the simulator
//! registers one track per memory chip and one per I/O bus. Export
//! ([`TraceBuffer::to_chrome_json`]) emits the Chrome `trace_event` JSON
//! dialect that Perfetto and `chrome://tracing` open directly:
//!
//! * each track becomes its own process (`pid` = track index + 1) named by
//!   a `process_name` metadata event;
//! * spans on [`TrackKind::Chip`] tracks are synchronous duration events
//!   (`ph: "B"/"E"`) — chip activity phases strictly nest;
//! * spans on [`TrackKind::Bus`] tracks are nestable async events
//!   (`ph: "b"/"e"`) keyed by the *root* span's id, so a transfer and its
//!   phase children share one async row even while transfers overlap;
//! * counter samples become `ph: "C"` events and instants `ph: "i"`.
//!
//! The buffer is deterministic: identical call sequences produce
//! byte-identical JSON, which the golden-file tests rely on.
//!
//! # Record layout
//!
//! One ring record is 16 bytes: the stamp in ps and one packed word,
//! whose top two bits give the kind. A begin packs its track and its name
//! (16 bits each; names are interned per buffer) and its parent as the
//! distance `id − parent` in 30 bits, 0 meaning none. An end packs the
//! id of the span it closes. A begin's own id is implicit: begins enter
//! the ring in id order and the ring is a suffix of the record stream, so
//! the buffer keeps the id of the oldest retained begin and counts up
//! from it. A counter's sample sits in a side queue that is pushed and
//! popped with its record. The encoding sets three limits, each a
//! documented panic: at most 65,536 tracks and 65,536 distinct names per
//! buffer, and a parent must precede its child by fewer than 2^30 spans.
//!
//! The open spans sit in a table dense by span id, so closing a span is
//! O(1). A span left open while 2^16 younger spans begin moves to a short
//! list sorted by id, so one long-lived span (a chip asleep for the whole
//! run) does not hold the table open behind it.
//!
//! # Checks
//!
//! The span tree is checked as it is recorded, against that same table:
//! no record's stamp may run below the last one, a begin's parent must
//! still be open, an end must close an open span, and the spans of a
//! [`TrackKind::Chip`] track must close innermost first. Every record of
//! the run passes the checks, whatever the ring later drops or streams
//! out, so [`TraceBuffer::validate`] reads the verdict in O(1): the first
//! failure, named by its record's index in the whole stream, or the
//! run's totals.
//!
//! # Replay
//!
//! A stretch of the record stream that repeats itself, shifted in time
//! and in span ids, can be recorded again without the calls that made
//! it. [`TraceBuffer::start_tape`] copies every record pushed from then
//! on into a [`SpanTape`], and [`TraceBuffer::replay`] pushes the taped
//! stretch `n` more times, copy `k` stamped `k` periods later. A begin's
//! id is the stream's next one, as always; an end closes the id `k·B`
//! past the taped one, `B` being the taped begins; a parent begun before
//! the stretch stays, one begun inside it shifts with it. Each copy goes
//! through the ring's own push and the same checks, so eviction, the
//! spill writer, the span table and the chip stacks see what the
//! explicit calls would have given them. Only begins and ends replay: a
//! stretch holding an instant or a counter leaves the tape unusable.
//!
//! # Streaming export
//!
//! One writer renders every export, one line per record in record order.
//! [`TraceBuffer::to_chrome_json`] runs it over the retained ring into
//! memory. Arming a [`SpillSink`] ([`TraceBuffer::arm_spill`]) runs it
//! incrementally instead: the Chrome JSON header goes out at arm time,
//! each record the full ring displaces is written where it sits in the
//! record stream, and [`TraceBuffer::finalize_spill`] writes the retained
//! ring and the footer. The file grows while memory stays bounded, and a
//! spilled run's file is byte-identical to the in-memory export of a ring
//! large enough to hold the whole run. The writer keeps the render data
//! of each span from its begin until its end is written, dense by span
//! id. Loss is never silent: streamed records count in
//! [`TraceBuffer::spilled`] and failed writes count in
//! [`TraceBuffer::dropped`]. A file sink is buffered, so a write error
//! surfaces when its buffer flushes: one failed flush counts once in
//! `dropped` however many records it held, so loss is counted per flush.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::time::{SimDuration, SimTime};

use super::json::{escape_into, JsonObject};

/// What a track represents; decides the span encoding on export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackKind {
    /// A memory chip: spans strictly nest (duration events).
    Chip,
    /// An I/O bus: spans overlap (nestable async events).
    Bus,
}

/// Identifies a registered track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(u16);

/// Identifies a span within one buffer (ids are never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// The span's place in its buffer's begin order, from 0.
    pub fn index(self) -> u64 {
        self.0
    }

    /// The span begun `by` begins after this one.
    pub fn offset(self, by: u64) -> SpanId {
        SpanId(self.0 + by)
    }
}

#[derive(Debug, Clone)]
struct Track {
    name: String,
    kind: TrackKind,
    /// The open spans of a chip track, innermost last.
    open: Vec<u64>,
}

/// Index into a buffer's interned name table.
type NameId = u16;

/// Slots of a buffer's cache of interned names by address.
const NAME_CACHE: usize = 64;

/// One ring record, decoded: what the writer reads.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Begin {
        id: u64,
        parent: Option<u64>,
        track: TrackId,
        name: NameId,
        at: SimTime,
    },
    End {
        id: u64,
        at: SimTime,
    },
    Instant {
        track: TrackId,
        name: NameId,
        at: SimTime,
    },
    Counter {
        track: TrackId,
        name: NameId,
        at: SimTime,
        value: f64,
    },
}

/// One ring record: 16 bytes, the stamp and a packed word (see the
/// module docs). Bits 62–63 hold the kind. A begin, instant or counter
/// holds its track in bits 0–15 and its name in bits 16–31; a begin
/// holds its parent distance in bits 32–61. An end holds its span id in
/// bits 0–61.
#[derive(Debug, Clone, Copy)]
struct Record {
    at: SimTime,
    word: u64,
}

impl Record {
    const BEGIN: u64 = 0;
    const END: u64 = 1;
    const INSTANT: u64 = 2;
    const COUNTER: u64 = 3;
    const KIND_SHIFT: u32 = 62;
    const PAYLOAD: u64 = (1 << Self::KIND_SHIFT) - 1;
    /// Width of a begin's parent distance, `id − parent`.
    const PARENT_BITS: u32 = 30;

    /// A begin, instant or counter record; `parent` is a begin's parent
    /// distance (0 for none, and for the other kinds).
    fn labelled(kind: u64, at: SimTime, track: TrackId, name: NameId, parent: u64) -> Record {
        debug_assert!(parent < 1 << Self::PARENT_BITS);
        let word =
            kind << Self::KIND_SHIFT | parent << 32 | u64::from(name) << 16 | u64::from(track.0);
        Record { at, word }
    }

    fn end(at: SimTime, id: u64) -> Record {
        debug_assert!(id <= Self::PAYLOAD, "span id {id} exceeds 62 bits");
        Record {
            at,
            word: Self::END << Self::KIND_SHIFT | (id & Self::PAYLOAD),
        }
    }

    fn kind(self) -> u64 {
        self.word >> Self::KIND_SHIFT
    }

    fn track(self) -> TrackId {
        TrackId(self.word as u16)
    }

    fn name(self) -> NameId {
        (self.word >> 16) as NameId
    }

    /// A begin's parent distance, 0 for none.
    fn back(self) -> u64 {
        (self.word >> 32) & ((1 << Self::PARENT_BITS) - 1)
    }

    /// The id an end closes.
    fn id(self) -> u64 {
        self.word & Self::PAYLOAD
    }

    /// Decodes the record. A begin carries the id `next_begin`, which
    /// then advances past it; a counter takes its sample from `value`.
    fn decode(self, next_begin: &mut u64, value: impl FnOnce() -> f64) -> Entry {
        let (at, track, name) = (self.at, self.track(), self.name());
        match self.kind() {
            Self::BEGIN => {
                let id = *next_begin;
                *next_begin += 1;
                let back = self.back();
                Entry::Begin {
                    id,
                    parent: id.checked_sub(back).filter(|_| back > 0),
                    track,
                    name,
                    at,
                }
            }
            Self::END => Entry::End { id: self.id(), at },
            Self::INSTANT => Entry::Instant { track, name, at },
            _ => Entry::Counter {
                track,
                name,
                at,
                value: value(),
            },
        }
    }
}

/// What rendering a span's records needs: its track, its name and the
/// id of its root ancestor (the async key of bus spans).
#[derive(Debug, Clone, Copy)]
struct SpanMeta {
    track: TrackId,
    name: NameId,
    root: u64,
}

/// Summary statistics from [`TraceBuffer::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Records currently held in the ring.
    pub records: usize,
    /// Spans begun since the buffer was created.
    pub spans: usize,
    /// Spans begun and not yet ended.
    pub open: usize,
    /// Records evicted by the ring since the buffer was created.
    pub dropped: u64,
}

/// The records of one stretch of a buffer's record stream, copied aside
/// as they were pushed, for [`TraceBuffer::replay`]. Reserve it once with
/// [`SpanTape::with_capacity`]: a stretch that outgrows the reservation,
/// or holds anything but begins and ends, leaves the tape unusable, so
/// taping never allocates.
#[derive(Debug, Clone, Default)]
pub struct SpanTape {
    records: Vec<Record>,
    /// The buffer's next span id when taping started: the taped begins
    /// carry the ids from here.
    first_span: u64,
    /// Begins among `records`.
    begins: u64,
    /// Only begins and ends so far, and all of them held.
    usable: bool,
}

impl SpanTape {
    /// An empty tape with room for `records` records.
    pub fn with_capacity(records: usize) -> Self {
        SpanTape {
            records: Vec::with_capacity(records),
            ..SpanTape::default()
        }
    }

    /// Begins taped: `B`, the span ids one replayed copy takes.
    pub fn begins(&self) -> u64 {
        self.begins
    }

    /// True when the tape holds the whole stretch and it is only begins
    /// and ends, so [`TraceBuffer::replay`] can record it again.
    pub fn is_usable(&self) -> bool {
        self.usable
    }

    fn restart(&mut self, first_span: u64) {
        self.records.clear();
        self.first_span = first_span;
        self.begins = 0;
        self.usable = true;
    }

    /// Copies one pushed record, or marks the tape unusable.
    #[inline]
    fn note(&mut self, record: Record) {
        let span = matches!(record.kind(), Record::BEGIN | Record::END);
        if !span || self.records.len() == self.records.capacity() {
            self.usable = false;
        } else if self.usable {
            self.records.push(record);
            self.begins += u64::from(record.kind() == Record::BEGIN);
        }
    }

    /// The parent distance of copy `k`'s begin of taped record `r`, the
    /// `i`-th taped begin: a parent begun before the stretch stays
    /// where it is, so the distance grows by `k·B`; one begun inside it
    /// moves with the copy.
    fn copy_back(&self, r: Record, i: u64, k: u64) -> u64 {
        let back = r.back();
        if back == 0 || back <= i {
            back
        } else {
            back + k * self.begins
        }
    }

    /// True when this tape holds `reference`'s stretch recorded again
    /// `by` later, as [`TraceBuffer::replay`] would have recorded it: the
    /// same records, stamps `by` later and span ids shifted by the
    /// difference of the two stretches' first ids, which must be a whole
    /// number of copies.
    pub fn repeats(&self, reference: &SpanTape, by: SimDuration) -> bool {
        let Some(d) = self.first_span.checked_sub(reference.first_span) else {
            return false;
        };
        if !self.usable || !reference.usable || self.begins != reference.begins {
            return false;
        }
        let k = match d.checked_div(reference.begins) {
            Some(k) if k * reference.begins == d => k,
            None if d == 0 => 0,
            _ => return false,
        };
        let mut i = 0;
        self.records.len() == reference.records.len()
            && self.records.iter().zip(&reference.records).all(|(r, w)| {
                let same = r.at == w.at + by
                    && r.kind() == w.kind()
                    && match w.kind() {
                        Record::BEGIN => {
                            r.track() == w.track()
                                && r.name() == w.name()
                                && r.back() == reference.copy_back(*w, i, k)
                        }
                        _ => r.id() == w.id() + d,
                    };
                i += u64::from(w.kind() == Record::BEGIN);
                same
            })
    }
}

/// Where spilled trace records stream to (see
/// [`TraceBuffer::arm_spill`]). Clones share the underlying sink, so a
/// cloned buffer keeps appending to the same file.
#[derive(Debug, Clone)]
pub enum SpillSink {
    /// A buffered open file, typically the `--trace-out` target; it is
    /// flushed by [`TraceBuffer::finalize_spill`].
    File(Arc<Mutex<BufWriter<fs::File>>>),
    /// An in-memory byte buffer, for tests and tooling.
    Memory(Arc<Mutex<Vec<u8>>>),
}

impl SpillSink {
    /// Creates (truncating) `path` and returns a sink writing to it.
    pub fn file(path: &Path) -> io::Result<SpillSink> {
        Ok(SpillSink::File(Arc::new(Mutex::new(BufWriter::new(
            fs::File::create(path)?,
        )))))
    }

    /// An in-memory sink plus the shared buffer to read it back from.
    pub fn memory() -> (SpillSink, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (SpillSink::Memory(Arc::clone(&buf)), buf)
    }
}

impl Write for SpillSink {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.write_all(bytes)?;
        Ok(bytes.len())
    }

    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self {
            SpillSink::File(f) => f.lock().expect("spill file lock poisoned").write_all(bytes),
            SpillSink::Memory(m) => {
                m.lock()
                    .expect("spill buffer lock poisoned")
                    .extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            SpillSink::File(f) => f.lock().expect("spill file lock poisoned").flush(),
            SpillSink::Memory(_) => Ok(()),
        }
    }
}

/// Per-span values of the spans begun and not yet ended, dense by id
/// from `base`. A span still unended when [`SpanTable::WINDOW`] younger
/// spans have begun moves to `parked`, so one long-lived span (a chip
/// asleep for the whole run) does not hold the window open behind it.
#[derive(Debug, Clone)]
struct SpanTable<T> {
    base: u64,
    /// Spans `base..`; `None` once ended (or never begun here). The
    /// front is never `None`.
    window: VecDeque<Option<T>>,
    /// Unended spans older than `base`, ascending by id.
    parked: Vec<(u64, T)>,
    /// Spans held, in the window and parked.
    len: usize,
}

impl<T> Default for SpanTable<T> {
    fn default() -> Self {
        SpanTable {
            base: 0,
            window: VecDeque::new(),
            parked: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Copy> SpanTable<T> {
    const WINDOW: usize = 1 << 16;

    fn get(&self, id: u64) -> Option<T> {
        match id.checked_sub(self.base) {
            Some(i) => self.window.get(usize::try_from(i).ok()?).copied().flatten(),
            None => self.parked_at(id).map(|i| self.parked[i].1),
        }
    }

    fn parked_at(&self, id: u64) -> Option<usize> {
        self.parked.binary_search_by_key(&id, |&(p, _)| p).ok()
    }

    /// Adds a begun span. Begins arrive in id order, so this appends.
    fn insert(&mut self, id: u64, value: T) {
        if self.window.is_empty() {
            self.base = id;
        }
        let Some(i) = id
            .checked_sub(self.base)
            .and_then(|i| usize::try_from(i).ok())
        else {
            return;
        };
        if i > self.window.len() {
            self.window.resize(i, None);
        }
        match self.window.get_mut(i) {
            Some(slot) => *slot = Some(value),
            None => self.window.push_back(Some(value)),
        }
        self.len += 1;
        while self.window.len() > Self::WINDOW {
            if let Some(Some(value)) = self.window.pop_front() {
                self.parked.push((self.base, value));
            }
            self.base += 1;
            self.skip_ended();
        }
    }

    /// Advances `base` past the ended spans at the front of the window.
    fn skip_ended(&mut self) {
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.base += 1;
        }
    }

    /// Takes an ended span out and advances past the ended front: O(1)
    /// for a span in the window, a search of the short parked list for
    /// an older one.
    fn remove(&mut self, id: u64) -> Option<T> {
        let value = match id.checked_sub(self.base) {
            Some(i) => {
                let value = usize::try_from(i)
                    .ok()
                    .and_then(|i| self.window.get_mut(i))
                    .and_then(Option::take);
                self.skip_ended();
                value
            }
            None => self.parked_at(id).map(|i| self.parked.remove(i).1),
        };
        if value.is_some() {
            self.len -= 1;
        }
        value
    }

    /// The ids held, ascending.
    fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        let window = (self.base..)
            .zip(&self.window)
            .filter_map(|(id, v)| v.is_some().then_some(id));
        self.parked.iter().map(|&(id, _)| id).chain(window)
    }
}

/// The Chrome `trace_event` writer behind every export: the header, then
/// one line per record in the order it is given them, then the footer.
///
/// A span's render data is learned from its begin and forgotten once its
/// end is written. An end whose begin this writer never saw is not
/// written, and a begin whose parent it never saw is its own async root,
/// so the export of a ring that dropped its oldest records skips the
/// ends of evicted begins, as a ring export always has.
#[derive(Debug, Clone)]
struct ChromeWriter<W> {
    out: W,
    spans: SpanTable<SpanMeta>,
    /// Whether any event line has been written, for `",\n"` placement.
    any: bool,
    /// The line being rendered, reused across records.
    line: String,
}

impl<W: Write> ChromeWriter<W> {
    /// Writes the Chrome JSON opener and one `process_name` metadata line
    /// per track into `out`.
    fn open(mut out: W, tracks: &[Track]) -> (Self, io::Result<()>) {
        let mut header = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, track) in tracks.iter().enumerate() {
            if i > 0 {
                header.push_str(",\n");
            }
            let mut args = JsonObject::new();
            args.field_str("name", &track.name);
            let mut obj = JsonObject::new();
            obj.field_str("name", "process_name")
                .field_str("ph", "M")
                .field_u64("pid", i as u64 + 1)
                .field_raw("args", &args.finish());
            header.push_str(&obj.finish());
        }
        let written = out.write_all(header.as_bytes());
        let writer = ChromeWriter {
            out,
            spans: SpanTable::default(),
            any: !tracks.is_empty(),
            line: String::new(),
        };
        (writer, written)
    }

    /// Writes `rec` as one event line. `Ok(false)` means an end whose
    /// begin this writer has not seen: nothing is written.
    fn record(&mut self, names: &[&str], tracks: &[Track], rec: &Entry) -> io::Result<bool> {
        // A span record's root and its async and sync phases.
        let (track, name, at, span) = match *rec {
            Entry::Begin {
                id,
                parent,
                track,
                name,
                at,
            } => {
                let root = parent
                    .and_then(|p| self.spans.get(p))
                    .map_or(id, |m| m.root);
                self.spans.insert(id, SpanMeta { track, name, root });
                (track, name, at, Some((root, "b", "B")))
            }
            Entry::End { id, at } => {
                let Some(SpanMeta { track, name, root }) = self.spans.remove(id) else {
                    return Ok(false);
                };
                (track, name, at, Some((root, "e", "E")))
            }
            Entry::Instant { track, name, at }
            | Entry::Counter {
                track, name, at, ..
            } => (track, name, at, None),
        };
        let line = &mut self.line;
        line.clear();
        if self.any {
            line.push_str(",\n");
        }
        self.any = true;
        line.push_str("{\"name\":\"");
        escape_into(line, names[name as usize]);
        line.push('"');
        let bus = tracks.get(track.0 as usize).map(|t| t.kind) == Some(TrackKind::Bus);
        // Writing into a `String` cannot fail.
        let _ = match (span, rec) {
            (Some((root, ph, _)), _) if bus => write!(
                line,
                ",\"cat\":\"transfer\",\"ph\":\"{ph}\",\"id\":\"{root:#x}\""
            ),
            (Some((_, _, ph)), _) => write!(line, ",\"cat\":\"chip\",\"ph\":\"{ph}\""),
            (None, Entry::Instant { .. }) => write!(line, ",\"ph\":\"i\",\"s\":\"t\""),
            (None, _) => write!(line, ",\"ph\":\"C\""),
        };
        let ts = at.as_ps() as f64 / 1e6;
        let pid = u64::from(track.0) + 1;
        let _ = write!(line, ",\"ts\":{ts},\"pid\":{pid},\"tid\":0");
        if let Entry::Counter { value, .. } = *rec {
            // JSON has no NaN or infinity.
            let _ = if value.is_finite() {
                write!(line, ",\"args\":{{\"value\":{value}}}")
            } else {
                write!(line, ",\"args\":{{\"value\":null}}")
            };
        }
        line.push('}');
        self.out.write_all(line.as_bytes())?;
        Ok(true)
    }

    /// Writes the footer and flushes.
    fn close(&mut self) -> io::Result<()> {
        self.out.write_all(b"\n]}\n")?;
        self.out.flush()
    }
}

/// A bounded ring of span/instant/counter records over simulated time.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    tracks: Vec<Track>,
    /// Interned record names; records hold indexes into this table.
    names: Vec<&'static str>,
    /// Recently interned names by address (see [`TraceBuffer::intern`]).
    name_cache: [Option<(&'static str, NameId)>; NAME_CACHE],
    records: VecDeque<Record>,
    /// The samples of the retained counter records, in record order.
    values: VecDeque<f64>,
    capacity: usize,
    dropped: u64,
    /// Records streamed to the spill sink.
    spilled: u64,
    /// Records in the stream so far: the next record's index.
    recorded: u64,
    /// The id of the oldest retained begin, or `next_span` when none is
    /// retained: the retained begins carry the ids
    /// `first_begin..next_span`.
    first_begin: u64,
    next_span: u64,
    /// The open spans and their tracks, dense by id.
    open: SpanTable<TrackId>,
    /// The stamp of the last record.
    last: SimTime,
    /// The first failed check; see [`TraceBuffer::validate`].
    error: Option<String>,
    /// The armed spill sink's writer, until it is finalized.
    spill: Option<ChromeWriter<SpillSink>>,
    /// The running tape, if any (see [`TraceBuffer::start_tape`]).
    tape: Option<SpanTape>,
}

impl TraceBuffer {
    /// Creates a buffer retaining at most `capacity` records (minimum 16).
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            tracks: Vec::new(),
            names: Vec::new(),
            name_cache: [None; NAME_CACHE],
            records: VecDeque::new(),
            values: VecDeque::new(),
            capacity: capacity.max(16),
            dropped: 0,
            spilled: 0,
            recorded: 0,
            first_begin: 0,
            next_span: 0,
            open: SpanTable::default(),
            last: SimTime::ZERO,
            error: None,
            spill: None,
            tape: None,
        }
    }

    /// Registers a track and returns its id.
    ///
    /// # Panics
    ///
    /// On the 65,537th track: records hold track ids in 16 bits.
    pub fn add_track(&mut self, name: impl Into<String>, kind: TrackKind) -> TrackId {
        let id = u16::try_from(self.tracks.len()).expect("more than 65536 trace tracks");
        self.tracks.push(Track {
            name: name.into(),
            kind,
            open: Vec::new(),
        });
        TrackId(id)
    }

    /// Records retained in the ring right now.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted by the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records streamed to the armed spill sink so far.
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Spans begun so far: the id the next begin takes.
    pub fn spans_begun(&self) -> u64 {
        self.next_span
    }

    /// Spans begun and not yet ended.
    pub fn open_spans(&self) -> usize {
        self.open.len
    }

    /// The table index of `name`, added on first use. A buffer holds a
    /// handful of distinct names, so a scan beats hashing. Callers pass
    /// the same constants over and over: a small cache keyed by the
    /// name's address answers those without the scan.
    fn intern(&mut self, name: &'static str) -> NameId {
        let slot = (name.as_ptr() as usize >> 3) % NAME_CACHE;
        if let Some((cached, id)) = self.name_cache[slot] {
            if std::ptr::eq(cached, name) {
                return id;
            }
        }
        let idx = match self.names.iter().position(|&n| n == name) {
            Some(idx) => idx,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        let id = NameId::try_from(idx).expect("more than 65536 distinct trace record names");
        self.name_cache[slot] = Some((name, id));
        id
    }

    /// `track` when it is a chip track, whose spans must nest.
    fn chip_mut(&mut self, track: TrackId) -> Option<&mut Track> {
        self.tracks
            .get_mut(track.0 as usize)
            .filter(|t| t.kind == TrackKind::Chip)
    }

    /// Appends `record` to the stream, checking its stamp against the
    /// last record's.
    #[inline]
    fn push(&mut self, record: Record) {
        if let Some(tape) = &mut self.tape {
            tape.note(record);
        }
        self.recorded += 1;
        if record.at < self.last {
            let last = self.last.as_ps();
            self.fail(format_args!(
                "timestamp {} ps regresses below {last} ps",
                record.at.as_ps()
            ));
        }
        self.last = record.at;
        if self.records.len() == self.capacity {
            if let Some(oldest) = self.records.pop_front() {
                self.evict(oldest);
            }
        }
        self.records.push_back(record);
    }

    /// Keeps the first failed check, naming the record last pushed.
    #[cold]
    fn fail(&mut self, why: std::fmt::Arguments<'_>) {
        if self.error.is_none() {
            self.error = Some(format!("record {}: {why}", self.recorded - 1));
        }
    }

    /// Streams the displaced oldest record to the armed sink, or drops
    /// it. Failed writes and ends whose begin predates arming count in
    /// `dropped`, so loss is observable.
    fn evict(&mut self, oldest: Record) {
        if self.spill.is_none() {
            // Dropped: only the bookkeeping of what the ring retains.
            match oldest.kind() {
                Record::BEGIN => self.first_begin += 1,
                Record::COUNTER => {
                    self.values.pop_front();
                }
                _ => {}
            }
            self.dropped += 1;
            return;
        }
        let values = &mut self.values;
        let rec = oldest.decode(&mut self.first_begin, || {
            values
                .pop_front()
                .expect("every counter record has a sample")
        });
        let written = self
            .spill
            .as_mut()
            .is_some_and(|w| matches!(w.record(&self.names, &self.tracks, &rec), Ok(true)));
        if written {
            self.spilled += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// The retained records, decoded, oldest first.
    fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        let mut next_begin = self.first_begin;
        let mut values = self.values.iter().copied();
        self.records.iter().map(move |r| {
            r.decode(&mut next_begin, || {
                values.next().expect("every counter record has a sample")
            })
        })
    }

    /// Arms bounded-memory spill mode: the Chrome JSON header and track
    /// metadata go to `sink` immediately, and every record later
    /// displaced from the ring streams there instead of being dropped.
    /// Arm *after* registering all tracks (the header names them) and
    /// before recording, and close the file with
    /// [`TraceBuffer::finalize_spill`].
    pub fn arm_spill(&mut self, sink: SpillSink) {
        let (writer, header) = ChromeWriter::open(sink, &self.tracks);
        if header.is_err() {
            self.dropped += 1;
        }
        self.spill = Some(writer);
    }

    /// Writes every retained record to the armed sink, appends the Chrome
    /// JSON footer, flushes the sink, disarms it, and returns the total
    /// records streamed. The ring itself is left intact. With no sink
    /// armed (a second call, say) this does nothing and returns the
    /// prior total.
    pub fn finalize_spill(&mut self) -> u64 {
        if let Some(mut w) = self.spill.take() {
            let written = self
                .entries()
                .filter(|rec| matches!(w.record(&self.names, &self.tracks, rec), Ok(true)))
                .count();
            self.spilled += written as u64;
            self.dropped += (self.records.len() - written) as u64;
            if w.close().is_err() {
                self.dropped += 1;
            }
        }
        self.spilled
    }

    /// Opens a span on `track` at `at`, optionally nested under `parent`.
    ///
    /// # Panics
    ///
    /// If the buffer has seen more than 65536 distinct record names, or
    /// if `parent` does not precede the new span by fewer than 2^30
    /// spans: a parent begun at or after its child (only a span of
    /// another buffer can be), or one 2^30 or more spans older.
    pub fn begin(
        &mut self,
        track: TrackId,
        name: &'static str,
        at: SimTime,
        parent: Option<SpanId>,
    ) -> SpanId {
        let id = self.next_span;
        let back = parent.map_or(0, |SpanId(p)| {
            assert!(p < id, "parent span {p} does not precede its child {id}");
            id - p
        });
        let name = self.intern(name);
        SpanId(self.push_begin(at, track, name, back))
    }

    /// Records a begin whose parent is `back` spans older (0: none), and
    /// opens its span.
    ///
    /// # Panics
    ///
    /// If `back` is 2^30 or more.
    #[inline]
    fn push_begin(&mut self, at: SimTime, track: TrackId, name: NameId, back: u64) -> u64 {
        let id = self.next_span;
        assert!(
            back < 1 << Record::PARENT_BITS,
            "parent span {} is 2^30 or more spans older than its child {id}",
            id - back
        );
        self.push(Record::labelled(Record::BEGIN, at, track, name, back));
        if back > 0 && self.open.get(id - back).is_none() {
            let p = id - back;
            self.fail(format_args!("parent span {p} already closed"));
        }
        self.next_span += 1;
        self.open.insert(id, track);
        if let Some(chip) = self.chip_mut(track) {
            chip.open.push(id);
        }
        id
    }

    /// Closes the span `id` at `at`. Closing an unknown or already-closed
    /// span still records the end, and fails the checks (see
    /// [`TraceBuffer::validate`]).
    pub fn end(&mut self, SpanId(id): SpanId, at: SimTime) {
        self.push(Record::end(at, id));
        match self.open.remove(id) {
            Some(track) => {
                if self
                    .chip_mut(track)
                    .is_some_and(|chip| chip.open.pop() != Some(id))
                {
                    let t = track.0;
                    self.fail(format_args!(
                        "span {id} ends out of LIFO order on chip track {t}"
                    ));
                }
            }
            None if id < self.next_span => self.fail(format_args!("span {id} ended twice")),
            None => self.fail(format_args!("end for span {id} that never began")),
        }
    }

    /// Starts copying every record pushed from now on into `tape`, which
    /// is cleared first; [`TraceBuffer::stop_tape`] hands it back. A tape
    /// already running is dropped.
    pub fn start_tape(&mut self, mut tape: SpanTape) {
        tape.restart(self.next_span);
        self.tape = Some(tape);
    }

    /// Stops the running tape and returns it.
    pub fn stop_tape(&mut self) -> Option<SpanTape> {
        self.tape.take()
    }

    /// The running tape.
    pub fn tape(&self) -> Option<&SpanTape> {
        self.tape.as_ref()
    }

    /// Records `tape`'s stretch `n` more times, copy `k` (from 1) stamped
    /// `k·period` later, exactly as the begins and ends that made it would
    /// record it again (see the module docs): begins take the next ids,
    /// so copy `k`'s begins are the taped ones `k·B` on, and its ends
    /// close the taped ids `k·B` on. The caller vouches that the stretch
    /// repeats: the buffer's next id must be the taped stretch's end, and
    /// the spans each copy ends must be open, which the checks verify as
    /// for any record.
    ///
    /// # Panics
    ///
    /// If the tape is unusable or running, or a parent distance reaches
    /// 2^30.
    pub fn replay(&mut self, tape: &SpanTape, n: u64, period: SimDuration) {
        assert!(tape.usable, "replay of an unusable span tape");
        assert!(self.tape.is_none(), "replay while a tape runs");
        debug_assert_eq!(
            tape.first_span + tape.begins,
            self.next_span,
            "replay does not continue the taped stretch"
        );
        for k in 1..=n {
            let (by, ids) = (period * k, k * tape.begins);
            let mut i = 0;
            for &r in &tape.records {
                if r.kind() == Record::BEGIN {
                    let back = tape.copy_back(r, i, k);
                    self.push_begin(r.at + by, r.track(), r.name(), back);
                    i += 1;
                } else {
                    self.end(SpanId(r.id() + ids), r.at + by);
                }
            }
        }
    }

    /// Records a point-in-time marker on `track`.
    ///
    /// # Panics
    ///
    /// If the buffer has seen more than 65536 distinct record names.
    pub fn instant(&mut self, track: TrackId, name: &'static str, at: SimTime) {
        let name = self.intern(name);
        self.push(Record::labelled(Record::INSTANT, at, track, name, 0));
    }

    /// Records a counter sample on `track`.
    ///
    /// # Panics
    ///
    /// If the buffer has seen more than 65536 distinct record names.
    pub fn counter(&mut self, track: TrackId, name: &'static str, at: SimTime, value: f64) {
        let name = self.intern(name);
        self.push(Record::labelled(Record::COUNTER, at, track, name, 0));
        self.values.push_back(value);
    }

    /// Closes every span still open at `at`, children before parents
    /// (span ids grow monotonically, so descending id order is a valid
    /// closing order for any forest recorded through this API).
    pub fn finish(&mut self, at: SimTime) {
        let open: Vec<u64> = self.open.ids().collect();
        for id in open.into_iter().rev() {
            self.end(SpanId(id), at);
        }
    }

    /// The verdict of the checks every record passed as it was recorded
    /// (see the module docs): non-decreasing timestamps, every end
    /// matching an open begin, parents open when children begin, and
    /// strict LIFO nesting on [`TrackKind::Chip`] tracks.
    ///
    /// Returns the first failure, named by its record's index in the
    /// whole stream, or the run's totals. A ring that dropped or streamed
    /// out records is checked as whole as one that held the run. O(1):
    /// the ring is not read.
    pub fn validate(&self) -> Result<TraceStats, String> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(TraceStats {
                records: self.records.len(),
                spans: self.next_span as usize,
                open: self.open.len,
                dropped: self.dropped,
            }),
        }
    }

    /// Exports the retained records as the Chrome `trace_event` JSON that
    /// Perfetto and `chrome://tracing` open directly, through the same
    /// writer a spill sink streams through. One event per line inside the
    /// `traceEvents` array; byte-identical for identical record
    /// sequences. An end whose begin has left the ring is skipped (with a
    /// spill sink armed, the sink holds the whole run).
    pub fn to_chrome_json(&self) -> String {
        // Writing into a `Vec` cannot fail.
        let (mut w, _) = ChromeWriter::open(Vec::new(), &self.tracks);
        for rec in self.entries() {
            let _ = w.record(&self.names, &self.tracks, &rec);
        }
        let _ = w.close();
        String::from_utf8(w.out).expect("the writer emits UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> SimTime {
        SimTime::from_ps(ps)
    }

    #[test]
    fn ring_records_are_16_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 16);
    }

    #[test]
    fn spans_balance_and_validate() {
        let mut buf = TraceBuffer::new(1024);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        let bus = buf.add_track("bus 0", TrackKind::Bus);
        let root = buf.begin(bus, "transfer", t(0), None);
        let child = buf.begin(bus, "wakeup", t(10), Some(root));
        let act = buf.begin(chip, "serving", t(20), None);
        buf.counter(chip, "power_mw", t(20), 300.0);
        buf.end(act, t(30));
        buf.end(child, t(30));
        buf.instant(bus, "released", t(30));
        buf.end(root, t(40));
        let stats = buf.validate().expect("valid trace");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.open, 0);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn finish_closes_children_before_parents() {
        let mut buf = TraceBuffer::new(64);
        let bus = buf.add_track("bus 0", TrackKind::Bus);
        let root = buf.begin(bus, "transfer", t(0), None);
        let _child = buf.begin(bus, "drain", t(5), Some(root));
        assert_eq!(buf.validate().map(|s| s.open), Ok(2));
        buf.finish(t(9));
        let stats = buf.validate().expect("valid trace");
        assert_eq!(stats.open, 0);
    }

    #[test]
    fn timestamp_regression_is_an_error() {
        let mut buf = TraceBuffer::new(64);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        buf.instant(chip, "a", t(100));
        buf.instant(chip, "b", t(50));
        assert!(buf.validate().is_err());
    }

    #[test]
    fn chip_spans_must_nest_lifo() {
        let mut buf = TraceBuffer::new(64);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        let a = buf.begin(chip, "serving", t(0), None);
        let b = buf.begin(chip, "active_idle", t(1), None);
        buf.end(a, t(2)); // closes a before b: out of LIFO order
        buf.end(b, t(3));
        assert!(buf.validate().is_err());
    }

    #[test]
    fn bus_spans_may_overlap() {
        let mut buf = TraceBuffer::new(64);
        let bus = buf.add_track("bus 0", TrackKind::Bus);
        let a = buf.begin(bus, "transfer", t(0), None);
        let b = buf.begin(bus, "transfer", t(1), None);
        buf.end(a, t(2));
        buf.end(b, t(3));
        assert!(buf.validate().is_ok());
    }

    #[test]
    fn ring_drops_oldest_and_still_validates_the_whole_run() {
        let mut buf = TraceBuffer::new(16);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        for i in 0..40 {
            let s = buf.begin(chip, "serving", t(i * 2), None);
            buf.end(s, t(i * 2 + 1));
        }
        assert_eq!(buf.len(), 16);
        assert_eq!(buf.dropped(), 64); // 80 records, 16 retained
        let stats = buf.validate().expect("valid trace");
        assert_eq!((stats.spans, stats.open, stats.dropped), (40, 0, 64));
    }

    #[test]
    fn double_end_is_an_error() {
        let mut buf = TraceBuffer::new(64);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        let a = buf.begin(chip, "serving", t(0), None);
        buf.end(a, t(1));
        buf.end(a, t(2));
        assert!(buf.validate().is_err());
    }

    /// The broken-tree shapes validation must reject, each written as its
    /// last few records.
    fn write_broken(buf: &mut TraceBuffer, case: usize) {
        let bus = TrackId(1);
        match case {
            0 => {
                let p = buf.begin(bus, "transfer", t(100), None);
                buf.end(p, t(101));
                buf.begin(bus, "wakeup", t(102), Some(p));
            }
            _ => buf.end(SpanId(99), t(100)),
        }
    }

    const BROKEN: [&str; 2] = [
        "parent span 0 already closed",
        "end for span 99 that never began",
    ];

    fn two_track_buffer() -> TraceBuffer {
        let mut buf = TraceBuffer::new(16);
        buf.add_track("chip 0", TrackKind::Chip);
        buf.add_track("io bus 0", TrackKind::Bus);
        buf
    }

    #[test]
    fn validation_names_each_broken_tree() {
        for (case, want) in BROKEN.iter().enumerate() {
            let mut buf = two_track_buffer();
            write_broken(&mut buf, case);
            let err = buf.validate().expect_err(want);
            assert!(err.contains(want), "case {case}: {err}");
        }
    }

    #[test]
    fn dropped_and_spilled_rings_reject_each_broken_tree() {
        for spill in [false, true] {
            for (case, want) in BROKEN.iter().enumerate() {
                let mut buf = two_track_buffer();
                if spill {
                    buf.arm_spill(SpillSink::memory().0);
                }
                // Fill the ring, so the broken records displace filler
                // and stay retained themselves.
                for i in 0..16 {
                    buf.instant(TrackId(0), "filler", t(i));
                }
                write_broken(&mut buf, case);
                assert!(buf.dropped() + buf.spilled() > 0);
                let err = buf.validate().expect_err(want);
                assert!(err.contains(want), "spill {spill}, case {case}: {err}");
            }
        }
    }

    #[test]
    fn broken_records_the_ring_dropped_are_still_reported() {
        for (stray, want) in [
            (true, "record 1: end for span 99 that never began"),
            (false, "record 1: timestamp 1 ps regresses below 5 ps"),
        ] {
            let mut buf = two_track_buffer();
            buf.instant(TrackId(0), "first", t(5));
            if stray {
                buf.end(SpanId(99), t(5));
            } else {
                buf.instant(TrackId(0), "late", t(1));
            }
            for i in 0..40 {
                buf.instant(TrackId(0), "filler", t(10 + i));
            }
            // The broken record left the ring long ago, with no sink.
            assert_eq!((buf.len(), buf.dropped(), buf.spilled()), (16, 26, 0));
            assert_eq!(buf.validate(), Err(want.to_string()));
        }
    }

    #[test]
    fn chrome_export_shape() {
        let mut buf = TraceBuffer::new(64);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        let bus = buf.add_track("io bus 0", TrackKind::Bus);
        let root = buf.begin(bus, "transfer", t(1_000_000), None);
        let child = buf.begin(bus, "wakeup", t(2_000_000), Some(root));
        let act = buf.begin(chip, "serving", t(2_000_000), None);
        buf.counter(chip, "power_mw", t(2_000_000), 300.0);
        buf.counter(chip, "power_mw", t(2_500_000), f64::NAN);
        buf.end(act, t(3_000_000));
        buf.end(child, t(3_000_000));
        buf.end(root, t(4_000_000));
        let json = buf.to_chrome_json();
        // JSON has no NaN: a non-finite sample exports as null.
        assert!(json.contains(r#""args":{"value":null}"#));
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(json.contains(r#""ph":"M""#));
        assert!(json.contains(r#""name":"io bus 0""#));
        assert!(json.contains(r#""ph":"b""#));
        assert!(json.contains(r#""ph":"e""#));
        assert!(json.contains(r#""ph":"B""#));
        assert!(json.contains(r#""ph":"E""#));
        assert!(json.contains(r#""ph":"C""#));
        // Child async events carry the root's id.
        assert_eq!(json.matches(r#""id":"0x0""#).count(), 4);
        // Timestamps are microseconds.
        assert!(json.contains(r#""ts":1"#));
        // Deterministic: a second export is byte-identical.
        assert_eq!(json, buf.to_chrome_json());
    }

    fn spill_text(buf: &Arc<Mutex<Vec<u8>>>) -> String {
        String::from_utf8(buf.lock().unwrap().clone()).unwrap()
    }

    #[test]
    fn spill_streams_the_ample_ring_export() {
        // Spill mode only changes *where* records live, never what the
        // trace says: at any ring capacity the finalized spill file is
        // byte-identical to the in-memory export of a ring that holds
        // everything, spans open across many displacements included.
        let build = |capacity: usize, spill: Option<SpillSink>| {
            let mut buf = TraceBuffer::new(capacity);
            let chip = buf.add_track("chip 0", TrackKind::Chip);
            let bus = buf.add_track("io bus 0", TrackKind::Bus);
            if let Some(sink) = spill {
                buf.arm_spill(sink);
            }
            let idle = buf.begin(chip, "low_power", t(0), None);
            for i in 0..30 {
                let root = buf.begin(bus, "transfer", t(10 * i), None);
                let child = buf.begin(bus, "wakeup", t(10 * i + 1), Some(root));
                buf.counter(chip, "power_mw", t(10 * i + 2), i as f64);
                buf.end(child, t(10 * i + 3));
                buf.instant(bus, "released", t(10 * i + 3));
                if i % 3 != 0 {
                    buf.end(root, t(10 * i + 4));
                }
            }
            buf.end(idle, t(400));
            buf.finish(t(500));
            buf
        };
        let plain = build(1024, None);
        assert_eq!(plain.dropped(), 0);
        let plain = plain.to_chrome_json();
        for capacity in [1024, 16] {
            let (sink, bytes) = SpillSink::memory();
            let mut spilled = build(capacity, Some(sink));
            let n = spilled.finalize_spill();
            assert_eq!(spill_text(&bytes), plain, "capacity {capacity}");
            assert_eq!(n, spilled.spilled());
            assert_eq!(spilled.dropped(), 0);
        }
    }

    #[test]
    fn overflow_streams_instead_of_dropping() {
        let (sink, bytes) = SpillSink::memory();
        let mut buf = TraceBuffer::new(16);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        buf.arm_spill(sink);
        for i in 0..40 {
            let s = buf.begin(chip, "serving", t(i * 2), None);
            buf.end(s, t(i * 2 + 1));
        }
        // 80 records, 16 retained: the displaced 64 streamed out.
        assert_eq!(buf.dropped(), 0);
        assert_eq!(buf.spilled(), 64);
        buf.finish(t(100));
        assert_eq!(buf.finalize_spill(), 80);
        let text = spill_text(&bytes);
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(text.ends_with("\n]}\n"));
        assert_eq!(text.matches(r#""ph":"B""#).count(), 40);
        assert_eq!(text.matches(r#""ph":"E""#).count(), 40);
        // The streamed file parses as one JSON document.
        assert!(super::super::json::parse(&text).is_ok());
    }

    #[test]
    fn finalize_flushes_the_buffered_file_sink() {
        let path =
            std::env::temp_dir().join(format!("trace_spill_test_{}.json", std::process::id()));
        let run = |sink: SpillSink| {
            let mut buf = TraceBuffer::new(16);
            let chip = buf.add_track("chip 0", TrackKind::Chip);
            buf.arm_spill(sink);
            for i in 0..40 {
                let s = buf.begin(chip, "serving", t(i * 2), None);
                buf.end(s, t(i * 2 + 1));
            }
            buf.finalize_spill();
            buf
        };
        let (sink, bytes) = SpillSink::memory();
        run(sink);
        // The buffer, and with it the file sink, is still alive: the
        // bytes are on disk because finalizing flushed them.
        let file_run = run(SpillSink::file(&path).expect("create spill file"));
        let written = fs::read_to_string(&path).expect("read spill file");
        let _ = fs::remove_file(&path);
        let want = spill_text(&bytes);
        assert!(
            written == want,
            "file holds {} of {} bytes",
            written.len(),
            want.len()
        );
        assert_eq!(file_run.dropped(), 0);
    }

    #[test]
    fn displaced_open_begin_is_written_in_place() {
        let (sink, bytes) = SpillSink::memory();
        let mut buf = TraceBuffer::new(16);
        let bus = buf.add_track("io bus 0", TrackKind::Bus);
        buf.arm_spill(sink);
        // One long-lived root span; enough short spans to displace its
        // begin from the ring many times over.
        let root = buf.begin(bus, "transfer", t(0), None);
        let mut ids = Vec::new();
        for i in 1..40 {
            ids.push(buf.begin(bus, "wakeup", t(i), Some(root)));
        }
        for (i, id) in ids.into_iter().enumerate() {
            buf.end(id, t(50 + i as u64));
        }
        // The root's begin was displaced while open: written already, in
        // its place at the head of the record stream.
        let begin = r#""name":"transfer","cat":"transfer","ph":"b""#;
        let before = spill_text(&bytes);
        // Line 0 opens the document and line 1 names the track.
        let first = before.lines().nth(2).expect("a record line");
        assert!(first.starts_with(&format!("{{{begin}")), "{before}");
        buf.end(root, t(200));
        buf.finalize_spill();
        let text = spill_text(&bytes);
        // Begin appears exactly once, before its end.
        assert_eq!(text.matches(begin).count(), 1);
        let end_at = text.find(r#""name":"transfer","cat":"transfer","ph":"e""#);
        assert!(text.find(begin) < end_at && end_at.is_some());
        assert!(super::super::json::parse(&text).is_ok());
        assert_eq!(buf.dropped(), 0);
    }

    #[test]
    fn spilled_run_validates_whole() {
        let (sink, _bytes) = SpillSink::memory();
        let mut buf = TraceBuffer::new(16);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        buf.arm_spill(sink);
        for i in 0..40 {
            let s = buf.begin(chip, "serving", t(i * 2), None);
            buf.end(s, t(i * 2 + 1));
        }
        let open = buf.begin(chip, "serving", t(100), None);
        assert!(buf.spilled() > 0);
        let stats = buf.validate().expect("valid whole run");
        assert_eq!((stats.records, stats.spans, stats.open), (16, 41, 1));
        buf.end(open, t(101));
        // Finalizing writes the ring out but leaves it, and the checks,
        // as they were.
        buf.finalize_spill();
        let stats = buf.validate().expect("valid whole run");
        assert_eq!((stats.spans, stats.open, stats.dropped), (41, 0, 0));
    }

    #[test]
    fn streamed_out_end_that_never_began_is_reported() {
        let (sink, _bytes) = SpillSink::memory();
        let mut buf = TraceBuffer::new(16);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        buf.arm_spill(sink);
        buf.end(SpanId(99), t(0));
        for i in 0..40 {
            let s = buf.begin(chip, "serving", t(i * 2 + 1), None);
            buf.end(s, t(i * 2 + 2));
        }
        // The sink could not write the stray end, so it counts as lost,
        // but it was checked as it was recorded.
        assert_eq!(buf.dropped(), 1);
        let err = buf.validate().expect_err("stray end");
        assert_eq!(err, "record 0: end for span 99 that never began");
    }

    #[test]
    fn counter_samples_follow_their_records_through_the_ring() {
        let mut buf = TraceBuffer::new(16);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        for i in 0..40u32 {
            if i % 3 == 0 {
                buf.instant(chip, "tick", t(u64::from(i)));
            } else {
                buf.counter(chip, "power_mw", t(u64::from(i)), f64::from(i));
            }
        }
        let json = buf.to_chrome_json();
        let values: Vec<&str> = json
            .lines()
            .filter_map(|l| l.split("\"value\":").nth(1))
            .map(|v| v.trim_end_matches(','))
            .collect();
        let want: Vec<String> = (24..40u32)
            .filter(|i| i % 3 != 0)
            .map(|i| format!("{i}}}}}"))
            .collect();
        assert_eq!(values, want);
    }

    #[test]
    fn open_spans_track_begins_and_ends_past_the_window() {
        let mut buf = TraceBuffer::new(1 << 18);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        let bus = buf.add_track("io bus 0", TrackKind::Bus);
        // Outlives a window's worth of younger spans, so it is parked.
        let asleep = buf.begin(chip, "low_power", t(0), None);
        let n = SpanTable::<TrackId>::WINDOW as u64 + 10;
        let mut held = Vec::new();
        for i in 0..n {
            let s = buf.begin(bus, "transfer", t(i + 1), None);
            if i % 1000 == 0 {
                held.push(s);
            } else {
                buf.end(s, t(i + 1));
            }
        }
        assert_eq!(buf.open.len, 1 + held.len());
        buf.end(asleep, t(n + 1));
        buf.end(asleep, t(n + 1));
        assert_eq!(buf.open.len, held.len());
        buf.finish(t(n + 2));
        assert_eq!(buf.open.len, 0);
        let err = buf.validate().expect_err("the second end");
        assert!(
            err.ends_with(&format!("span {} ended twice", asleep.0)),
            "{err}"
        );
        // `finish` closed the held spans youngest first.
        let ends: Vec<u64> = buf
            .entries()
            .filter_map(|r| match r {
                Entry::End { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        let mut want: Vec<u64> = held.iter().map(|s| s.0).collect();
        want.reverse();
        assert_eq!(ends[ends.len() - want.len()..], want[..]);
    }

    /// The open spans of the replay scenario between periods.
    #[derive(Debug, Clone, Copy)]
    struct Held {
        root: SpanId,
        child: SpanId,
        outer: SpanId,
        chip: SpanId,
    }

    /// One period of the replay scenario, `k` periods of 10 ps after the
    /// first: a bus child of the long-lived root ends and the next begins,
    /// a span begun inside the period parents another one, and a chip
    /// span nested in a long-lived chip span ends and the next begins.
    fn replay_period(buf: &mut TraceBuffer, k: u64, h: &mut Held) {
        let (chip, bus) = (TrackId(0), TrackId(1));
        let at = 100 + 10 * k;
        buf.end(h.child, t(at));
        h.child = buf.begin(bus, "active_idle", t(at + 1), Some(h.root));
        let outer = buf.begin(bus, "lockstep", t(at + 2), Some(h.root));
        let inner = buf.begin(bus, "drain", t(at + 3), Some(outer));
        buf.end(inner, t(at + 4));
        buf.end(outer, t(at + 4));
        buf.end(h.chip, t(at + 5));
        h.chip = buf.begin(chip, "serving", t(at + 5), None);
    }

    /// The scenario up to its first period.
    fn replay_setup(capacity: usize, spill: Option<SpillSink>) -> (TraceBuffer, Held) {
        let mut buf = TraceBuffer::new(capacity);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        let bus = buf.add_track("io bus 0", TrackKind::Bus);
        if let Some(sink) = spill {
            buf.arm_spill(sink);
        }
        let root = buf.begin(bus, "transfer", t(0), None);
        let child = buf.begin(bus, "wakeup", t(1), Some(root));
        let outer = buf.begin(chip, "idle", t(2), None);
        let chip = buf.begin(chip, "serving", t(3), None);
        buf.counter(TrackId(0), "power_mw", t(4), 300.0);
        (
            buf,
            Held {
                root,
                child,
                outer,
                chip,
            },
        )
    }

    /// Closes the scenario after period `last` and returns the buffer.
    fn replay_close(mut buf: TraceBuffer, last: u64, h: Held) -> TraceBuffer {
        let at = 100 + 10 * (last + 1);
        buf.end(h.chip, t(at));
        buf.end(h.outer, t(at + 1));
        buf.instant(TrackId(1), "released", t(at + 1));
        buf.end(h.child, t(at + 2));
        buf.end(h.root, t(at + 3));
        buf
    }

    /// The scenario with `n + 2` periods: all called explicitly, or the
    /// second taped and `n` replayed. The first period lines the open
    /// spans up: from then on each period ends the spans the previous one
    /// began.
    fn replay_scenario(
        n: u64,
        capacity: usize,
        replay: bool,
        spill: Option<SpillSink>,
    ) -> TraceBuffer {
        let (mut buf, mut h) = replay_setup(capacity, spill);
        replay_period(&mut buf, 0, &mut h);
        if !replay {
            for k in 1..=n + 1 {
                replay_period(&mut buf, k, &mut h);
            }
            return replay_close(buf, n + 1, h);
        }
        buf.start_tape(SpanTape::with_capacity(64));
        replay_period(&mut buf, 1, &mut h);
        let tape = buf.stop_tape().expect("a running tape");
        assert!(tape.is_usable());
        assert_eq!(tape.begins(), 4);
        buf.replay(&tape, n, SimDuration::from_ps(10));
        let shift = n * tape.begins();
        h.child = h.child.offset(shift);
        h.chip = h.chip.offset(shift);
        replay_close(buf, n + 1, h)
    }

    #[test]
    fn replay_equals_the_explicit_calls() {
        // Small rings evict during the replay; 20,000 periods begin more
        // spans than the open-span table's window, so the root and the
        // long-lived chip span move to its short list.
        for (n, capacity) in [(3, 1 << 12), (40, 16), (20_000, 16), (20_000, 1 << 18)] {
            let explicit = replay_scenario(n, capacity, false, None);
            let replayed = replay_scenario(n, capacity, true, None);
            assert_eq!(
                replayed.validate(),
                explicit.validate(),
                "n {n}, capacity {capacity}"
            );
            let stats = replayed.validate().expect("valid replay");
            assert_eq!(stats.open, 0);
            assert_eq!(
                replayed.to_chrome_json(),
                explicit.to_chrome_json(),
                "n {n}, capacity {capacity}"
            );
        }
    }

    #[test]
    fn replay_streams_what_the_explicit_calls_stream() {
        for capacity in [16, 1 << 10] {
            let stream = |replay: bool| {
                let (sink, bytes) = SpillSink::memory();
                let mut buf = replay_scenario(200, capacity, replay, Some(sink));
                buf.finalize_spill();
                assert_eq!(buf.dropped(), 0);
                (spill_text(&bytes), buf.spilled())
            };
            let (explicit, replayed) = (stream(false), stream(true));
            assert!(explicit.1 > 0);
            assert_eq!(replayed, explicit, "capacity {capacity}");
        }
    }

    #[test]
    fn a_tape_repeats_the_stretch_after_a_replay() {
        let (mut buf, mut h) = replay_setup(16, None);
        replay_period(&mut buf, 0, &mut h);
        buf.start_tape(SpanTape::with_capacity(64));
        replay_period(&mut buf, 1, &mut h);
        let reference = buf.stop_tape().expect("a running tape");
        buf.replay(&reference, 5, SimDuration::from_ps(10));
        h.child = h.child.offset(5 * 4);
        h.chip = h.chip.offset(5 * 4);
        buf.start_tape(SpanTape::with_capacity(64));
        replay_period(&mut buf, 7, &mut h);
        let next = buf.stop_tape().expect("a running tape");
        assert!(next.repeats(&reference, SimDuration::from_ps(60)));
        assert!(!next.repeats(&reference, SimDuration::from_ps(50)));
        assert!(buf.validate().is_ok());
    }

    #[test]
    fn instants_counters_and_overflow_make_a_tape_unusable() {
        let (mut buf, mut h) = replay_setup(16, None);
        for (k, (room, mark)) in [(64, 1), (64, 2), (4, 0)].into_iter().enumerate() {
            let k = k as u64;
            buf.start_tape(SpanTape::with_capacity(room));
            match mark {
                1 => buf.instant(TrackId(1), "released", t(99 + 10 * k)),
                2 => buf.counter(TrackId(0), "power_mw", t(99 + 10 * k), 3.0),
                _ => {}
            }
            replay_period(&mut buf, k, &mut h);
            let tape = buf.stop_tape().expect("a running tape");
            assert!(!tape.is_usable(), "room {room}, mark {mark}");
        }
        assert!(buf.validate().is_ok());
    }

    #[test]
    fn names_intern_by_content_whatever_their_address() {
        let mut buf = TraceBuffer::new(1 << 12);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        // More names than cache slots, so slots collide, each also
        // passed again from a second address.
        let names: Vec<&'static str> = (0..200)
            .map(|i| &*Box::leak(format!("name {i}").into_boxed_str()))
            .collect();
        for round in 0..3u64 {
            for (i, &name) in names.iter().enumerate() {
                let copy: &'static str = Box::leak(name.to_string().into_boxed_str());
                let at = t(round * 1000 + i as u64);
                let s = buf.begin(chip, if round == 1 { copy } else { name }, at, None);
                buf.end(s, at);
            }
        }
        assert_eq!(buf.names, names);
        let json = buf.to_chrome_json();
        for name in &names {
            assert_eq!(json.matches(&format!("\"{name}\"")).count(), 6, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "does not precede its child")]
    fn a_parent_at_or_after_its_child_panics() {
        let mut buf = two_track_buffer();
        buf.begin(TrackId(1), "wakeup", t(0), Some(SpanId(0)));
    }

    #[test]
    #[should_panic(expected = "2^30 or more spans older")]
    fn a_parent_2_pow_30_spans_older_panics() {
        let mut buf = two_track_buffer();
        let root = buf.begin(TrackId(1), "transfer", t(0), None);
        // Stand in for 2^30 - 1 spans begun and ended since the root.
        buf.next_span = 1 << 30;
        buf.begin(TrackId(1), "wakeup", t(1), Some(root));
    }

    #[test]
    fn packed_fields_round_trip_at_their_widths() {
        let (track, name, back) = (TrackId(u16::MAX), NameId::MAX, (1 << 30) - 1);
        let begin = Record::labelled(Record::BEGIN, t(7), track, name, back);
        let mut next = 1 << 40;
        match begin.decode(&mut next, || unreachable!("not a counter")) {
            Entry::Begin {
                id,
                parent,
                track: got_track,
                name: got_name,
                at,
            } => {
                assert_eq!((id, parent), (1 << 40, Some((1 << 40) - back)));
                assert_eq!((got_track, got_name, at), (track, name, t(7)));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(next, (1 << 40) + 1);
        let id = (1 << 62) - 1;
        match Record::end(t(8), id).decode(&mut next, || unreachable!("not a counter")) {
            Entry::End { id: got, at } => assert_eq!((got, at), (id, t(8))),
            other => panic!("{other:?}"),
        }
        let counter = Record::labelled(Record::COUNTER, t(9), track, name, 0);
        match counter.decode(&mut next, || 2.5) {
            Entry::Counter { value, .. } => assert_eq!(value, 2.5),
            other => panic!("{other:?}"),
        }
        assert_eq!(next, (1 << 40) + 1);
    }

    #[test]
    #[should_panic(expected = "more than 65536 trace tracks")]
    fn a_65537th_track_panics() {
        let mut buf = TraceBuffer::new(16);
        for i in 0..=u16::MAX as usize {
            buf.add_track(
                String::new(),
                if i % 2 == 0 {
                    TrackKind::Chip
                } else {
                    TrackKind::Bus
                },
            );
        }
        assert_eq!(buf.tracks.len(), 65_536);
        buf.add_track("one too many", TrackKind::Chip);
    }

    #[test]
    fn export_skips_ends_with_evicted_begins() {
        let mut buf = TraceBuffer::new(16);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        let mut ids = Vec::new();
        for i in 0..20 {
            ids.push(buf.begin(chip, "serving", t(i), None));
        }
        for (i, id) in ids.into_iter().enumerate() {
            buf.end(id, t(100 + i as u64));
        }
        // Some begins were evicted; export must not panic and stays valid JSON.
        let json = buf.to_chrome_json();
        assert!(json.ends_with("]}\n"));
    }
}
