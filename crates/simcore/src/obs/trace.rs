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

use crate::time::SimTime;

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
pub struct TrackId(u32);

/// Identifies a span within one buffer (ids are never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(u64);

#[derive(Debug, Clone)]
struct Track {
    name: String,
    kind: TrackKind,
}

/// Index into a buffer's interned name table.
type NameId = u16;

/// One ring record: 32 bytes. Names are interned per buffer and a
/// begin's parent is stored as its id + 1, with 0 meaning none.
#[derive(Debug, Clone, Copy)]
enum Record {
    Begin {
        id: u64,
        parent: u64,
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

impl Record {
    fn at(&self) -> SimTime {
        match *self {
            Record::Begin { at, .. }
            | Record::End { at, .. }
            | Record::Instant { at, .. }
            | Record::Counter { at, .. } => at,
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

/// Per-span state while [`TraceBuffer::validate`] walks the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SpanState {
    Unseen,
    Open(TrackId),
    Closed,
}

/// Summary statistics from [`TraceBuffer::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Records currently held in the ring.
    pub records: usize,
    /// `begin` records seen during validation.
    pub spans: usize,
    /// Spans begun but not ended within the retained records.
    pub open: usize,
    /// Records evicted by the ring since the buffer was created.
    pub dropped: u64,
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

/// Render data of the spans a writer has begun and not yet ended, dense
/// by id from `base`. A span still unended when [`SpanTable::WINDOW`]
/// younger spans have begun moves to `parked`, so one long-lived span (a
/// chip asleep for the whole run) does not hold the window open behind
/// it.
#[derive(Debug, Clone, Default)]
struct SpanTable {
    base: u64,
    /// Spans `base..`; `None` once ended (or never begun here).
    window: VecDeque<Option<SpanMeta>>,
    /// Unended spans older than `base`, ascending by id.
    parked: Vec<(u64, SpanMeta)>,
}

impl SpanTable {
    const WINDOW: usize = 1 << 16;

    fn get(&self, id: u64) -> Option<SpanMeta> {
        match id.checked_sub(self.base) {
            Some(i) => self.window.get(usize::try_from(i).ok()?).copied().flatten(),
            None => self.parked_at(id).map(|i| self.parked[i].1),
        }
    }

    fn parked_at(&self, id: u64) -> Option<usize> {
        self.parked.binary_search_by_key(&id, |&(p, _)| p).ok()
    }

    /// Adds a begun span. Begins arrive in id order, so this appends.
    fn insert(&mut self, id: u64, meta: SpanMeta) {
        if self.window.is_empty() {
            self.base = id;
        }
        let Some(i) = id
            .checked_sub(self.base)
            .and_then(|i| usize::try_from(i).ok())
        else {
            return;
        };
        if i >= self.window.len() {
            self.window.resize(i + 1, None);
        }
        self.window[i] = Some(meta);
        while self.window.len() > Self::WINDOW {
            if let Some(Some(meta)) = self.window.pop_front() {
                self.parked.push((self.base, meta));
            }
            self.base += 1;
        }
    }

    /// Drops an ended span and advances past the ended front.
    fn remove(&mut self, id: u64) {
        match id.checked_sub(self.base) {
            Some(i) => {
                if let Some(slot) = usize::try_from(i).ok().and_then(|i| self.window.get_mut(i)) {
                    *slot = None;
                }
                while let Some(None) = self.window.front() {
                    self.window.pop_front();
                    self.base += 1;
                }
            }
            None => {
                if let Some(i) = self.parked_at(id) {
                    self.parked.remove(i);
                }
            }
        }
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
    spans: SpanTable,
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
    fn record(&mut self, names: &[&str], tracks: &[Track], rec: &Record) -> io::Result<bool> {
        // A span record's root and its async and sync phases.
        let (track, name, at, span) = match *rec {
            Record::Begin {
                id,
                parent,
                track,
                name,
                at,
            } => {
                let root = parent
                    .checked_sub(1)
                    .and_then(|p| self.spans.get(p))
                    .map_or(id, |m| m.root);
                self.spans.insert(id, SpanMeta { track, name, root });
                (track, name, at, Some((root, "b", "B")))
            }
            Record::End { id, at } => {
                let Some(SpanMeta { track, name, root }) = self.spans.get(id) else {
                    return Ok(false);
                };
                self.spans.remove(id);
                (track, name, at, Some((root, "e", "E")))
            }
            Record::Instant { track, name, at }
            | Record::Counter {
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
            (None, Record::Instant { .. }) => write!(line, ",\"ph\":\"i\",\"s\":\"t\""),
            (None, _) => write!(line, ",\"ph\":\"C\""),
        };
        let ts = at.as_ps() as f64 / 1e6;
        let pid = u64::from(track.0) + 1;
        let _ = write!(line, ",\"ts\":{ts},\"pid\":{pid},\"tid\":0");
        if let Record::Counter { value, .. } = *rec {
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

/// Incremental-export state for an armed spill sink.
#[derive(Debug, Clone)]
struct Spill {
    writer: ChromeWriter<SpillSink>,
    /// Records streamed to the sink.
    spilled: u64,
    /// Whether the footer has been written.
    finalized: bool,
}

/// A bounded ring of span/instant/counter records over simulated time.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    tracks: Vec<Track>,
    /// Interned record names; records hold indexes into this table.
    names: Vec<&'static str>,
    records: VecDeque<Record>,
    capacity: usize,
    dropped: u64,
    next_span: u64,
    /// Ids of the open spans, ascending: ids grow with every begin, so
    /// a begin pushes and an end binary-searches.
    open: Vec<u64>,
    spill: Option<Spill>,
}

impl TraceBuffer {
    /// Creates a buffer retaining at most `capacity` records (minimum 16).
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            tracks: Vec::new(),
            names: Vec::new(),
            records: VecDeque::new(),
            capacity: capacity.max(16),
            dropped: 0,
            next_span: 0,
            open: Vec::new(),
            spill: None,
        }
    }

    /// Registers a track and returns its id.
    pub fn add_track(&mut self, name: impl Into<String>, kind: TrackKind) -> TrackId {
        let id = TrackId(self.tracks.len() as u32);
        self.tracks.push(Track {
            name: name.into(),
            kind,
        });
        id
    }

    /// Number of registered tracks.
    pub fn track_count(&self) -> usize {
        self.tracks.len()
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

    /// Spans currently open (begun, not yet ended).
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// Records streamed to the armed spill sink so far.
    pub fn spilled(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.spilled)
    }

    /// True when a spill sink is armed and not yet finalized.
    pub fn spill_armed(&self) -> bool {
        self.spill.as_ref().is_some_and(|s| !s.finalized)
    }

    /// The table index of `name`, added on first use. A buffer holds a
    /// handful of distinct names, so a scan beats hashing.
    fn intern(&mut self, name: &'static str) -> NameId {
        let idx = match self.names.iter().position(|&n| n == name) {
            Some(idx) => idx,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        NameId::try_from(idx).expect("more than 65536 distinct trace record names")
    }

    fn push(&mut self, record: Record) {
        if self.records.len() == self.capacity {
            if let Some(oldest) = self.records.pop_front() {
                if self.spill_armed() {
                    self.spill_record(&oldest);
                } else {
                    self.dropped += 1;
                }
            }
        }
        self.records.push_back(record);
    }

    /// Writes one record to the armed sink; failed writes and ends whose
    /// begin predates arming count in `dropped`, so loss is observable.
    fn spill_record(&mut self, rec: &Record) {
        let Some(sp) = &mut self.spill else { return };
        match sp.writer.record(&self.names, &self.tracks, rec) {
            Ok(true) => sp.spilled += 1,
            Ok(false) | Err(_) => self.dropped += 1,
        }
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
        self.spill = Some(Spill {
            writer,
            spilled: 0,
            finalized: false,
        });
    }

    /// Writes every retained record to the armed sink, appends the Chrome
    /// JSON footer, flushes the sink, and returns the total records
    /// streamed. The ring itself is left intact. Idempotent: a second
    /// call (or a call with no sink armed) does nothing and returns the
    /// prior total.
    pub fn finalize_spill(&mut self) -> u64 {
        if !self.spill_armed() {
            return self.spilled();
        }
        let retained = std::mem::take(&mut self.records);
        for rec in &retained {
            self.spill_record(rec);
        }
        self.records = retained;
        if let Some(sp) = &mut self.spill {
            if sp.writer.close().is_err() {
                self.dropped += 1;
            }
            sp.finalized = true;
        }
        self.spilled()
    }

    /// Opens a span on `track` at `at`, optionally nested under `parent`.
    ///
    /// # Panics
    ///
    /// If the buffer has seen more than 65536 distinct record names.
    pub fn begin(
        &mut self,
        track: TrackId,
        name: &'static str,
        at: SimTime,
        parent: Option<SpanId>,
    ) -> SpanId {
        let id = self.next_span;
        self.next_span += 1;
        self.open.push(id);
        let name = self.intern(name);
        self.push(Record::Begin {
            id,
            parent: parent.map_or(0, |p| p.0 + 1),
            track,
            name,
            at,
        });
        SpanId(id)
    }

    /// Closes the span `id` at `at`. Closing an unknown or already-closed
    /// span still records the end (the ring may have evicted the begin);
    /// [`TraceBuffer::validate`] flags it when nothing was dropped.
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        if let Ok(pos) = self.open.binary_search(&id.0) {
            self.open.remove(pos);
        }
        self.push(Record::End { id: id.0, at });
    }

    /// Records a point-in-time marker on `track`.
    ///
    /// # Panics
    ///
    /// If the buffer has seen more than 65536 distinct record names.
    pub fn instant(&mut self, track: TrackId, name: &'static str, at: SimTime) {
        let name = self.intern(name);
        self.push(Record::Instant { track, name, at });
    }

    /// Records a counter sample on `track`.
    ///
    /// # Panics
    ///
    /// If the buffer has seen more than 65536 distinct record names.
    pub fn counter(&mut self, track: TrackId, name: &'static str, at: SimTime, value: f64) {
        let name = self.intern(name);
        self.push(Record::Counter {
            track,
            name,
            at,
            value,
        });
    }

    /// Closes every span still open at `at`, children before parents
    /// (span ids grow monotonically, so descending id order is a valid
    /// closing order for any forest recorded through this API).
    pub fn finish(&mut self, at: SimTime) {
        while let Some(&id) = self.open.last() {
            self.end(SpanId(id), at);
        }
    }

    /// The id of the oldest retained `begin`, or the next id to be
    /// assigned when none is retained. Begins enter the ring in id order
    /// and the ring is a suffix of the record stream, so the retained
    /// begins carry exactly the ids `first_retained_span()..next_span`.
    fn first_retained_span(&self) -> u64 {
        self.records
            .iter()
            .find_map(|r| match *r {
                Record::Begin { id, .. } => Some(id),
                _ => None,
            })
            .unwrap_or(self.next_span)
    }

    /// Checks the structural invariants of the retained records:
    /// non-decreasing timestamps, every end matching an open begin, parents
    /// open when children begin, and strict LIFO nesting on
    /// [`TrackKind::Chip`] tracks. End/parent checks are skipped when the
    /// ring has dropped records (the matching begins may be gone). Runs
    /// in time linear in the retained records: span state is indexed by
    /// id relative to the oldest retained begin.
    pub fn validate(&self) -> Result<TraceStats, String> {
        let strict = self.dropped == 0 && self.spilled() == 0;
        let first = self.first_retained_span();
        let len = (self.next_span - first) as usize;
        let mut state = vec![SpanState::Unseen; len];
        let slot = |id: u64| {
            id.checked_sub(first)
                .and_then(|i| usize::try_from(i).ok())
                .filter(|&i| i < len)
        };
        let mut last = SimTime::ZERO;
        let mut spans = 0usize;
        let mut open = 0usize;
        let mut chip_stacks: Vec<Vec<u64>> = vec![Vec::new(); self.tracks.len()];
        for (i, rec) in self.records.iter().enumerate() {
            let at = rec.at();
            if at < last {
                return Err(format!(
                    "record {i}: timestamp {} ps regresses below {} ps",
                    at.as_ps(),
                    last.as_ps()
                ));
            }
            last = at;
            match *rec {
                Record::Begin {
                    id, parent, track, ..
                } => {
                    spans += 1;
                    match slot(id) {
                        Some(s) if state[s] == SpanState::Unseen => {
                            state[s] = SpanState::Open(track);
                            open += 1;
                        }
                        _ => return Err(format!("record {i}: span id {id} reused")),
                    }
                    if let Some(p) = parent.checked_sub(1).filter(|_| strict) {
                        match slot(p).map(|s| state[s]) {
                            Some(SpanState::Open(_)) => {}
                            Some(SpanState::Closed) => {
                                return Err(format!("record {i}: parent span {p} already closed"));
                            }
                            _ => {
                                return Err(format!("record {i}: parent span {p} never began"));
                            }
                        }
                    }
                    if self.track_kind(track) == Some(TrackKind::Chip) {
                        chip_stacks[track.0 as usize].push(id);
                    }
                }
                Record::End { id, .. } => match slot(id).map(|s| (s, state[s])) {
                    Some((s, SpanState::Open(track))) => {
                        state[s] = SpanState::Closed;
                        open -= 1;
                        if self.track_kind(track) == Some(TrackKind::Chip)
                            && chip_stacks[track.0 as usize].pop() != Some(id)
                        {
                            return Err(format!(
                                "record {i}: span {id} ends out of LIFO order on chip track {}",
                                track.0
                            ));
                        }
                    }
                    Some((_, SpanState::Closed)) => {
                        return Err(format!("record {i}: span {id} ended twice"));
                    }
                    _ if strict => {
                        return Err(format!("record {i}: end for span {id} that never began"));
                    }
                    _ => {}
                },
                Record::Instant { .. } | Record::Counter { .. } => {}
            }
        }
        Ok(TraceStats {
            records: self.records.len(),
            spans,
            open,
            dropped: self.dropped,
        })
    }

    fn track_kind(&self, track: TrackId) -> Option<TrackKind> {
        self.tracks.get(track.0 as usize).map(|t| t.kind)
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
        for rec in &self.records {
            let _ = w.record(&self.names, &self.tracks, rec);
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
    fn ring_records_fit_in_32_bytes() {
        assert!(std::mem::size_of::<Record>() <= 32);
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
        assert_eq!(buf.open_spans(), 2);
        buf.finish(t(9));
        assert_eq!(buf.open_spans(), 0);
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
    fn ring_drops_oldest_and_relaxes_validation() {
        let mut buf = TraceBuffer::new(16);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        for i in 0..40 {
            let s = buf.begin(chip, "serving", t(i * 2), None);
            buf.end(s, t(i * 2 + 1));
        }
        assert_eq!(buf.len(), 16);
        assert_eq!(buf.dropped(), 64); // 80 records, 16 retained
        let stats = buf.validate().expect("drop-relaxed validation");
        assert_eq!(stats.dropped, 64);
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

    /// The three broken-tree shapes strict validation must reject, each
    /// written as its last few records.
    fn write_broken(buf: &mut TraceBuffer, case: usize) {
        let bus = TrackId(1);
        match case {
            0 => {
                let p = buf.begin(bus, "transfer", t(100), None);
                buf.end(p, t(101));
                buf.begin(bus, "wakeup", t(102), Some(p));
            }
            1 => {
                buf.begin(bus, "wakeup", t(100), Some(SpanId(99)));
            }
            _ => buf.end(SpanId(99), t(100)),
        }
    }

    const BROKEN: [&str; 3] = [
        "parent span 0 already closed",
        "parent span 99 never began",
        "end for span 99 that never began",
    ];

    fn two_track_buffer() -> TraceBuffer {
        let mut buf = TraceBuffer::new(16);
        buf.add_track("chip 0", TrackKind::Chip);
        buf.add_track("io bus 0", TrackKind::Bus);
        buf
    }

    #[test]
    fn strict_validation_names_each_broken_tree() {
        for (case, want) in BROKEN.iter().enumerate() {
            let mut buf = two_track_buffer();
            write_broken(&mut buf, case);
            let err = buf.validate().expect_err(want);
            assert!(err.contains(want), "case {case}: {err}");
        }
    }

    #[test]
    fn dropped_or_spilled_rings_accept_the_same_records() {
        for spill in [false, true] {
            for case in 0..BROKEN.len() {
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
                let stats = buf
                    .validate()
                    .unwrap_or_else(|e| panic!("spill {spill}, case {case}: {e}"));
                assert_eq!(stats.records, 16);
            }
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
    fn spill_relaxes_validation_like_drops_do() {
        let (sink, _bytes) = SpillSink::memory();
        let mut buf = TraceBuffer::new(16);
        let chip = buf.add_track("chip 0", TrackKind::Chip);
        buf.arm_spill(sink);
        for i in 0..40 {
            let s = buf.begin(chip, "serving", t(i * 2), None);
            buf.end(s, t(i * 2 + 1));
        }
        let stats = buf.validate().expect("spill-relaxed validation");
        assert_eq!(stats.dropped, 0);
        assert!(buf.spilled() > 0);
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
