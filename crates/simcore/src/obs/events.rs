//! Structured sim-event tracing: a ring-buffered sink with JSONL export.

use std::collections::VecDeque;
use std::io;

use super::json::JsonObject;

/// A typed simulation event that knows how to describe itself.
///
/// Implementors provide a stable `kind` tag, the simulation timestamp in
/// picoseconds, and their payload fields; the sink supplies the envelope
/// (`seq`, `t_ps`, `kind`).
pub trait ObsEvent {
    /// Stable event-type tag (snake_case, e.g. `"mode_transition"`).
    fn kind(&self) -> &'static str;

    /// Simulation timestamp in picoseconds.
    fn timestamp_ps(&self) -> u64;

    /// Appends the event's payload fields to `obj`.
    fn write_fields(&self, obj: &mut JsonObject);
}

/// A bounded, ring-buffered sink of typed events.
///
/// When the buffer is full the **oldest** events are dropped (and
/// counted), so a long run keeps its most recent history — sequence
/// numbers stay globally consistent either way.
///
/// # Example
///
/// ```
/// use simcore::obs::{EventSink, JsonObject, ObsEvent};
///
/// struct Tick(u64);
/// impl ObsEvent for Tick {
///     fn kind(&self) -> &'static str { "tick" }
///     fn timestamp_ps(&self) -> u64 { self.0 }
///     fn write_fields(&self, _obj: &mut JsonObject) {}
/// }
///
/// let mut sink = EventSink::new(16);
/// sink.record(Tick(1_000));
/// assert_eq!(sink.to_jsonl(), "{\"seq\":0,\"t_ps\":1000,\"kind\":\"tick\"}\n");
/// ```
#[derive(Debug, Clone)]
pub struct EventSink<E> {
    buf: VecDeque<E>,
    capacity: usize,
    dropped: u64,
}

impl<E: ObsEvent> EventSink<E> {
    /// Creates a sink holding at most `capacity` events. The buffer is
    /// reserved up front, so recording never copies it to grow; pages
    /// the sink never writes are not touched.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity event sink");
        EventSink {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends one event, evicting the oldest if the sink is full.
    pub fn record(&mut self, event: E) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The sink's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (buffered + dropped).
    pub fn recorded(&self) -> u64 {
        self.dropped + self.buf.len() as u64
    }

    /// Iterates the buffered events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.buf.iter()
    }

    /// The buffered events with their sequence numbers, oldest first:
    /// evicted events were the oldest, so the buffer holds the sequence
    /// numbers `dropped..recorded`.
    fn numbered(&self) -> impl Iterator<Item = (u64, &E)> {
        (self.dropped..).zip(&self.buf)
    }

    /// Renders one event as its JSONL line (no trailing newline).
    fn line(seq: u64, event: &E) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("seq", seq)
            .field_u64("t_ps", event.timestamp_ps())
            .field_str("kind", event.kind());
        event.write_fields(&mut obj);
        obj.finish()
    }

    /// Iterates the buffered events with sequence number `>= since`,
    /// oldest first, as `(seq, jsonl-line)` pairs (no trailing
    /// newlines). This is the cursor-carrying accessor the live
    /// telemetry tail uses: callers remember the last `seq + 1` they saw
    /// and pass it back to read only newer events.
    pub fn lines_since(&self, since: u64) -> impl Iterator<Item = (u64, String)> + '_ {
        self.numbered()
            .filter(move |(seq, _)| *seq >= since)
            .map(|(seq, e)| (seq, Self::line(seq, e)))
    }

    /// Streams the buffered events into `w` as JSONL, one line per event,
    /// so a file export needs no copy of the whole log in memory.
    pub fn write_jsonl(&self, mut w: impl io::Write) -> io::Result<()> {
        for (seq, e) in self.numbered() {
            w.write_all(Self::line(seq, e).as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()
    }

    /// The buffered events as a JSONL string.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        // Writing into a `Vec` cannot fail.
        let _ = self.write_jsonl(&mut out);
        String::from_utf8(out).expect("JSONL lines are UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        t: u64,
        label: &'static str,
    }

    impl ObsEvent for Probe {
        fn kind(&self) -> &'static str {
            "probe"
        }
        fn timestamp_ps(&self) -> u64 {
            self.t
        }
        fn write_fields(&self, obj: &mut JsonObject) {
            obj.field_str("label", self.label);
        }
    }

    #[test]
    fn ring_drops_oldest_and_keeps_seq() {
        let mut sink = EventSink::new(2);
        for (i, label) in ["a", "b", "c"].iter().enumerate() {
            sink.record(Probe { t: i as u64, label });
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 1);
        assert_eq!(sink.recorded(), 3);
        let jsonl = sink.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""seq":1"#) && lines[0].contains(r#""label":"b""#));
        assert!(lines[1].contains(r#""seq":2"#) && lines[1].contains(r#""label":"c""#));
    }

    #[test]
    fn lines_since_carries_cursors() {
        let mut sink = EventSink::new(2);
        for (i, label) in ["a", "b", "c"].iter().enumerate() {
            sink.record(Probe { t: i as u64, label });
        }
        // seq 0 was evicted; the cursor view starts at the retained tail.
        let all: Vec<(u64, String)> = sink.lines_since(0).collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, 1);
        assert!(all[0].1.contains(r#""label":"b""#));
        let newer: Vec<(u64, String)> = sink.lines_since(2).collect();
        assert_eq!(newer.len(), 1);
        assert_eq!(newer[0].0, 2);
        // Lines match the JSONL export byte for byte.
        let joined: String = all.iter().map(|(_, l)| format!("{l}\n")).collect();
        assert_eq!(joined, sink.to_jsonl());
    }

    /// Accepts `room` bytes, then fails every write.
    struct Full {
        room: usize,
    }

    impl io::Write for Full {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            if bytes.len() > self.room {
                return Err(io::Error::other("full"));
            }
            self.room -= bytes.len();
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_jsonl_streams_the_export_and_surfaces_write_errors() {
        let mut sink = EventSink::new(4);
        for (i, label) in ["a", "b"].iter().enumerate() {
            sink.record(Probe { t: i as u64, label });
        }
        let want = sink.to_jsonl();
        assert!(sink.write_jsonl(Full { room: want.len() }).is_ok());
        assert!(sink
            .write_jsonl(Full {
                room: want.len() - 1
            })
            .is_err());
    }
}
