//! Plain-text trace serialization.
//!
//! One event per line:
//!
//! ```text
//! # comments and blank lines are ignored
//! D <time_ps> <bus> <page> <bytes> <F|T> <N|K>   # DMA (From/To memory, Network/disK)
//! P <time_ps> <page> <bytes>                     # processor access
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

use iobus::{DmaDirection, DmaSource};
use simcore::SimTime;

use crate::event::{DmaRecord, ProcRecord, Trace, TraceBuilder, TraceEvent};

/// Why a trace file failed to parse.
#[derive(Debug)]
pub enum ParseTraceError {
    /// An I/O error while reading.
    Io(io::Error),
    /// A malformed line (1-based line number and explanation).
    Line(usize, String),
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ParseTraceError::Line(n, msg) => write!(f, "trace line {n}: {msg}"),
        }
    }
}

impl Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseTraceError::Io(e) => Some(e),
            ParseTraceError::Line(..) => None,
        }
    }
}

impl From<io::Error> for ParseTraceError {
    fn from(e: io::Error) -> Self {
        ParseTraceError::Io(e)
    }
}

fn field<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    line_no: usize,
    what: &str,
) -> Result<T, ParseTraceError> {
    let raw = parts
        .next()
        .ok_or_else(|| ParseTraceError::Line(line_no, format!("missing {what}")))?;
    raw.parse()
        .map_err(|_| ParseTraceError::Line(line_no, format!("bad {what}: {raw:?}")))
}

impl Trace {
    /// Writes the trace in the text format above. `write_text` accepts any
    /// [`Write`]r; pass `&mut file` to keep using the file afterwards.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_text<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "# dma-aware-mem trace: {} events", self.len())?;
        for e in self {
            match e {
                TraceEvent::Dma(d) => {
                    let dir = match d.direction {
                        DmaDirection::FromMemory => 'F',
                        DmaDirection::ToMemory => 'T',
                    };
                    let src = match d.source {
                        DmaSource::Network => 'N',
                        DmaSource::Disk => 'K',
                    };
                    writeln!(
                        w,
                        "D {} {} {} {} {} {}",
                        d.time.as_ps(),
                        d.bus,
                        d.page,
                        d.bytes,
                        dir,
                        src
                    )?;
                }
                TraceEvent::Proc(p) => {
                    writeln!(w, "P {} {} {}", p.time.as_ps(), p.page, p.bytes)?;
                }
            }
        }
        Ok(())
    }

    /// Reads a trace in the text format above. `read_text` accepts any
    /// [`BufRead`]er; pass `&mut reader` to keep using it afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on I/O failure or malformed input.
    pub fn read_text<R: BufRead>(r: R) -> Result<Trace, ParseTraceError> {
        let mut trace = TraceBuilder::default();
        for (i, line) in r.lines().enumerate() {
            let line_no = i + 1;
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_ascii_whitespace();
            let kind = parts.next().expect("non-empty line has a first token");
            match kind {
                "D" => {
                    let time_ps: u64 = field(&mut parts, line_no, "time")?;
                    let bus: usize = field(&mut parts, line_no, "bus")?;
                    let page: u64 = field(&mut parts, line_no, "page")?;
                    let bytes: u64 = field(&mut parts, line_no, "bytes")?;
                    if bytes == 0 {
                        return Err(ParseTraceError::Line(line_no, "zero-byte DMA".into()));
                    }
                    let dir: String = field(&mut parts, line_no, "direction")?;
                    let src: String = field(&mut parts, line_no, "source")?;
                    let direction = match dir.as_str() {
                        "F" => DmaDirection::FromMemory,
                        "T" => DmaDirection::ToMemory,
                        other => {
                            return Err(ParseTraceError::Line(
                                line_no,
                                format!("bad direction: {other:?}"),
                            ))
                        }
                    };
                    let source = match src.as_str() {
                        "N" => DmaSource::Network,
                        "K" => DmaSource::Disk,
                        other => {
                            return Err(ParseTraceError::Line(
                                line_no,
                                format!("bad source: {other:?}"),
                            ))
                        }
                    };
                    trace.push(TraceEvent::Dma(DmaRecord {
                        time: SimTime::from_ps(time_ps),
                        bus,
                        page,
                        bytes,
                        direction,
                        source,
                    }));
                }
                "P" => {
                    let time_ps: u64 = field(&mut parts, line_no, "time")?;
                    let page: u64 = field(&mut parts, line_no, "page")?;
                    let bytes: u64 = field(&mut parts, line_no, "bytes")?;
                    trace.push(TraceEvent::Proc(ProcRecord {
                        time: SimTime::from_ps(time_ps),
                        page,
                        bytes,
                    }));
                }
                other => {
                    return Err(ParseTraceError::Line(
                        line_no,
                        format!("unknown record kind: {other:?}"),
                    ))
                }
            }
            if let Some(extra) = parts.next() {
                return Err(ParseTraceError::Line(
                    line_no,
                    format!("trailing garbage: {extra:?}"),
                ));
            }
        }
        Ok(trace.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn sample() -> Trace {
        Trace::from_events(vec![
            TraceEvent::Dma(DmaRecord {
                time: SimTime::ZERO + SimDuration::from_us(1),
                bus: 2,
                page: 42,
                bytes: 8192,
                direction: DmaDirection::FromMemory,
                source: DmaSource::Network,
            }),
            TraceEvent::Proc(ProcRecord {
                time: SimTime::ZERO + SimDuration::from_us(2),
                page: 7,
                bytes: 64,
            }),
            TraceEvent::Dma(DmaRecord {
                time: SimTime::ZERO + SimDuration::from_us(3),
                bus: 0,
                page: 9,
                bytes: 512,
                direction: DmaDirection::ToMemory,
                source: DmaSource::Disk,
            }),
        ])
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_text(&mut buf).unwrap();
        let back = Trace::read_text(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n  \nP 1000 5 64\n";
        let t = Trace::read_text(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bad_kind_is_reported_with_line() {
        let text = "P 1000 5 64\nX 1 2 3\n";
        let err = Trace::read_text(text.as_bytes()).unwrap_err();
        match err {
            ParseTraceError::Line(2, msg) => assert!(msg.contains("unknown")),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn missing_field_is_reported() {
        let err = Trace::read_text("D 1000 0 5".as_bytes()).unwrap_err();
        match err {
            ParseTraceError::Line(1, msg) => assert!(msg.contains("missing")),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn bad_number_is_reported() {
        let err = Trace::read_text("P xyz 5 64".as_bytes()).unwrap_err();
        match err {
            ParseTraceError::Line(1, msg) => assert!(msg.contains("bad time")),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn trailing_garbage_is_reported() {
        let err = Trace::read_text("P 1 5 64 extra".as_bytes()).unwrap_err();
        match err {
            ParseTraceError::Line(1, msg) => assert!(msg.contains("trailing")),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn zero_byte_dma_is_rejected_like_the_binary_reader() {
        let err = Trace::read_text("P 1 5 64\nD 0 0 0 0 F N\n".as_bytes()).unwrap_err();
        match err {
            ParseTraceError::Line(2, msg) => assert!(msg.contains("zero-byte DMA"), "{msg}"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = ParseTraceError::Line(3, "bad page".into());
        assert_eq!(e.to_string(), "trace line 3: bad page");
    }
}
