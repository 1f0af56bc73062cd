//! Compact binary trace serialization.
//!
//! The text format (`Trace::write_text`) is human-auditable but ~50 bytes
//! per event; database traces carry millions of processor accesses, so this
//! module provides a compact little-endian binary format (~18 bytes per
//! event) with a versioned header:
//!
//! ```text
//! magic "DMTR"  u8 version  u64 event_count
//! per event: u8 tag  (tag 0: DMA  — u64 time_ps, u16 bus, u64 page,
//!                                   u32 bytes, u8 dir, u8 src)
//!            (tag 1: Proc — u64 time_ps, u32 page, u16 bytes)
//! ```

use std::io::{self, BufRead, Write};

use iobus::{DmaDirection, DmaSource};
use simcore::SimTime;

use crate::event::{DmaRecord, ProcRecord, Trace, TraceBuilder, TraceEvent};
use crate::io::ParseTraceError;

const MAGIC: &[u8; 4] = b"DMTR";
const VERSION: u8 = 1;

fn bad(msg: impl Into<String>) -> ParseTraceError {
    ParseTraceError::Line(0, msg.into())
}

fn read_exact<R: BufRead>(r: &mut R, buf: &mut [u8]) -> Result<(), ParseTraceError> {
    r.read_exact(buf).map_err(ParseTraceError::Io)
}

fn read_u64<R: BufRead>(r: &mut R) -> Result<u64, ParseTraceError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32<R: BufRead>(r: &mut R) -> Result<u32, ParseTraceError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u16<R: BufRead>(r: &mut R) -> Result<u16, ParseTraceError> {
    let mut b = [0u8; 2];
    read_exact(r, &mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u8<R: BufRead>(r: &mut R) -> Result<u8, ParseTraceError> {
    let mut b = [0u8; 1];
    read_exact(r, &mut b)?;
    Ok(b[0])
}

/// Narrows a record field to its on-disk width, refusing (rather than
/// truncating) a value that does not fit.
fn field<T: TryFrom<V>, V>(value: V, what: &str) -> io::Result<T> {
    T::try_from(value).map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, what))
}

impl Trace {
    /// Writes the trace in the compact binary format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer, and fails with
    /// [`io::ErrorKind::InvalidInput`] when a field does not fit its
    /// on-disk width (a DMA bus above `u16::MAX` or a transfer of 4 GiB
    /// or more; a processor page above `u32::MAX` or an access above
    /// `u16::MAX` bytes).
    pub fn write_binary<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        for e in self {
            match e {
                TraceEvent::Dma(d) => {
                    w.write_all(&[0u8])?;
                    w.write_all(&d.time.as_ps().to_le_bytes())?;
                    w.write_all(&field::<u16, _>(d.bus, "DMA bus exceeds u16")?.to_le_bytes())?;
                    w.write_all(&d.page.to_le_bytes())?;
                    w.write_all(&field::<u32, _>(d.bytes, "DMA bytes exceed u32")?.to_le_bytes())?;
                    w.write_all(&[match d.direction {
                        DmaDirection::FromMemory => 0u8,
                        DmaDirection::ToMemory => 1,
                    }])?;
                    w.write_all(&[match d.source {
                        DmaSource::Network => 0u8,
                        DmaSource::Disk => 1,
                    }])?;
                }
                TraceEvent::Proc(p) => {
                    w.write_all(&[1u8])?;
                    w.write_all(&p.time.as_ps().to_le_bytes())?;
                    w.write_all(&field::<u32, _>(p.page, "proc page exceeds u32")?.to_le_bytes())?;
                    w.write_all(
                        &field::<u16, _>(p.bytes, "proc access exceeds u16 bytes")?.to_le_bytes(),
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Reads a trace in the compact binary format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on I/O failure, bad magic/version, or a
    /// malformed event.
    pub fn read_binary<R: BufRead>(mut r: R) -> Result<Trace, ParseTraceError> {
        let mut magic = [0u8; 4];
        read_exact(&mut r, &mut magic)?;
        if &magic != MAGIC {
            return Err(bad(format!("bad magic {magic:02x?}")));
        }
        let version = read_u8(&mut r)?;
        if version != VERSION {
            return Err(bad(format!("unsupported version {version}")));
        }
        let count = read_u64(&mut r)?;
        // The count is untrusted input, so nothing is reserved from it: a
        // corrupt header must not reserve gigabytes up front.
        let mut trace = TraceBuilder::default();
        for i in 0..count {
            let tag = read_u8(&mut r)?;
            match tag {
                0 => {
                    let time = SimTime::from_ps(read_u64(&mut r)?);
                    let bus = read_u16(&mut r)? as usize;
                    let page = read_u64(&mut r)?;
                    let bytes = read_u32(&mut r)? as u64;
                    if bytes == 0 {
                        return Err(bad(format!("event {i}: zero-byte DMA")));
                    }
                    let direction = match read_u8(&mut r)? {
                        0 => DmaDirection::FromMemory,
                        1 => DmaDirection::ToMemory,
                        d => return Err(bad(format!("event {i}: bad direction {d}"))),
                    };
                    let source = match read_u8(&mut r)? {
                        0 => DmaSource::Network,
                        1 => DmaSource::Disk,
                        s => return Err(bad(format!("event {i}: bad source {s}"))),
                    };
                    trace.push(TraceEvent::Dma(DmaRecord {
                        time,
                        bus,
                        page,
                        bytes,
                        direction,
                        source,
                    }));
                }
                1 => {
                    let time = SimTime::from_ps(read_u64(&mut r)?);
                    let page = read_u32(&mut r)? as u64;
                    let bytes = read_u16(&mut r)? as u64;
                    trace.push(TraceEvent::Proc(ProcRecord { time, page, bytes }));
                }
                t => return Err(bad(format!("event {i}: unknown tag {t}"))),
            }
        }
        Ok(trace.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{SyntheticDbGen, TraceGen};
    use simcore::SimDuration;

    fn sample() -> Trace {
        SyntheticDbGen {
            pages: 512,
            proc_per_transfer: 5.0,
            ..Default::default()
        }
        .generate(SimDuration::from_ms(1), 7)
    }

    #[test]
    fn binary_roundtrip_preserves_trace() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        let back = Trace::read_binary(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn binary_is_smaller_than_text_at_realistic_timestamps() {
        // Realistic traces have >= 10-digit picosecond timestamps; generate
        // 20 ms so the text encoding pays for them.
        let t = SyntheticDbGen {
            pages: 512,
            proc_per_transfer: 20.0,
            ..Default::default()
        }
        .generate(SimDuration::from_ms(20), 7);
        let mut bin = Vec::new();
        t.write_binary(&mut bin).unwrap();
        let mut text = Vec::new();
        t.write_text(&mut text).unwrap();
        assert!(
            bin.len() < text.len(),
            "binary {} vs text {}",
            bin.len(),
            text.len()
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = Trace::read_binary(&b"NOPE\x01"[..]).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut buf = Vec::new();
        sample().write_binary(&mut buf).unwrap();
        buf[4] = 99;
        let err = Trace::read_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unsupported version"));
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut buf = Vec::new();
        sample().write_binary(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(Trace::read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn corrupt_tag_is_rejected() {
        let t = Trace::from_events(vec![TraceEvent::Proc(ProcRecord {
            time: SimTime::ZERO,
            page: 1,
            bytes: 64,
        })]);
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        buf[13] = 7; // the event tag (4 magic + 1 version + 8 count)
        let err = Trace::read_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unknown tag"), "{err}");
    }

    fn one_dma(bus: usize, bytes: u64) -> Trace {
        Trace::from_events(vec![TraceEvent::Dma(DmaRecord {
            time: SimTime::ZERO,
            bus,
            page: 3,
            bytes,
            direction: DmaDirection::ToMemory,
            source: DmaSource::Disk,
        })])
    }

    #[test]
    fn oversized_dma_fields_are_refused_not_truncated() {
        // Exactly 4 GiB used to be written as 0 bytes, which the reader
        // then rejected as a zero-byte DMA.
        for (t, what) in [
            (one_dma(0, 1 << 32), "bytes"),
            (one_dma(1 << 16, 8192), "bus"),
        ] {
            let err = t.write_binary(Vec::new()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{what}");
            assert!(err.to_string().contains(what), "{err}");
        }
        // The widest values that fit still round-trip.
        let t = one_dma(usize::from(u16::MAX), u64::from(u32::MAX));
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        assert_eq!(Trace::read_binary(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::default();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        assert_eq!(Trace::read_binary(buf.as_slice()).unwrap(), t);
    }
}
