//! Parser robustness: the text and binary trace readers take external
//! bytes, so on arbitrary or corrupted input they must return an error
//! or a trace the simulator can run — never panic, and never accept a
//! zero-byte DMA (which `DmaTransfer::new` rejects by panicking).

use dma_trace::{SyntheticDbGen, Trace, TraceEvent, TraceGen};
use proptest::prelude::*;
use simcore::rng::DetRng;
use simcore::SimDuration;

/// Both readers' verdict on `bytes` is `Err` or a runnable trace.
fn check_both(bytes: &[u8]) -> Result<(), TestCaseError> {
    for (reader, parsed) in [
        ("text", Trace::read_text(bytes)),
        ("binary", Trace::read_binary(bytes)),
    ] {
        if let Ok(trace) = parsed {
            for e in &trace {
                if let TraceEvent::Dma(d) = e {
                    prop_assert!(d.bytes > 0, "{reader} reader accepted a zero-byte DMA");
                }
            }
        }
    }
    Ok(())
}

/// A small valid trace with both record kinds.
fn valid_trace(seed: u64) -> Trace {
    SyntheticDbGen {
        pages: 64,
        proc_per_transfer: 2.0,
        ..Default::default()
    }
    .generate(SimDuration::from_us(100), seed)
}

/// Applies `n` random edits: overwrite, insert or delete a byte, zero
/// a whole decimal field, or truncate.
fn mutate(mut bytes: Vec<u8>, n: usize, rng: &mut DetRng) -> Vec<u8> {
    const ALPHABET: &[u8] = b"0123456789 DPFTNK#\n-x";
    for _ in 0..n {
        let at = if bytes.is_empty() {
            0
        } else {
            (rng.next_u64() % bytes.len() as u64) as usize
        };
        // Half the replacement bytes come from the text format's own
        // alphabet, so text mutations stay near-valid and reach deep.
        let byte = if rng.next_u64() & 1 == 0 {
            ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize]
        } else {
            rng.next_u64() as u8
        };
        match rng.next_u64() % 5 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            // Text fields that parse as 0 (a zero-byte DMA, time 0).
            3 if bytes.get(at).is_some_and(u8::is_ascii_digit) => {
                let digit = |i: &usize| bytes[*i].is_ascii_digit();
                let start = (0..at).rev().take_while(digit).last().unwrap_or(at);
                let end = (at..bytes.len()).find(|i| !digit(i)).unwrap_or(bytes.len());
                bytes.splice(start..end, [b'0']);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic either reader.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        check_both(&bytes)?;
    }

    /// Arbitrary bytes behind a valid binary header reach the record
    /// decoder instead of failing on the magic.
    #[test]
    fn arbitrary_binary_records_never_panic(
        count in 0u64..8,
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = b"DMTR\x01".to_vec();
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&body);
        check_both(&bytes)?;
    }

    /// Corrupted copies of valid text and binary encodings are rejected
    /// or parse to runnable traces.
    #[test]
    fn mutated_encodings_never_panic(seed in any::<u64>(), edits in 1usize..6) {
        let trace = valid_trace(seed);
        let mut text = Vec::new();
        trace.write_text(&mut text).unwrap();
        let mut binary = Vec::new();
        trace.write_binary(&mut binary).unwrap();
        let mut rng = DetRng::new(seed);
        for encoding in [text, binary] {
            check_both(&mutate(encoding, edits, &mut rng))?;
        }
    }
}

/// The hand-made case behind the zero-byte rule, in both formats.
#[test]
fn zero_byte_dma_is_an_error_in_both_formats() {
    assert!(Trace::read_text("D 0 0 0 0 F N".as_bytes()).is_err());
    let mut bytes = b"DMTR\x01".to_vec();
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.push(0); // DMA tag
    bytes.extend_from_slice(&0u64.to_le_bytes()); // time
    bytes.extend_from_slice(&0u16.to_le_bytes()); // bus
    bytes.extend_from_slice(&0u64.to_le_bytes()); // page
    bytes.extend_from_slice(&0u32.to_le_bytes()); // bytes
    bytes.extend_from_slice(&[0, 0]); // direction, source
    assert!(Trace::read_binary(bytes.as_slice()).is_err());
}
