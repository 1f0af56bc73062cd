//! Property tests for trace generation and serialization.

use dma_trace::{
    DmaRecord, OltpDbGen, OltpStGen, ProcRecord, SyntheticDbGen, SyntheticStorageGen, TpchScanGen,
    Trace, TraceEvent, TraceGen,
};
use iobus::{DmaDirection, DmaSource};
use proptest::prelude::*;
use simcore::{SimDuration, SimTime};

fn generators() -> Vec<Box<dyn TraceGen>> {
    vec![
        Box::new(SyntheticStorageGen {
            pages: 2048,
            ..Default::default()
        }),
        Box::new(SyntheticDbGen {
            pages: 2048,
            proc_per_transfer: 10.0,
            ..Default::default()
        }),
        Box::new(OltpStGen {
            pages: 2048,
            cache_pages: 700,
            disks: 64,
            ..Default::default()
        }),
        Box::new(OltpDbGen {
            pages: 2048,
            proc_per_transfer: 10.0,
            ..Default::default()
        }),
        Box::new(TpchScanGen {
            pages: 2048,
            ..Default::default()
        }),
    ]
}

/// One record from raw draws, spread over what a trace must store
/// exactly: equal stamps, gaps around and past the widths the layout
/// packs (2^30 and 2^32 ps, and the top of the clock), pages of 2^32 and
/// above, processor accesses of other than 64 bytes, and DMAs among the
/// accesses.
fn record((kind, when, a, b): (u8, u8, u64, u64)) -> TraceEvent {
    let time = SimTime::from_ps(match when {
        0 => 0,
        1 => a % 8,
        2 => a % (1 << 20) * 1_000,
        3 => (1 << 30) - 2 + a % 4,
        4 => (1 << 32) + a % (1 << 40),
        _ => a,
    });
    match kind {
        0..=4 => TraceEvent::Proc(ProcRecord {
            time,
            page: b % 4096,
            bytes: 64,
        }),
        5 => TraceEvent::Proc(ProcRecord {
            time,
            page: (1 << 32) - 1 + b % 3,
            bytes: 64,
        }),
        6 => TraceEvent::Proc(ProcRecord {
            time,
            page: b % 4096,
            bytes: b % 200,
        }),
        _ => TraceEvent::Dma(DmaRecord {
            time,
            bus: (b % 5) as usize,
            page: b >> 8,
            bytes: 1 + b % 10_000,
            direction: if b & 1 == 0 {
                DmaDirection::FromMemory
            } else {
                DmaDirection::ToMemory
            },
            source: if b & 2 == 0 {
                DmaSource::Network
            } else {
                DmaSource::Disk
            },
        }),
    }
}

fn records() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec(
        (0u8..10, 0u8..6, any::<u64>(), any::<u64>()).prop_map(record),
        0..120,
    )
}

/// The reference model: a stable sort by time.
fn sorted(mut v: Vec<TraceEvent>) -> Vec<TraceEvent> {
    v.sort_by_key(|e| e.time());
    v
}

fn events(t: &Trace) -> Vec<TraceEvent> {
    t.iter().collect()
}

/// True when every field of `e` fits the binary format's widths.
fn fits_binary(e: &TraceEvent) -> bool {
    match e {
        TraceEvent::Dma(d) => d.bus <= 0xffff && d.bytes <= u64::from(u32::MAX),
        TraceEvent::Proc(p) => p.page <= u64::from(u32::MAX) && p.bytes <= 0xffff,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A built trace reads back as the stable sort of what it was built
    /// from, and so does every operation that rebuilds one.
    #[test]
    fn trace_ops_match_a_sorted_vec(v in records(), w in records(), cut in 0usize..130) {
        let t = Trace::from_events(v.clone());
        let want = sorted(v.clone());
        prop_assert_eq!(events(&t), want.clone());
        prop_assert_eq!(t.len(), v.len());
        prop_assert_eq!(
            t.duration(),
            want.last().map_or(SimDuration::ZERO, |e| e.time().elapsed_since(SimTime::ZERO))
        );
        prop_assert_eq!(&v.iter().copied().collect::<Trace>(), &t);

        let u = Trace::from_events(w.clone());
        let merged = sorted(want.iter().chain(&sorted(w.clone())).copied().collect());
        prop_assert_eq!(events(&t.clone().merge(u)), merged);

        let mut extended = t.clone();
        extended.extend(w.iter().copied());
        prop_assert_eq!(events(&extended), sorted(want.iter().chain(&w).copied().collect()));

        let cutoff = want.get(cut).map_or(SimTime::NEVER, |e| e.time());
        let prefix: Vec<TraceEvent> = want.iter().copied().take_while(|e| e.time() < cutoff).collect();
        prop_assert_eq!(events(&t.truncated(cutoff)), prefix);
    }

    /// Text round-trips always hold; binary ones hold whenever every
    /// field fits the format, which refuses the trace otherwise.
    #[test]
    fn serialisations_round_trip(v in records()) {
        let t = Trace::from_events(v);
        let mut text = Vec::new();
        t.write_text(&mut text).unwrap();
        prop_assert_eq!(&Trace::read_text(text.as_slice()).unwrap(), &t);
        let mut bin = Vec::new();
        match t.write_binary(&mut bin) {
            Ok(()) => prop_assert_eq!(&Trace::read_binary(bin.as_slice()).unwrap(), &t),
            Err(e) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
                prop_assert!(!t.iter().all(|e| fits_binary(&e)), "refused a trace that fits");
            }
        }
    }

    /// Every generator produces time-ordered events on valid pages/buses,
    /// deterministically per seed, and survives a text round-trip.
    #[test]
    fn generator_output_is_well_formed(seed in 0u64..300, which in 0usize..5) {
        let gen = &generators()[which];
        let t = gen.generate(SimDuration::from_ms(2), seed);
        // Ordered.
        let mut prev = simcore::SimTime::ZERO;
        for e in &t {
            prop_assert!(e.time() >= prev, "{} unordered", gen.name());
            prev = e.time();
            prop_assert!(e.page() < 2048, "{} page out of range", gen.name());
            if let dma_trace::TraceEvent::Dma(d) = e {
                prop_assert!(d.bus < 3, "{} bus out of range", gen.name());
                prop_assert!(d.bytes > 0);
            }
        }
        // Deterministic.
        prop_assert_eq!(&t, &gen.generate(SimDuration::from_ms(2), seed));
        // Round-trips through the text format.
        let mut buf = Vec::new();
        t.write_text(&mut buf).unwrap();
        let back = Trace::read_text(buf.as_slice()).unwrap();
        prop_assert_eq!(t, back);
    }

    /// Rates scale linearly with the configured arrival rate.
    #[test]
    fn synthetic_rate_scales(rate in 20.0f64..300.0, seed in 0u64..100) {
        let gen = SyntheticStorageGen {
            transfers_per_ms: rate,
            pages: 2048,
            ..Default::default()
        };
        let s = gen.generate(SimDuration::from_ms(5), seed).stats();
        let measured = s.dma_rate_per_ms();
        prop_assert!(
            (measured - rate).abs() < rate * 0.35 + 5.0,
            "asked {rate}, measured {measured}"
        );
    }

    /// Popularity skew grows with the Zipf exponent.
    #[test]
    fn skew_tracks_alpha(seed in 0u64..100) {
        let share = |alpha: f64| {
            let gen = SyntheticStorageGen {
                zipf_alpha: alpha,
                pages: 512,
                ..Default::default()
            };
            gen.generate(SimDuration::from_ms(10), seed)
                .popularity_cdf()
                .share_of_top(0.1)
        };
        let flat = share(0.0);
        let skewed = share(1.2);
        prop_assert!(skewed > flat, "skewed {skewed} <= flat {flat}");
    }

    /// The stats rates are internally consistent with raw counts.
    #[test]
    fn stats_rates_consistent(seed in 0u64..200) {
        let gen = SyntheticDbGen {
            pages: 2048,
            proc_per_transfer: 25.0,
            ..Default::default()
        };
        let t = gen.generate(SimDuration::from_ms(3), seed);
        let s = t.stats();
        prop_assert_eq!(s.dma_transfers(), s.network_transfers + s.disk_transfers);
        let ms = s.duration.as_secs_f64() * 1e3;
        prop_assume!(ms > 0.0);
        prop_assert!((s.dma_rate_per_ms() - s.dma_transfers() as f64 / ms).abs() < 1e-9);
    }
}
