//! Golden-file test for the Perfetto (Chrome trace-event) exporter.
//!
//! A small scripted transfer — gather, release, wakeup, lockstep,
//! active-idle, drain — plus one chip activity lane and a power-mode
//! transition is rendered to JSON and compared byte-for-byte against
//! `tests/golden/trace_small.json`. Any change to the export format is
//! therefore a deliberate, reviewed diff of the golden file; regenerate
//! it with `UPDATE_GOLDEN=1 cargo test -p dmamem --test trace_golden`.

use dmamem::obs::ChipActivity;
use dmamem::tracing::Tracer;
use dmamem::SimEvent;
use mempower::PowerMode;
use simcore::obs::json::{parse, JsonValue};
use simcore::{SimDuration, SimTime};

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_us(us)
}

fn activity(at: SimTime, activity: ChipActivity) -> SimEvent {
    SimEvent::Activity {
        at,
        chip: 0,
        activity,
    }
}

fn issued(at: SimTime, is_first: bool, is_last: bool) -> SimEvent {
    SimEvent::RequestIssued {
        at,
        transfer: 9,
        is_first,
        is_last,
        wake_pending: false,
    }
}

fn served(at: SimTime, is_last: bool) -> SimEvent {
    SimEvent::RequestServed {
        at,
        transfer: 9,
        is_last,
        service: SimDuration::from_us(1),
    }
}

/// The scripted scenario, fed through the tracer's one entry point.
/// Kept deliberately tiny so the golden file stays reviewable in a diff.
fn scripted_trace() -> String {
    let mut tr = Tracer::new(1 << 10, 2, 1, [300.0, 180.0, 30.0, 3.0], None);
    let script = [
        // Chip 0 dozes while transfer 9 arrives on bus 0 and is gathered.
        activity(t(0), ChipActivity::LowPower),
        SimEvent::TransferStart {
            at: t(1),
            transfer: 9,
            bus: 0,
        },
        issued(t(1), true, false), // first request parks in the gather queue
        SimEvent::TaGather {
            at: t(1),
            chip: 0,
            pending: 1,
            transfer: 9,
        },
        // CP-Limit reached: release the gathered transfer, wake the chip.
        SimEvent::ModeTransition {
            at: t(3),
            chip: 0,
            from: PowerMode::Nap,
            to: PowerMode::Active,
            latency: SimDuration::from_us(1),
        },
        activity(t(3), ChipActivity::Transitioning),
        // Release mark + wakeup span.
        SimEvent::TransferRelease {
            at: t(3),
            transfer: 9,
        },
        activity(t(4), ChipActivity::Serving),
        // Wakeup over, lockstep service begins.
        SimEvent::ServeStart {
            at: t(4),
            transfer: 9,
        },
        served(t(6), false), // bus caught up -> active-idle gap
        issued(t(7), false, true),
        // Last request issued -> drain phase.
        SimEvent::ServeStart {
            at: t(7),
            transfer: 9,
        },
        served(t(8), true), // transfer completes, root closes
        activity(t(8), ChipActivity::IdleDma),
    ];
    for ev in &script {
        tr.on(ev);
    }
    tr.into_buffer(t(10)).to_chrome_json()
}

#[test]
fn chrome_json_matches_golden_file() {
    let json = scripted_trace();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_small.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        json, golden,
        "Perfetto export changed; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test -p dmamem --test trace_golden"
    );
}

#[test]
fn chrome_json_has_trace_event_shape() {
    let parsed = parse(&scripted_trace()).expect("exporter emits valid JSON");
    let JsonValue::Object(fields) = &parsed else {
        panic!("top level must be an object");
    };
    assert!(fields.iter().any(|(k, _)| k == "displayTimeUnit"));
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut phases = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has a phase");
        phases.insert(ph.to_string());
        // Metadata events carry no timestamp or thread id; everything
        // else must have both.
        if ph != "M" {
            assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some());
            assert!(ev.get("tid").is_some());
        }
        assert!(ev.get("pid").is_some());
    }
    for want in ["B", "E", "b", "e", "i", "C", "M"] {
        assert!(phases.contains(want), "missing phase {want}");
    }
}
