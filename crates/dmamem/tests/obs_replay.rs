//! Integration tests for the observability layer: the slack audit trail
//! independently re-derives the simulator's guarantee verdict, and the
//! exported JSONL event stream is well-formed and covers every decision
//! family the controller makes.

use std::collections::BTreeSet;

use dmamem::experiments::{mu_from_baseline, paper_system, Workload};
use dmamem::{replay_slack, Scheme, ServerSimulator, SimEvent, SimResult, SystemConfig};
use mempower::PowerMode;
use proptest::prelude::*;
use simcore::obs::{SpillSink, TraceStats};
use simcore::SimDuration;

/// Runs `workload` under DMA-TA (optionally with PL) with the event sink
/// sized so nothing is dropped; returns the result and the guarantee
/// reference time.
fn observed(
    workload: Workload,
    ms: u64,
    seed: u64,
    mu: f64,
    pl_groups: Option<usize>,
) -> (SimResult, SimDuration) {
    let config = SystemConfig::default();
    let t_ref = config.t_request();
    let trace = workload.generate(SimDuration::from_ms(ms), seed);
    let scheme = match pl_groups {
        Some(g) => Scheme::dma_ta_pl(mu, g),
        None => Scheme::dma_ta(mu),
    };
    let r = ServerSimulator::new(config, scheme)
        .with_observability(1 << 20)
        .run(&trace);
    (r, t_ref)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Replaying the slack-ledger events reproduces `guarantee_met`
    /// without consulting the simulator's own statistics: same verdict,
    /// same `mu`, and a balance trail consistent at every step.
    #[test]
    fn replayed_ledger_reproduces_guarantee(
        seed in 0u64..1_000,
        mu in 0.05f64..3.0,
        with_pl in any::<bool>(),
    ) {
        let groups = if with_pl { Some(2) } else { None };
        let (r, t_ref) = observed(Workload::SyntheticSt, 2, seed, mu, groups);
        let obs = r.obs.as_ref().expect("observability requested");
        prop_assert_eq!(obs.events.dropped(), 0, "audit ring overflowed");
        let replay = replay_slack(obs.events.iter());
        prop_assert!(replay.closed, "no slack_close event");
        prop_assert!(replay.ledger_consistent, "balance trail diverged");
        prop_assert!((replay.mu - r.mu).abs() < 1e-12);
        prop_assert_eq!(
            replay.guarantee_met(t_ref),
            r.guarantee_met(t_ref),
            "ledger verdict disagrees with the simulator"
        );
    }
}

#[test]
fn jsonl_export_is_wellformed_and_covers_event_families() {
    let (r, _) = observed(Workload::OltpSt, 4, 42, 1.0, Some(2));
    let obs = r.obs.as_ref().expect("observability requested");
    let jsonl = obs.events.to_jsonl();
    assert!(!jsonl.is_empty());
    let mut kinds = BTreeSet::new();
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"seq\":"), "bad envelope: {line}");
        assert!(line.ends_with('}'), "unterminated object: {line}");
        assert!(line.contains("\"t_ps\":"), "missing timestamp: {line}");
        let kind = line
            .split("\"kind\":\"")
            .nth(1)
            .unwrap_or_else(|| panic!("missing kind: {line}"))
            .split('"')
            .next()
            .unwrap();
        kinds.insert(kind.to_string());
    }
    for kind in [
        "mode_transition",
        "ta_gather",
        "ta_release",
        "slack_credit",
        "slack_debit",
        "slack_close",
    ] {
        assert!(kinds.contains(kind), "no {kind} events in {kinds:?}");
    }
}

#[test]
fn metrics_snapshot_mirrors_result_counters() {
    let (r, _) = observed(Workload::SyntheticSt, 2, 7, 1.0, None);
    let obs = r.obs.as_ref().expect("observability requested");
    let m = &obs.metrics;
    assert_eq!(m.counter("dmamem.wakes"), Some(r.wakes));
    assert_eq!(m.counter("dmamem.ta.gathered"), Some(r.delayed_firsts));
    let releases = m.counter("dmamem.ta.release.rule").unwrap_or(0)
        + m.counter("dmamem.ta.release.max_delay").unwrap_or(0)
        + m.counter("dmamem.ta.release.proc_wake").unwrap_or(0);
    assert!(releases > 0, "TA made no release decisions");
    let service = &m.histograms["dmamem.request_service_ns"];
    assert_eq!(service.count, r.dma_requests);
    let json = m.to_json();
    assert!(json.starts_with("{\"counters\":{"), "snapshot json: {json}");
    assert!(json.contains("\"dmamem.slack.balance_ps\""));
}

/// The determinism contract of the observability artifacts: two
/// same-seed runs export byte-identical `--metrics-out` and
/// `--events-out` files, so no host-time reading may reach either.
#[test]
fn metrics_and_events_exports_are_byte_identical_across_replays() {
    let export = || {
        let (r, _) = observed(Workload::OltpSt, 2, 42, 1.0, Some(2));
        let obs = r.obs.expect("observability requested");
        (obs.metrics, obs.events.to_jsonl())
    };
    let (metrics_a, events_a) = export();
    let (metrics_b, events_b) = export();
    assert_eq!(metrics_a.to_json(), metrics_b.to_json());
    assert_eq!(events_a, events_b);
    let keys = metrics_a
        .counters
        .keys()
        .chain(metrics_a.gauges.keys())
        .chain(metrics_a.histograms.keys());
    for key in keys {
        assert!(!key.starts_with("span."), "wall-clock metric {key}");
    }
}

/// Mode transitions are emitted where the engine starts them: one per
/// chip wake, each carrying the power model's latency for its step.
#[test]
fn mode_transitions_carry_the_power_model_latencies() {
    let (r, _) = observed(Workload::SyntheticSt, 2, 7, 1.0, None);
    let obs = r.obs.as_ref().expect("observability requested");
    assert_eq!(obs.events.dropped(), 0, "event ring overflowed");
    let model = SystemConfig::default().power_model;
    let mut wakes = 0;
    for ev in obs.events.iter() {
        if let SimEvent::ModeTransition {
            from, to, latency, ..
        } = *ev
        {
            let spec = if to == PowerMode::Active {
                wakes += 1;
                model.wake(from)
            } else {
                model.down(to)
            };
            assert_eq!(latency, spec.latency, "{from} -> {to}");
        }
    }
    assert!(wakes > 0, "no chip woke");
    assert_eq!(wakes, r.wakes);
}

#[test]
fn uninstrumented_run_carries_no_obs_report() {
    let config = SystemConfig::default();
    let trace = Workload::SyntheticSt.generate(SimDuration::from_ms(1), 3);
    let r = ServerSimulator::new(config, Scheme::dma_ta(0.5)).run(&trace);
    assert!(r.obs.is_none());
    // The slack summary is part of the result proper, not the obs layer.
    assert!(r.slack.is_some());
}

/// FNV-1a 64-bit digest: a dependency-free fingerprint of an export's
/// bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pinned run: OLTP-St, 1 ms, seed 42, DMA-TA-PL(2) at the 10 %
/// CP-Limit of the paper system, as a ready-to-instrument simulator and
/// its trace.
fn pinned_sim() -> (ServerSimulator, dma_trace::Trace) {
    let config = paper_system();
    let trace = Workload::OltpSt.generate(SimDuration::from_ms(1), 42);
    let baseline = ServerSimulator::new(config.clone(), Scheme::baseline()).run(&trace);
    let extra = Workload::OltpSt.client_extra_latency();
    let mu = mu_from_baseline(&config, &baseline, 0.10, extra);
    (
        ServerSimulator::new(config, Scheme::dma_ta_pl(mu, 2)),
        trace,
    )
}

/// Pins the bytes of the three engine-produced observer exports: the
/// JSONL event stream, the metrics snapshot, and the Perfetto trace.
/// Same-run comparisons cannot catch a change every run shares; these
/// digests can. A deliberate export change updates them in the same
/// commit.
#[test]
fn engine_exports_match_pinned_digests() {
    let (sim, trace) = pinned_sim();
    let observed = sim.clone().with_observability(1 << 20).run(&trace);
    let obs = observed.obs.expect("observability requested");
    assert_eq!(obs.events.dropped(), 0, "event ring overflowed");
    let events = obs.events.to_jsonl();
    let metrics = obs.metrics.to_json();

    let traced = sim.with_tracing(1 << 20, None).run(&trace);
    let buf = traced.trace.expect("tracing requested");
    assert_eq!(buf.dropped(), 0, "span ring overflowed");
    let stats = buf.validate().expect("valid span tree");
    assert_eq!((stats.spans, stats.open), (PINNED_SPANS, 0));
    let chrome = buf.to_chrome_json();

    let got = [
        fnv1a64(events.as_bytes()),
        fnv1a64(metrics.as_bytes()),
        fnv1a64(chrome.as_bytes()),
    ];
    assert_eq!(
        got,
        [PINNED_EVENTS, PINNED_METRICS, PINNED_TRACE],
        "[events, metrics, trace] digests changed: {got:#018x?}"
    );
}

const PINNED_EVENTS: u64 = 0xfc72_eea2_7cdf_f028;
const PINNED_METRICS: u64 = 0xf03a_0d1b_27f4_df8b;
const PINNED_TRACE: u64 = 0x2e28_055c_d842_03e7;
/// Spans the pinned run begins.
const PINNED_SPANS: usize = 246_919;

/// Pins the span ring past its capacity, where the full-size run above
/// cannot reach: the export of a ring that dropped its oldest records,
/// the streamed bytes of a ring that spilled them, and both rings'
/// span-tree statistics. A spilled run streams its records in record
/// order, so its bytes are the full-size run's export. Every record is
/// checked as it is recorded, so both rings' statistics cover the whole
/// run.
#[test]
fn overflowed_and_spilled_rings_match_pinned_digests() {
    let (sim, trace) = pinned_sim();
    let dropped = sim.clone().with_tracing(1 << 12, None).run(&trace);
    let dropped = dropped.trace.expect("tracing requested");
    assert!(dropped.dropped() > 0, "the small ring must overflow");

    let (sink, bytes) = SpillSink::memory();
    let spilled = sim.with_tracing(1 << 10, Some(sink)).run(&trace);
    let mut spilled = spilled.trace.expect("tracing requested");
    spilled.finalize_spill();
    assert_eq!(spilled.dropped(), 0, "spill lost records");
    let spilled_bytes = bytes.lock().expect("spill buffer").clone();

    let got = [
        fnv1a64(dropped.to_chrome_json().as_bytes()),
        fnv1a64(&spilled_bytes),
    ];
    assert_eq!(
        got,
        [PINNED_DROPPED_TRACE, PINNED_TRACE],
        "[dropped ring, spill] digests changed: {got:#018x?}"
    );
    let stats = [dropped.validate(), spilled.validate()].map(|s| s.expect("valid span tree"));
    assert_eq!(stats, [PINNED_DROPPED_STATS, PINNED_SPILL_STATS]);
    assert_eq!(spilled.spilled(), PINNED_SPILLED);
}

const PINNED_DROPPED_TRACE: u64 = 0x24da_3a5a_66fc_2c09;
const PINNED_DROPPED_STATS: TraceStats = TraceStats {
    records: 4096,
    spans: PINNED_SPANS,
    open: 0,
    dropped: 490_056,
};
const PINNED_SPILL_STATS: TraceStats = TraceStats {
    records: 1024,
    spans: PINNED_SPANS,
    open: 0,
    dropped: 0,
};
const PINNED_SPILLED: u64 = 494_152;

/// The spill sink is armed before the tracer seeds its boot power
/// counters, so even a 16-record ring, smaller than the paper system's
/// 32 chips, streams every record of the run.
#[test]
fn smallest_spilling_ring_loses_no_boot_counter() {
    let (sim, trace) = pinned_sim();
    let (sink, bytes) = SpillSink::memory();
    let spilled = sim.with_tracing(16, Some(sink)).run(&trace);
    let mut spilled = spilled.trace.expect("tracing requested");
    spilled.finalize_spill();
    assert_eq!(spilled.dropped(), 0, "spill lost records");
    let bytes = bytes.lock().expect("spill buffer");
    assert_eq!(fnv1a64(&bytes), PINNED_TRACE, "spilled bytes changed");
    let stats = spilled.validate().expect("valid span tree");
    let whole = TraceStats {
        records: 16,
        spans: PINNED_SPANS,
        open: 0,
        dropped: 0,
    };
    assert_eq!(stats, whole);
}

/// The consumers share one stream and do not perturb each other: with
/// the event log, metrics and a spilling tracer attached
/// together, each export matches its solo run, and the tracer's
/// ring-loss counts land in the metrics snapshot.
#[test]
fn consumers_attached_together_match_their_solo_runs() {
    let (sim, trace) = pinned_sim();
    let spilled_trace = |sim: ServerSimulator| {
        let (sink, bytes) = SpillSink::memory();
        let mut r = sim.with_tracing(1 << 10, Some(sink)).run(&trace);
        let buf = r.trace.as_mut().expect("tracing requested");
        // The run publishes the counts of the ring as it ended, before
        // the final flush.
        let counts = (buf.spilled(), buf.dropped());
        buf.finalize_spill();
        let bytes = bytes.lock().expect("spill buffer").clone();
        (r, bytes, counts)
    };
    let (all, all_trace, (spilled, dropped)) =
        spilled_trace(sim.clone().with_observability(1 << 20));
    let (_, solo_trace, _) = spilled_trace(sim.clone());
    let solo_obs = sim.with_observability(1 << 20).run(&trace);

    assert_eq!(
        all_trace, solo_trace,
        "tracer output depends on other consumers"
    );
    assert!(spilled > 0, "the small ring must spill");
    let (all_obs, solo) = (all.obs.expect("obs"), solo_obs.obs.expect("obs"));
    assert_eq!(all_obs.events.to_jsonl(), solo.events.to_jsonl());
    let mut metrics = all_obs.metrics.clone();
    assert_eq!(
        metrics.counters.remove("dmamem.trace.spilled"),
        Some(spilled)
    );
    assert_eq!(
        metrics.counters.remove("dmamem.trace.dropped"),
        Some(dropped)
    );
    assert_eq!(metrics.to_json(), solo.metrics.to_json());
}
