//! Integration tests for the observability layer: the slack audit trail
//! independently re-derives the simulator's guarantee verdict, and the
//! exported JSONL event stream is well-formed and covers every decision
//! family the controller makes.

use std::collections::BTreeSet;

use dmamem::experiments::Workload;
use dmamem::{replay_slack, Scheme, ServerSimulator, SimResult, SystemConfig};
use proptest::prelude::*;
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

#[test]
fn uninstrumented_run_carries_no_obs_report() {
    let config = SystemConfig::default();
    let trace = Workload::SyntheticSt.generate(SimDuration::from_ms(1), 3);
    let r = ServerSimulator::new(config, Scheme::dma_ta(0.5)).run(&trace);
    assert!(r.obs.is_none());
    // The slack summary is part of the result proper, not the obs layer.
    assert!(r.slack.is_some());
}
