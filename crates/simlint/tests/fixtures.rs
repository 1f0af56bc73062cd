//! Per-rule fixture tests: every rule has a seeded-violation fixture
//! that must be caught and an allow-annotated (or genuinely fixed) twin
//! that must pass clean.
//!
//! Fixtures live under `tests/fixtures/` — excluded from the workspace
//! walk — and are linted here under synthetic in-scope paths, because
//! rule scopes are path-driven.

use simlint::rules::Severity;
use simlint::{lint_source, lint_sources, KeyTable, OBS_SOURCE};

fn table() -> KeyTable {
    let mut t = KeyTable::default();
    t.metric_keys.insert("dmamem.wakes".into());
    t.metric_keys.insert("dmamem.sweep.jobs_done".into());
    t.prof_keys.insert("dmamem.prof.events".into());
    t.event_kinds.insert("epoch_tick".into());
    t.trace_keys.insert("dmamem.trace.wakeup".into());
    t.trace_keys.insert("dmamem.trace.spilled".into());
    t
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lints the named fixture as if it lived at `as_path`.
fn lint_fixture(name: &str, as_path: &str) -> Vec<simlint::Finding> {
    lint_source(as_path, &fixture(name), &table())
}

fn deny_rules(findings: &[simlint::Finding]) -> Vec<&str> {
    findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .map(|f| f.rule)
        .collect()
}

/// The bad fixture must produce at least one deny finding of `rule`;
/// the allowed twin must produce none at all.
fn assert_pair(rule: &str, bad: &str, allowed: &str, as_path: &str) {
    let bad_findings = lint_fixture(bad, as_path);
    assert!(
        deny_rules(&bad_findings).contains(&rule),
        "{bad} under {as_path} should trip {rule}; got {bad_findings:?}"
    );
    let ok_findings = lint_fixture(allowed, as_path);
    assert!(
        deny_rules(&ok_findings).is_empty(),
        "{allowed} under {as_path} should be deny-clean; got {ok_findings:?}"
    );
    // Every allow in the twin must actually suppress something: an
    // unused allow would mean the pair no longer exercises the rule.
    assert!(
        !ok_findings.iter().any(|f| f.rule == "unused-allow"),
        "{allowed} has a stale allow: {ok_findings:?}"
    );
}

#[test]
fn nondet_iter_pair() {
    assert_pair(
        "nondet-iter",
        "nondet_iter_bad.rs",
        "nondet_iter_allowed.rs",
        "crates/dmamem/src/fixture.rs",
    );
}

#[test]
fn wall_clock_pair() {
    assert_pair(
        "wall-clock",
        "wall_clock_bad.rs",
        "wall_clock_allowed.rs",
        "crates/simcore/src/fixture.rs",
    );
}

#[test]
fn ambient_random_pair() {
    assert_pair(
        "ambient-random",
        "ambient_random_bad.rs",
        "ambient_random_allowed.rs",
        "crates/trace/src/fixture.rs",
    );
}

#[test]
fn float_cmp_pair() {
    assert_pair(
        "float-cmp",
        "float_cmp_bad.rs",
        "float_cmp_allowed.rs",
        "crates/dmamem/src/fixture.rs",
    );
}

#[test]
fn panic_path_pair() {
    // Panic scope is narrower: lint as the system hot path itself.
    assert_pair(
        "panic-path",
        "panic_path_bad.rs",
        "panic_path_allowed.rs",
        "crates/dmamem/src/controller/fixture.rs",
    );
}

#[test]
fn panic_reachability_pair() {
    // The seeded unwrap sits two call-graph hops below the hot-loop
    // entry — only the reachability walk can connect them (the
    // acceptance demo for the v2 panic rule).
    assert_pair(
        "panic-path",
        "panic_reach_bad.rs",
        "panic_reach_allowed.rs",
        "crates/dmamem/src/system.rs",
    );
}

#[test]
fn unit_safety_pair() {
    assert_pair(
        "unit-safety",
        "unit_safety_bad.rs",
        "unit_safety_allowed.rs",
        "crates/dmamem/src/fixture.rs",
    );
}

#[test]
fn obs_key_live_pair() {
    // Liveness needs table spans, so the keys parse from the fixture
    // itself and the fixture is linted at the obs source path.
    let bad = fixture("obs_key_live_bad.rs");
    let keys = KeyTable::from_obs_source(&bad).unwrap();
    let fs = lint_sources(&[(OBS_SOURCE.to_string(), bad)], &keys);
    assert!(deny_rules(&fs).contains(&"obs-key-live"), "{fs:?}");

    let ok = fixture("obs_key_live_allowed.rs");
    let keys = KeyTable::from_obs_source(&ok).unwrap();
    let fs = lint_sources(&[(OBS_SOURCE.to_string(), ok)], &keys);
    assert!(deny_rules(&fs).is_empty(), "{fs:?}");
    assert!(
        !fs.iter().any(|f| f.rule == "unused-allow"),
        "obs_key_live_allowed.rs has a stale allow: {fs:?}"
    );
}

#[test]
fn obs_key_pair() {
    assert_pair(
        "obs-key",
        "obs_key_bad.rs",
        "obs_key_allowed.rs",
        "crates/bench/tests/fixture.rs",
    );
}

#[test]
fn bad_fixtures_escape_scope_when_out_of_scope() {
    // The same seeded violations are invisible outside their scope —
    // guards against rules accidentally firing workspace-wide.
    let f = lint_fixture("nondet_iter_bad.rs", "crates/bench/src/fixture.rs");
    assert!(deny_rules(&f).is_empty(), "{f:?}");
    let f = lint_fixture("wall_clock_bad.rs", "crates/bench/src/fixture.rs");
    assert!(deny_rules(&f).is_empty(), "{f:?}");
    let f = lint_fixture("panic_path_bad.rs", "crates/dmamem/src/metrics_fixture.rs");
    assert!(
        !deny_rules(&f).contains(&"panic-path"),
        "panic-path outside hot paths: {f:?}"
    );
}
