//! Golden-file snapshot of the Prometheus text exposition.
//!
//! The rendered `/metrics` payload must be byte-stable for a fixed
//! metric population: dashboards and the CI smoke scrape both parse it,
//! and any accidental reordering or format drift should fail loudly
//! here rather than in a downstream consumer.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p simcore --test prometheus
//! ```

use simcore::obs::{render_prometheus, MetricsRegistry};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");

/// A deliberately generic metric population (no `dmamem.*` keys — this
/// exercises the renderer, not the simulator's key tables): mixed
/// registration order, a name needing sanitization, a help string
/// needing escaping, and a histogram spanning several log₂ buckets.
fn sample() -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    reg.counter("zz.last").add(3);
    reg.counter("probe.requests_total").add(42);
    reg.counter("9starts.with_digit").inc();
    reg.gauge("probe.level").set(0.5);
    reg.gauge("probe.back\\slash\nnewline").set(-2.0);
    let h = reg.histogram("probe.latency_ns");
    for v in [0u64, 1, 3, 3, 900, 1024] {
        h.record(v);
    }
    reg
}

#[test]
fn prometheus_rendering_matches_golden_file() {
    let rendered = render_prometheus(&sample().snapshot());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("read golden file (run with UPDATE_GOLDEN=1 to create it)");
    assert_eq!(
        rendered, golden,
        "Prometheus exposition drifted from tests/golden/metrics.prom; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn rendered_exposition_is_structurally_valid() {
    let rendered = render_prometheus(&sample().snapshot());
    // Every non-comment line is `name{labels} value` or `name value`, and
    // every sample name was announced by a preceding # TYPE line.
    let mut announced: Vec<String> = Vec::new();
    for line in rendered.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().unwrap();
            announced.push(name.to_string());
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let name = line.split(['{', ' ']).next().expect("sample name");
        let known = announced.iter().any(|a| {
            name == a
                || name
                    .strip_prefix(a.as_str())
                    .is_some_and(|s| s.is_empty() || s == "_bucket" || s == "_sum" || s == "_count")
        });
        assert!(known, "sample {name:?} lacks a # TYPE announcement: {line}");
        assert!(
            line.rsplit(' ').next().unwrap().parse::<f64>().is_ok(),
            "sample value is not numeric: {line}"
        );
    }
    // Histogram buckets are cumulative and end at +Inf == _count.
    let buckets: Vec<u64> = rendered
        .lines()
        .filter(|l| l.starts_with("probe_latency_ns_bucket{le=") && !l.contains("+Inf"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    let inf: u64 = rendered
        .lines()
        .find(|l| l.contains(r#"le="+Inf""#))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("+Inf bucket");
    let count: u64 = rendered
        .lines()
        .find(|l| l.starts_with("probe_latency_ns_count "))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("_count sample");
    assert_eq!(inf, count, "+Inf bucket must equal _count");
    assert_eq!(count, 6);
}
