//! Metric definitions and the order statistics reported over repetitions.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; the
//! smoke test keeps the two in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Seconds the host-speed probe takes on the reference host (a 2-vCPU
/// KVM guest on an AVX-512 Xeon), the speed timings are rescaled to.
pub const REFERENCE_PROBE_S: f64 = 0.0079;

/// How an end-to-end metric is rescaled to the reference host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// Host-independent (memory).
    None,
    /// A duration: multiplied by reference probe / measured probe.
    Time,
    /// A rate: multiplied by measured probe / reference probe.
    Rate,
}

/// An end-to-end metric and the worsening (a share of the reference
/// median) beyond which a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub scaling: Scaling,
    /// Reduces a measurement's repetitions to its one value.
    pub summary: fn(&mut [f64]) -> f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
        scaling: Scaling::Time,
        summary: median,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        scaling: Scaling::Time,
        summary: median,
    },
    EndToEnd {
        name: "sim_requests_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        scaling: Scaling::Rate,
        summary: median,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        scaling: Scaling::None,
        summary: max,
    },
];

/// Per-layer metrics as `(module, metric, unit)`; the printed name is
/// `module.metric`. A traced repetition reports every one; layers a
/// workload does not exercise read 0.
pub const PER_LAYER: [(&str, &str, &str); 62] = [
    ("dma_trace", "gen_s", "s"),
    ("dmamem", "calibrate_s", "s"),
    ("dmamem", "simulate_s", "s"),
    ("bench", "render_s", "s"),
    ("stages", "residual_frac", "ratio"),
    ("bench", "figure_s.table1", "s"),
    ("bench", "figure_s.table2", "s"),
    ("bench", "figure_s.fig2a", "s"),
    ("bench", "figure_s.fig2b", "s"),
    ("bench", "figure_s.fig3", "s"),
    ("bench", "figure_s.fig4", "s"),
    ("bench", "figure_s.fig5", "s"),
    ("bench", "figure_s.fig6", "s"),
    ("bench", "figure_s.fig7", "s"),
    ("bench", "figure_s.fig8", "s"),
    ("bench", "figure_s.fig9", "s"),
    ("bench", "figure_s.fig10", "s"),
    ("bench", "figure_s.tpch", "s"),
    ("bench", "figure_s.groups", "s"),
    ("dmamem", "system.events", "count"),
    ("dmamem", "system.events_per_request", "ratio"),
    ("dmamem", "system.events_per_s", "1/s"),
    ("dmamem", "system.ns_per_request", "ns"),
    ("dmamem", "system.dispatch_calls", "count"),
    ("dmamem", "system.policy_calls", "count"),
    ("dmamem", "system.transition_calls", "count"),
    ("simcore", "event.pushes", "count"),
    ("simcore", "event.pops", "count"),
    ("simcore", "event.max_depth", "count"),
    ("iobus", "requests", "count"),
    ("iobus", "transfers", "count"),
    ("mempower", "services", "count"),
    ("mempower", "wakes", "count"),
    ("dmamem", "ta.delayed_firsts", "count"),
    ("dmamem", "ta.delayed_frac", "ratio"),
    ("dmamem", "pl.page_moves", "count"),
    ("dmamem", "sweep.memo_hits", "count"),
    ("dmamem", "sweep.memo_misses", "count"),
    ("dmamem", "sweep.trace_hits", "count"),
    ("dmamem", "sweep.job_ms_p50", "ms"),
    ("dmamem", "sweep.job_ms_p95", "ms"),
    ("dmamem", "sweep.job_samples", "count"),
    ("dma_trace", "events", "count"),
    ("disksim", "submits", "count"),
    ("dmamem", "tracing.overhead_x", "ratio"),
    ("dmamem", "obs.overhead_x", "ratio"),
    ("bench", "trace_overhead_frac", "ratio"),
    ("simcore", "event.ns_per_op", "ns"),
    ("simcore", "event.est_share", "ratio"),
    ("iobus", "ns_per_op", "ns"),
    ("iobus", "est_share", "ratio"),
    ("mempower", "service.ns_per_op", "ns"),
    ("mempower", "service.est_share", "ratio"),
    ("mempower", "transition.ns_per_op", "ns"),
    ("mempower", "transition.est_share", "ratio"),
    ("dmamem", "ta.ns_per_op", "ns"),
    ("dmamem", "ta.est_share", "ratio"),
    ("dmamem", "pl.ns_per_op", "ns"),
    ("dmamem", "pl.est_share", "ratio"),
    ("disksim", "ns_per_op", "ns"),
    ("disksim", "est_share", "ratio"),
    ("layers", "explained_frac", "ratio"),
];

/// `module.metric` names of [`PER_LAYER`], with units.
pub fn per_layer() -> impl Iterator<Item = (String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(module, metric, unit)| (format!("{module}.{metric}"), unit))
}

/// The median (mean of the two middle values for an even count).
/// `values` must be non-empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The largest value. A peak over repetitions: peak RSS is bimodal over
/// inputs (allocations cross size classes), so a median flips between
/// the modes where the maximum does not. `values` must be non-empty.
pub fn max(values: &mut [f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method).
/// `values` must be non-empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let len = d.len();
    if len == 1 {
        return [d[0]; 3];
    }
    let m = len as i64 + 1;
    [1i64, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0]), [3.0; 3]);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [5.0]), 5.0);
    }
}
