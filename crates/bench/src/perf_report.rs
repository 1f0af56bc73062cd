//! Engine self-profiling report: the `BENCH_engine.json` baseline.
//!
//! An [`EngineReport`] collects the per-figure [`FigTime`] accounting of
//! a [`SweepRunner`] — deterministic engine counters (events dispatched,
//! heap ops, max calendar depth, transfers/requests allocated, memo and
//! trace-cache hits, per-phase calls) — and renders it as the
//! `BENCH_engine.json` baseline that [`crate::baseline_diff`] compares
//! exactly. The report carries counters only: host time is measured from
//! outside the engine, by the `benchmark/` harness.

use dmamem::sweep::ProfTotals;
use simcore::prof::Phase;

use crate::sweep::{FigTime, SweepRunner};

/// The whole-matrix engine profile, rendered as `BENCH_engine.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Pop-order schema of the event queue the engine ran on
    /// ([`simcore::QUEUE_KIND`]). Queue-shape counters (heap pushes/pops,
    /// max depth) are only comparable between reports with equal kinds;
    /// the baseline gate refuses to diff across kinds.
    pub queue_kind: String,
    /// Simulated trace length per run, milliseconds.
    pub trace_ms: f64,
    /// Workload seed.
    pub seed: u64,
    /// Per-figure rows, in run order (`max_heap_depth` is the per-figure
    /// window max; the rows' `ms` is not rendered).
    pub rows: Vec<FigTime>,
    /// Lifetime totals across the whole matrix, including per-phase call
    /// counts.
    pub totals: ProfTotals,
}

impl EngineReport {
    /// Builds the report from a runner that has executed its figures.
    pub fn from_runner(runner: &SweepRunner, trace_ms: f64, seed: u64) -> EngineReport {
        EngineReport {
            queue_kind: simcore::QUEUE_KIND.to_string(),
            trace_ms,
            seed,
            rows: runner.timings().to_vec(),
            totals: runner.ctx().prof_totals(),
        }
    }

    /// Renders the machine-readable `BENCH_engine.json` baseline. Every
    /// number in it is deterministic for a given trace length and seed, at
    /// any thread count and on any host.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"bench\": \"engine\",\n");
        out.push_str(&format!("  \"queue_kind\": \"{}\",\n", self.queue_kind));
        out.push_str(&format!("  \"trace_ms\": {},\n", self.trace_ms));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"figures\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"figure\": \"{}\", \"events\": {}, \"heap_pushes\": {}, \
                 \"heap_pops\": {}, \"max_heap_depth\": {}, \"transfers\": {}, \
                 \"requests\": {}, \"sims\": {}, \"memo_hits\": {}, \"memo_misses\": {}, \
                 \"trace_hits\": {}, \"trace_misses\": {}}}{}\n",
                r.figure,
                r.prof.events,
                r.prof.heap_pushes,
                r.prof.heap_pops,
                r.prof.max_heap_depth,
                r.prof.transfers,
                r.prof.requests,
                r.prof.sims,
                r.memo_hits,
                r.memo_misses,
                r.trace_hits,
                r.trace_misses,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"totals\": {{\"events\": {}, \"heap_pushes\": {}, \"heap_pops\": {}, \
             \"max_heap_depth\": {}, \"transfers\": {}, \"requests\": {}, \"sims\": {}}},\n",
            self.totals.events,
            self.totals.heap_pushes,
            self.totals.heap_pops,
            self.totals.max_heap_depth,
            self.totals.transfers,
            self.totals.requests,
            self.totals.sims,
        ));
        out.push_str("  \"phases\": [\n");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"phase\": \"{}\", \"calls\": {}}}{}\n",
                phase.label(),
                self.totals.phase_calls[i],
                if i + 1 < Phase::ALL.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_holds_counters_only() {
        let prof = ProfTotals {
            sims: 2,
            events: 1000,
            heap_pushes: 1005,
            heap_pops: 1001,
            max_heap_depth: 17,
            transfers: 9,
            requests: 640,
            phase_calls: [1000, 0, 0, 2],
        };
        let report = EngineReport {
            queue_kind: simcore::QUEUE_KIND.to_string(),
            trace_ms: 2.0,
            seed: 42,
            rows: vec![FigTime {
                figure: "fig5".into(),
                ms: 10.0,
                memo_hits: 3,
                memo_misses: 2,
                trace_hits: 1,
                trace_misses: 1,
                prof,
            }],
            totals: prof,
        };
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"engine\""));
        assert!(json.contains(&format!("\"queue_kind\": \"{}\"", simcore::QUEUE_KIND)));
        assert!(json.contains("\"figure\": \"fig5\", \"events\": 1000"));
        assert!(json.contains("\"phase\": \"dispatch\", \"calls\": 1000"));
        // The figure's wall clock stays out of the deterministic artifact.
        assert!(!json.contains("10.0"), "{json}");
        let doc = crate::baseline_diff::parse("report", &json).expect("gate parses it");
        assert!(crate::baseline_diff::diff(&doc, &doc)
            .expect("comparable")
            .failures()
            .is_empty());
    }
}
