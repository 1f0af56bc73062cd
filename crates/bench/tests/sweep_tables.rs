//! Byte-identity of the *rendered* figure tables across thread counts —
//! the exact artifact the `experiments` binary prints — and the shape of
//! the engine report built from the figure matrix.

use bench::baseline_diff;
use bench::perf_report::EngineReport;
use bench::sweep::{FigTime, SweepRunner};
use bench::{
    fig5_table, fig7_table, fig8_table, table2_rows_text, ALL_WORKLOADS, BUS_RATE_SWEEP, CP_SWEEP,
    INTENSITY_SWEEP, PROC_SWEEP,
};
use dmamem::experiments::{self, ExpConfig, Workload};

/// Runs the full simulation-heavy figure matrix on `runner` with the
/// paper's standard sweeps.
fn run_figure_matrix(runner: &mut SweepRunner, exp: ExpConfig) {
    runner.table2(exp);
    runner.fig2b(exp);
    runner.fig5(exp, &ALL_WORKLOADS, &CP_SWEEP);
    runner.fig6(exp, 0.10);
    runner.fig7(exp, &CP_SWEEP);
    runner.fig8(exp, &INTENSITY_SWEEP, 0.10);
    runner.fig9(exp, &PROC_SWEEP, 0.10);
    runner.fig10(exp, &BUS_RATE_SWEEP, 0.10);
    runner.group_ablation(exp, 0.10);
    runner.tpch(exp, 0.10);
}

#[test]
fn rendered_tables_byte_identical_across_thread_counts() {
    let exp = ExpConfig::quick();
    let render = |threads: usize| {
        let mut runner = SweepRunner::new(threads);
        let mut out = String::new();
        out.push_str(&table2_rows_text(&runner.table2(exp)));
        out.push_str(&fig5_table(&runner.fig5(
            exp,
            &[Workload::OltpSt, Workload::SyntheticSt],
            &[0.05, 0.10],
        )));
        out.push_str(&fig7_table(&runner.fig7(exp, &[0.05, 0.10])));
        out.push_str(&fig8_table(&runner.fig8(exp, &[50.0, 100.0], 0.10)));
        out
    };
    let serial = render(1);
    for threads in [2usize, 8] {
        assert_eq!(serial, render(threads), "threads={threads}");
    }
}

/// The Figure 2(a) and Figure 3 timelines appear verbatim in the
/// committed quick exhibits, exactly as `experiments all --quick` prints
/// them.
#[test]
fn timelines_match_committed_exhibits() {
    let exhibits = include_str!("../baselines/exhibits_quick.txt");
    for (name, art) in [
        ("fig2a", experiments::fig2a_timeline()),
        ("fig3", experiments::fig3_timeline()),
    ] {
        assert!(art.starts_with("window "), "{name}:\n{art}");
        assert!(
            exhibits.contains(&format!("\n\n{art}\n")),
            "{name} timeline moved:\n{art}"
        );
    }
}

#[test]
fn figure_matrix_runs_and_records_timings() {
    let mut runner = SweepRunner::new(0);
    run_figure_matrix(&mut runner, ExpConfig::quick());
    let names: Vec<&str> = runner.timings().iter().map(|t| t.figure.as_str()).collect();
    assert_eq!(
        names,
        ["table2", "fig2b", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "groups", "tpch"]
    );
    let stats = runner.memo_stats();
    // The matrix is heavily redundant: the memo must absorb a meaningful
    // share of the jobs (fig2b/fig6/fig7 baselines all repeat fig5's).
    assert!(
        stats.hits >= 10,
        "expected cross-figure memo hits, got {stats:?}"
    );
    assert!(stats.trace_hits >= 3, "traces were regenerated: {stats:?}");
}

#[test]
fn engine_report_rows_follow_matrix_order() {
    let mut runner = SweepRunner::new(2);
    run_figure_matrix(&mut runner, ExpConfig::quick());
    let report = EngineReport::from_runner(&runner, 2.0, 42);
    let names: Vec<&str> = report.rows.iter().map(|r| r.figure.as_str()).collect();
    assert_eq!(
        names,
        ["table2", "fig2b", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "groups", "tpch"]
    );
    // Every figure that simulated anything dispatched events; figures
    // fully served from the memo report zero events.
    for r in &report.rows {
        if r.prof.sims > 0 {
            assert!(r.prof.events > 0, "{}: sims without events", r.figure);
            assert!(r.prof.max_heap_depth > 0, "{}: empty calendar", r.figure);
        } else {
            assert_eq!(r.prof.events, 0, "{}", r.figure);
        }
    }
    // Rows decompose the lifetime totals exactly (deterministic fields).
    let totals = &report.totals;
    let sum = |f: fn(&FigTime) -> u64| -> u64 { report.rows.iter().map(f).sum() };
    assert_eq!(sum(|r| r.prof.events), totals.events);
    assert_eq!(sum(|r| r.prof.sims), totals.sims);
    assert_eq!(sum(|r| r.prof.heap_pushes), totals.heap_pushes);
    assert_eq!(sum(|r| r.prof.requests), totals.requests);
    // The JSON baseline renders one row per figure, and the gate reads
    // it back and matches it against itself.
    let json = report.to_json();
    assert_eq!(json.matches("\"figure\":").count(), report.rows.len());
    let doc = baseline_diff::parse("report", &json).expect("gate parses the report");
    let gate = baseline_diff::diff(&doc, &doc).expect("comparable");
    assert!(gate.failures().is_empty());
}
