//! The exhibit table reproduces the committed quick artifacts byte for
//! byte — the stdout of `experiments all --quick` and the
//! `BENCH_engine.json` engine report — and the rendered figure tables are
//! byte-identical across thread counts.

use bench::baseline_diff;
use bench::exhibits::{self, EXHIBITS};
use bench::perf_report::EngineReport;
use bench::sweep::{FigTime, SweepRunner};
use bench::{fig5_table, fig7_table, fig8_table, table2_rows_text};
use dmamem::experiments::{self, ExpConfig, Workload};
use dmamem::sweep::SweepCtx;

#[test]
fn rendered_tables_byte_identical_across_thread_counts() {
    let exp = ExpConfig::quick();
    let render = |threads: usize| {
        let ctx = SweepCtx::new(threads);
        let mut out = String::new();
        out.push_str(&table2_rows_text(&experiments::table2_ctx(&ctx, exp)));
        out.push_str(&fig5_table(&experiments::fig5_ctx(
            &ctx,
            exp,
            &[Workload::OltpSt, Workload::SyntheticSt],
            &[0.05, 0.10],
        )));
        out.push_str(&fig7_table(&experiments::fig7_ctx(
            &ctx,
            exp,
            &[0.05, 0.10],
        )));
        out.push_str(&fig8_table(&experiments::fig8_ctx(
            &ctx,
            exp,
            &[50.0, 100.0],
            0.10,
        )));
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

/// One walk of the table at the quick configuration on one worker, as
/// `experiments all --quick --threads 1 --prof-out FILE` runs it.
#[test]
fn one_walk_of_the_table_reproduces_the_quick_exhibits_and_engine_report() {
    let exp = ExpConfig::quick();
    let mut runner = SweepRunner::new(1);
    let mut stdout = String::new();
    for ex in &EXHIBITS {
        stdout.push_str(&ex.section(&mut runner, exp, None));
    }
    stdout.push_str(&exhibits::footer(&runner));
    assert_eq!(stdout, include_str!("../baselines/exhibits_quick.txt"));

    let timed: Vec<&str> = runner.timings().iter().map(|t| t.figure.as_str()).collect();
    let table: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
    assert_eq!(timed, table);
    let stats = runner.memo_stats();
    // The matrix is heavily redundant: the memo must absorb a meaningful
    // share of the jobs (fig2b/fig6/fig7 baselines all repeat fig5's).
    assert!(
        stats.hits >= 10,
        "expected cross-figure memo hits, got {stats:?}"
    );
    assert!(stats.trace_hits >= 3, "traces were regenerated: {stats:?}");

    let report = EngineReport::from_runner(&runner, 2.0, 42);
    let json = report.to_json();
    assert_eq!(json, include_str!("../../../BENCH_engine.json"));
    // Exhibits that never touch the sweep context have no row.
    let names: Vec<&str> = report.rows.iter().map(|r| r.figure.as_str()).collect();
    assert_eq!(
        names,
        ["table2", "fig2b", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "tpch", "groups"]
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
    assert_eq!(json.matches("\"figure\":").count(), report.rows.len());
    let doc = baseline_diff::parse("report", &json).expect("gate parses the report");
    let gate = baseline_diff::diff(&doc, &doc).expect("comparable");
    assert!(gate.failures().is_empty());
}
