//! Regenerates every table and figure of the paper as text.
//!
//! ```text
//! experiments [EXHIBIT] [--ms N] [--seed S] [--threads N] [--quick]
//! ```
//!
//! `EXHIBIT` is one of `table1 table2 fig2a fig2b fig3 fig4 fig5 fig6 fig7
//! fig8 fig9 fig10 groups all` (default `all`), or `ablations`, the design
//! ablations on Synthetic-St, which `all` leaves out. `--ms` sets the simulated
//! trace length per run (default 50), `--seed` the workload seed (default
//! 42), and `--csv DIR` additionally writes each figure's data as CSV files
//! into `DIR` for replotting.
//!
//! Sweep-engine flags: `--threads N` runs the figure simulations on `N`
//! workers (`0` = all cores, the default; output is bit-identical at any
//! thread count), and `--quick` shrinks the trace to the 2-ms smoke
//! configuration.
//!
//! Engine self-profiling: `--prof-out FILE` writes the deterministic
//! engine counters of everything the run executed (events dispatched,
//! heap pushes/pops, max calendar depth, transfers, requests, memo and
//! trace-cache hits per figure, per-phase calls) as JSON — the committed
//! `BENCH_engine.json` baseline the `baseline_diff` gate compares against.
//! Its confirmation goes to stderr so stdout stays byte-identical with
//! and without it. Per-figure attribution requires a per-figure exhibit
//! or `all`. Host time is measured by the `benchmark/` harness, not here.
//!
//! Observability flags add an instrumented DMA-TA-PL(2) run on OLTP-St:
//! `--events-out FILE` exports its structured event stream as JSONL,
//! `--metrics-out FILE` writes the metrics-registry snapshot as JSON, and
//! `--obs-summary` prints the per-run summary (counters, slack ledger,
//! replayed guarantee verdict, engine counters).
//!
//! The `trace-report` exhibit runs the Figure-2 workloads (plus OLTP-St
//! under DMA-TA-PL(2)) with transfer-level causal tracing:
//! `--trace-out FILE` writes the DMA-TA run's span trace as Chrome
//! `trace_event` JSON (open at <https://ui.perfetto.dev>), `--attrib-out
//! FILE` writes the energy-waste attribution report consumed by the
//! `baseline_diff` gate, `--attrib-summary` prints per-run
//! bucket percentages, and `--check` validates every span tree and the
//! bucket-sum invariant, failing the process on any violation.
//! `--trace-spill N` shrinks the exported run's span ring to `N` records
//! and streams displaced records to the `--trace-out` file incrementally
//! (bounded memory; loss shows up in the `dmamem.trace.spilled` /
//! `dmamem.trace.dropped` counters, never silently).
//!
//! `--serve ADDR` (e.g. `127.0.0.1:9091`, port `0` for ephemeral) starts
//! the live telemetry server for the duration of the run: `GET /metrics`
//! is Prometheus text exposition of the live snapshot, `GET /status`
//! reports figure/wave/job progress, heartbeat age, and the engine's
//! sim-clock watermark, and `GET /events?since=N` tails the event ring.
//! The bound address goes to stderr; stdout and every artifact stay
//! byte-identical with the server on or off.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use bench::sweep::SweepRunner;
use bench::{
    breakdown_line, fig10_table, fig4_table, fig5_table, fig7_table, fig8_table, fig9_table,
    table2_rows_text, ALL_WORKLOADS, BUS_RATE_SWEEP, CP_SWEEP, INTENSITY_SWEEP, PROC_SWEEP,
};
use dmamem::experiments::{self, ExpConfig};
use simcore::obs::serve::serve;
use simcore::obs::{LiveState, ServerHandle, SpillSink};
use simcore::SimDuration;

fn main() -> ExitCode {
    let mut exhibit = "all".to_string();
    let mut ms = 50u64;
    let mut ms_set = false;
    let mut seed = 42u64;
    let mut threads = 0usize;
    let mut quick = false;
    let mut csv_dir: Option<PathBuf> = None;
    let mut events_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut obs_summary = false;
    let mut prof_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut attrib_out: Option<PathBuf> = None;
    let mut attrib_summary = false;
    let mut trace_check = false;
    let mut trace_spill: Option<usize> = None;
    let mut serve_addr: Option<String> = None;
    let mut args = env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => {
                    ms = v;
                    ms_set = true;
                }
                None => return usage("--ms needs a number"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage("--seed needs a number"),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => threads = v,
                None => return usage("--threads needs a number (0 = all cores)"),
            },
            "--quick" => quick = true,
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => return usage("--csv needs a directory"),
            },
            "--events-out" => match args.next() {
                Some(f) => events_out = Some(PathBuf::from(f)),
                None => return usage("--events-out needs a file"),
            },
            "--metrics-out" => match args.next() {
                Some(f) => metrics_out = Some(PathBuf::from(f)),
                None => return usage("--metrics-out needs a file"),
            },
            "--obs-summary" => obs_summary = true,
            "--prof-out" => match args.next() {
                Some(f) => prof_out = Some(PathBuf::from(f)),
                None => return usage("--prof-out needs a file"),
            },
            "--trace-out" => match args.next() {
                Some(f) => trace_out = Some(PathBuf::from(f)),
                None => return usage("--trace-out needs a file"),
            },
            "--attrib-out" => match args.next() {
                Some(f) => attrib_out = Some(PathBuf::from(f)),
                None => return usage("--attrib-out needs a file"),
            },
            "--attrib-summary" => attrib_summary = true,
            "--check" => trace_check = true,
            "--trace-spill" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => trace_spill = Some(v),
                _ => return usage("--trace-spill needs a positive record count"),
            },
            "--serve" => match args.next() {
                Some(a) => serve_addr = Some(a),
                None => return usage("--serve needs an address (e.g. 127.0.0.1:0)"),
            },
            "--help" | "-h" => return usage(""),
            other if !other.starts_with('-') => exhibit = other.to_string(),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    if quick && !ms_set {
        ms = 2;
    }
    if trace_spill.is_some() && trace_out.is_none() {
        return usage("--trace-spill requires --trace-out (it streams into that file)");
    }
    let exp = ExpConfig {
        duration: SimDuration::from_ms(ms),
        seed,
    };
    let mut runner = SweepRunner::new(threads);
    let mut server: Option<ServerHandle> = None;
    if let Some(addr) = &serve_addr {
        let state = Arc::new(LiveState::new());
        match serve(addr, Arc::clone(&state)) {
            Ok(h) => {
                // Bound address on stderr: stdout must stay byte-identical
                // with and without --serve.
                eprintln!(
                    "(live telemetry on http://{}/ — endpoints: /metrics /status /events)",
                    h.addr()
                );
                server = Some(h);
            }
            Err(e) => {
                eprintln!("error: cannot bind telemetry server on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
        runner = runner.with_live(state);
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let write_csv = |name: &str, contents: String| {
        if let Some(dir) = &csv_dir {
            let path = dir.join(name);
            if let Err(e) = fs::write(&path, contents) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("(csv written to {})", path.display());
            }
        }
    };
    let all = exhibit == "all";
    let mut matched = false;
    let section = |name: &str| {
        println!("\n================ {name} ================");
    };

    if all || exhibit == "table1" {
        matched = true;
        section("Table 1: RDRAM power model");
        println!("{}", experiments::table1_text());
    }
    if all || exhibit == "table2" {
        matched = true;
        section("Table 2: trace characteristics");
        println!("{}", table2_rows_text(&runner.table2(exp)));
        println!("(paper: OLTP-St 45.0 net + 16.7 disk /ms; OLTP-Db 100/ms + 23,300 proc/ms)");
    }
    if all || exhibit == "fig2a" {
        matched = true;
        section("Figure 2(a): cycle waste during one DMA transfer");
        let f = experiments::fig2a();
        println!(
            "serving {:.1} cycles + idle {:.1} cycles per request; measured single-transfer uf = {:.3} (paper: 4 + 8, uf = 1/3)",
            f.serving_cycles, f.idle_cycles, f.measured_uf
        );
        println!("\n{}", experiments::fig2a_timeline());
    }
    if all || exhibit == "fig2b" {
        matched = true;
        section("Figure 2(b): baseline energy breakdowns");
        for (name, e) in runner.fig2b(exp) {
            println!("{name}: {}", breakdown_line(&e));
        }
        println!("(paper: Active Idle DMA 48-51%, Active Serving 26-27%, threshold 3-4%)");
    }
    if all || exhibit == "fig3" {
        matched = true;
        section("Figure 3: temporal alignment of staggered transfers");
        let f = experiments::fig3();
        println!(
            "baseline uf {:.2} -> DMA-TA uf {:.2} ({} first requests delayed, then lockstep)",
            f.baseline_uf, f.ta_uf, f.delayed_firsts
        );
        println!("\n{}", experiments::fig3_timeline());
    }
    if all || exhibit == "fig4" {
        matched = true;
        section("Figure 4: OLTP-St page-popularity CDF");
        let pts = experiments::fig4(exp, 10);
        println!("{}", fig4_table(&pts));
        write_csv("fig4.csv", bench::csv::fig4(&pts));
        println!("(paper: ~20% of pages receive ~60% of DMA accesses)");
    }
    if all || exhibit == "fig5" {
        matched = true;
        section("Figure 5: energy savings vs CP-Limit");
        let rows = runner.fig5(exp, &ALL_WORKLOADS, &CP_SWEEP);
        println!("{}", fig5_table(&rows));
        write_csv("fig5.csv", bench::csv::fig5(&rows));
        println!("(paper: up to 38.6% for OLTP-St DMA-TA-PL(2) at 10%; savings rise then plateau)");
    }
    if all || exhibit == "fig6" {
        matched = true;
        section("Figure 6: energy breakdowns at 10% CP-Limit (OLTP-St)");
        let mut csv = String::from("scheme,category,energy_mj,fraction\n");
        for (name, e) in runner.fig6(exp, 0.10) {
            println!("{name}: {}", breakdown_line(&e));
            csv.push_str(&bench::csv::breakdown(&name, &e));
        }
        write_csv("fig6.csv", csv);
    }
    if all || exhibit == "fig7" {
        matched = true;
        section("Figure 7: utilization factors vs CP-Limit (OLTP-St)");
        let rows = runner.fig7(exp, &CP_SWEEP);
        println!("{}", fig7_table(&rows));
        write_csv("fig7.csv", bench::csv::fig7(&rows));
        println!("(paper: baseline ~0.33; DMA-TA-PL 0.63 at 10%, 0.75 at 30%)");
    }
    if all || exhibit == "fig8" {
        matched = true;
        section("Figure 8: savings vs workload intensity (Synthetic-St)");
        let rows = runner.fig8(exp, &INTENSITY_SWEEP, 0.10);
        println!("{}", fig8_table(&rows));
        write_csv("fig8.csv", bench::csv::fig8(&rows));
    }
    if all || exhibit == "fig9" {
        matched = true;
        section("Figure 9: savings vs processor accesses per transfer (Synthetic-Db)");
        let rows = runner.fig9(exp, &PROC_SWEEP, 0.10);
        println!("{}", fig9_table(&rows));
        write_csv("fig9.csv", bench::csv::fig9(&rows));
        println!(
            "(paper: savings drop with processor accesses but stay significant; OLTP-Db ~233)"
        );
    }
    if all || exhibit == "fig10" {
        matched = true;
        section("Figure 10: savings vs memory/I-O bandwidth ratio");
        let rows = runner.fig10(exp, &BUS_RATE_SWEEP, 0.10);
        println!("{}", fig10_table(&rows));
        write_csv("fig10.csv", bench::csv::fig10(&rows));
        println!("(paper: ~5% at ratio ~1, growing with the ratio)");
    }

    if all || exhibit == "tpch" {
        matched = true;
        section("Extension: TPC-H-style scans (paper future work)");
        for row in runner.tpch(exp, 0.10) {
            println!(
                "{}: savings {:+.1}%, uf {:.2}, {} page moves",
                row.scheme,
                row.savings * 100.0,
                row.uf,
                row.page_moves
            );
        }
        println!("(uniform scan popularity: PL has nothing to concentrate; DMA-TA still aligns colliding scans)");
    }
    if all || exhibit == "groups" {
        matched = true;
        section("Ablation: PL group count (scaled 64-frame chips, Zipf 0.5)");
        for row in runner.group_ablation(exp, 0.10) {
            println!(
                "K = {}: savings {:+.1}% ({} page moves)",
                row.groups,
                row.savings * 100.0,
                row.page_moves
            );
        }
        println!("(paper Figure 5: K = 2 best; K = 6 pays heavy migration churn, e.g. -15.2% on OLTP-St)");
    }
    if exhibit == "ablations" {
        matched = true;
        section("Ablations: design sensitivities (Synthetic-St)");
        for ablation in runner.timed("ablations", |ctx| experiments::ablations_ctx(ctx, exp)) {
            println!("--- {} ---", ablation.title);
            for row in &ablation.rows {
                let r = &row.result;
                print!(
                    "  {:<18} {:>8.3} mJ  uf {:.3}  request {:>7.1} ns  {:>3} moves",
                    row.label,
                    r.energy.total_mj(),
                    r.utilization_factor(),
                    r.request_service.mean_ns(),
                    r.page_moves
                );
                match row.mu {
                    Some(mu) => println!("  savings {:+.1}% (mu {mu:.2})", row.savings * 100.0),
                    None => println!(),
                }
            }
        }
    }

    if events_out.is_some() || metrics_out.is_some() || obs_summary {
        matched = true;
        section("Observability: instrumented DMA-TA-PL(2) run (OLTP-St)");
        let run = runner.observed_run(exp, 0.10, 1 << 18);
        print!("{}", bench::obs_summary_table(&run));
        let obs = run.result.obs.as_ref().expect("instrumented run");
        if let Some(path) = &events_out {
            match fs::write(path, obs.events.to_jsonl()) {
                Ok(()) => println!("(events written to {})", path.display()),
                Err(e) => {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(path) = &metrics_out {
            match fs::write(path, obs.metrics.to_json()) {
                Ok(()) => println!("(metrics written to {})", path.display()),
                Err(e) => {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        write_csv("obs_summary.csv", bench::csv::obs_summary(&run));
    }

    if exhibit == "trace-report"
        || trace_out.is_some()
        || attrib_out.is_some()
        || attrib_summary
        || trace_check
    {
        matched = true;
        section("Trace report: causally-traced runs (fig-2 workloads + DMA-TA)");
        // With --trace-spill the exported run keeps only N records
        // resident and streams the rest straight into --trace-out.
        let spill_sink = match (&trace_spill, &trace_out) {
            (Some(_), Some(path)) => match SpillSink::file(path) {
                Ok(sink) => Some(sink),
                Err(e) => {
                    eprintln!("error: cannot create {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            },
            _ => None,
        };
        let capacity = trace_spill.unwrap_or(1 << 20);
        let mut runs = runner.traced_runs_spill(exp, 0.10, capacity, spill_sink);
        let attribs: Vec<_> = runs.iter().map(|r| r.attribution()).collect();
        for a in &attribs {
            println!("{}", a.summary_line());
        }
        if trace_check {
            for (run, a) in runs.iter().zip(&attribs) {
                let trace = run.result.trace.as_ref().expect("traced run");
                match trace.validate() {
                    Ok(stats) => println!(
                        "check {} / {}: {} spans, {} records, {} dropped — span tree valid",
                        a.workload, a.scheme, stats.spans, stats.records, stats.dropped
                    ),
                    Err(e) => {
                        eprintln!("error: {} / {}: invalid trace: {e}", a.workload, a.scheme);
                        return ExitCode::FAILURE;
                    }
                }
                let err = a.checksum_rel_err();
                if err > 1e-9 {
                    eprintln!(
                        "error: {} / {}: attribution buckets missum total energy (rel err {err:e})",
                        a.workload, a.scheme
                    );
                    return ExitCode::FAILURE;
                }
                println!(
                    "check {} / {}: buckets sum to {:.3} mJ (rel err {err:.1e})",
                    a.workload, a.scheme, a.total_mj
                );
            }
        }
        if let Some(path) = &trace_out {
            if trace_spill.is_some() {
                // Spill mode: displaced records are already in the file;
                // append the retained ring and the JSON footer.
                let trace = runs
                    .last_mut()
                    .and_then(|r| r.result.trace.as_mut())
                    .expect("traced run");
                let spilled = trace.spilled();
                trace.finalize_spill();
                println!(
                    "(Perfetto trace written to {}; open at https://ui.perfetto.dev)",
                    path.display()
                );
                eprintln!(
                    "(spill mode: {} record(s) streamed, {} dropped, ring capacity {})",
                    spilled,
                    trace.dropped(),
                    capacity
                );
            } else {
                // The DMA-TA run (last) is the causally richest export.
                let trace = runs
                    .last()
                    .and_then(|r| r.result.trace.as_ref())
                    .expect("traced run");
                match fs::write(path, trace.to_chrome_json()) {
                    Ok(()) => println!(
                        "(Perfetto trace written to {}; open at https://ui.perfetto.dev)",
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("error: cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        if let Some(path) = &attrib_out {
            match fs::write(path, dmamem::attribution_json(&attribs)) {
                Ok(()) => println!("(attribution report written to {})", path.display()),
                Err(e) => {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if let Some(path) = &prof_out {
        matched = true;
        let report = bench::perf_report::EngineReport::from_runner(&runner, ms as f64, seed);
        if let Err(e) = fs::write(path, report.to_json()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        // Confirmation on stderr: --prof-out must leave stdout
        // byte-identical to a run without it.
        eprintln!("(engine profile written to {})", path.display());
    }

    if !matched {
        return usage(&format!("unknown exhibit {exhibit:?}"));
    }
    let stats = runner.memo_stats();
    if stats.hits + stats.misses > 0 {
        println!(
            "\n(sweep engine: {} simulations run, {} served from memo, {} worker thread(s))",
            stats.misses,
            stats.hits,
            runner.threads()
        );
    }
    // Orderly shutdown (Drop also covers the early-return paths).
    if let Some(h) = server {
        h.shutdown();
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: experiments [table1|table2|fig2a|fig2b|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|groups|tpch|ablations|trace-report|all] [--ms N] [--seed S] [--threads N] [--quick] [--csv DIR] [--prof-out FILE] [--events-out FILE] [--metrics-out FILE] [--obs-summary] [--trace-out FILE] [--trace-spill N] [--attrib-out FILE] [--attrib-summary] [--serve ADDR] [--check]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
