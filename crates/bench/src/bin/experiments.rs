//! Regenerates every table and figure of the paper as text.
//!
//! ```text
//! experiments [EXHIBIT] [--ms N] [--seed S] [--threads N] [--quick]
//! ```
//!
//! `EXHIBIT` is one of `table1 table2 fig2a fig2b fig3 fig4 fig5 fig6 fig7
//! fig8 fig9 fig10 tpch groups all` (default `all`; the list is
//! `bench::exhibits::EXHIBITS`), or one of the two exhibits `all` leaves
//! out: `ablations`, the design ablations on Synthetic-St, and
//! `trace-report` (below). Any other name is an error, whatever flags
//! come with it. `--ms` sets the simulated trace length per run (default
//! 50), `--seed` the workload seed (default 42), and `--csv DIR`
//! additionally writes each figure's data as CSV files into `DIR` for
//! replotting.
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
//! and without it. Each exhibit that touched the sweep context gets a
//! row. Host time is measured by the `benchmark/` harness, not here.
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
//! `--trace-out` always streams: the exported run keeps a 2^20-record
//! span ring and writes each record it displaces into the file in record
//! order, so memory stays bounded and a long run comes out complete. The
//! stream's totals go to stderr; a record lost to a failed write fails
//! the process.
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
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use bench::exhibits::{self, EXHIBITS};
use bench::sweep::SweepRunner;
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
            "--serve" => match args.next() {
                Some(a) => serve_addr = Some(a),
                None => return usage("--serve needs an address (e.g. 127.0.0.1:0)"),
            },
            "--help" | "-h" => return usage(""),
            other if !other.starts_with('-') => exhibit = other.to_string(),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let Some(selected) = exhibits::select(&exhibit) else {
        return usage(&format!("unknown exhibit {exhibit:?}"));
    };
    if quick && !ms_set {
        ms = 2;
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
    let section = |title: &str| print!("{}", exhibits::header(title));
    for ex in selected {
        print!("{}", ex.section(&mut runner, exp, csv_dir.as_deref()));
    }
    if exhibit == "ablations" {
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
        section("Observability: instrumented DMA-TA-PL(2) run (OLTP-St)");
        let run = runner.timed("observed", |ctx| {
            experiments::observed_run_ctx(ctx, exp, 0.10, 1 << 18)
        });
        print!("{}", bench::obs_summary_table(&run));
        let obs = run.result.obs.as_ref().expect("instrumented run");
        if let Some(path) = &events_out {
            let written =
                fs::File::create(path).and_then(|f| obs.events.write_jsonl(io::BufWriter::new(f)));
            match written {
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
        if let Some(dir) = &csv_dir {
            let csv = bench::csv::obs_summary(&run);
            print!("{}", exhibits::write_csv(dir, "obs_summary.csv", &csv));
        }
    }

    if exhibit == "trace-report"
        || trace_out.is_some()
        || attrib_out.is_some()
        || attrib_summary
        || trace_check
    {
        section("Trace report: causally-traced runs (fig-2 workloads + DMA-TA)");
        // The exported run (the DMA-TA one, last) streams into
        // --trace-out; the file is created before the run starts.
        let sink = match &trace_out {
            Some(path) => match SpillSink::file(path) {
                Ok(sink) => Some(sink),
                Err(e) => {
                    eprintln!("error: cannot create {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        let mut runs = runner.timed("trace", |ctx| {
            experiments::traced_runs_spill_ctx(ctx, exp, 0.10, 1 << 20, sink)
        });
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
            // Displaced records are already in the file; append the
            // retained ring and the JSON footer.
            let trace = runs
                .last_mut()
                .and_then(|r| r.result.trace.as_mut())
                .expect("traced run");
            let streamed = trace.spilled();
            let total = trace.finalize_spill();
            eprintln!(
                "(trace stream: {streamed} record(s) streamed during the run, {total} in all, {} dropped)",
                trace.dropped()
            );
            if trace.dropped() > 0 {
                eprintln!("error: cannot write {}: records lost", path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "(Perfetto trace written to {}; open at https://ui.perfetto.dev)",
                path.display()
            );
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
        let report = bench::perf_report::EngineReport::from_runner(&runner, ms as f64, seed);
        if let Err(e) = fs::write(path, report.to_json()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        // Confirmation on stderr: --prof-out must leave stdout
        // byte-identical to a run without it.
        eprintln!("(engine profile written to {})", path.display());
    }

    print!("{}", exhibits::footer(&runner));
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
    let names: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: experiments [{}|ablations|trace-report|all] [--ms N] [--seed S] [--threads N] [--quick] [--csv DIR] [--prof-out FILE] [--events-out FILE] [--metrics-out FILE] [--obs-summary] [--trace-out FILE] [--attrib-out FILE] [--attrib-summary] [--serve ADDR] [--check]",
        names.join("|")
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
