//! Benchmark-harness support: table formatting for the `experiments`
//! binary.
//!
//! Every table and figure of the paper's evaluation section has a
//! corresponding renderer here; the underlying data comes from
//! [`dmamem::experiments`]. The [`sweep`] module orchestrates whole
//! figure matrices on the parallel sweep engine, [`perf_report`] renders
//! their engine counters as the `BENCH_engine.json` baseline, and
//! [`baseline_diff`] gates deterministic artifacts against their
//! committed baselines.

use dmamem::experiments::{self, Fig10Row, Fig5Row, Fig7Row, Fig8Row, Fig9Row, Workload};
use mempower::{EnergyBreakdown, EnergyCategory};

pub mod baseline_diff;
pub mod perf_report;
pub mod sweep;

/// Renders an energy breakdown as a one-line percentage summary.
pub fn breakdown_line(e: &EnergyBreakdown) -> String {
    let mut parts = Vec::new();
    for cat in EnergyCategory::ALL {
        let f = e.fraction(cat) * 100.0;
        if f >= 0.05 {
            parts.push(format!("{} {:.1}%", cat.label(), f));
        }
    }
    format!("{} ({:.3} mJ total)", parts.join(" | "), e.total_mj())
}

/// Renders Figure 5 rows as an aligned text table.
pub fn fig5_table(rows: &[Fig5Row]) -> String {
    let mut out =
        String::from("workload      CP-Limit  scheme        savings  measured-deg  within\n");
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:>6.0}%  {:<13} {:>6.1}%  {:>11.1}%  {}\n",
            r.workload,
            r.cp_limit * 100.0,
            r.scheme,
            r.savings * 100.0,
            r.degradation * 100.0,
            if r.within_limit { "yes" } else { "NO" }
        ));
    }
    out
}

/// Renders Figure 7 rows.
pub fn fig7_table(rows: &[Fig7Row]) -> String {
    let mut out = String::from("CP-Limit  uf(baseline)  uf(DMA-TA)  uf(DMA-TA-PL)\n");
    for r in rows {
        out.push_str(&format!(
            "{:>6.0}%  {:>12.2}  {:>10.2}  {:>13.2}\n",
            r.cp_limit * 100.0,
            r.uf_baseline,
            r.uf_ta,
            r.uf_tapl
        ));
    }
    out
}

/// Renders Figure 8 rows.
pub fn fig8_table(rows: &[Fig8Row]) -> String {
    let mut out = String::from("transfers/ms  savings(DMA-TA)  savings(DMA-TA-PL)\n");
    for r in rows {
        out.push_str(&format!(
            "{:>11.0}  {:>14.1}%  {:>17.1}%\n",
            r.transfers_per_ms,
            r.savings_ta * 100.0,
            r.savings_tapl * 100.0
        ));
    }
    out
}

/// Renders Figure 9 rows.
pub fn fig9_table(rows: &[Fig9Row]) -> String {
    let mut out = String::from("proc/transfer  savings(DMA-TA)  savings(DMA-TA-PL)\n");
    for r in rows {
        out.push_str(&format!(
            "{:>12.0}  {:>14.1}%  {:>17.1}%\n",
            r.proc_per_transfer,
            r.savings_ta * 100.0,
            r.savings_tapl * 100.0
        ));
    }
    out
}

/// Renders Figure 10 rows.
pub fn fig10_table(rows: &[Fig10Row]) -> String {
    let mut out = String::from("workload      Rm/Rb  savings(DMA-TA)  savings(DMA-TA-PL)\n");
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:>5.2}  {:>14.1}%  {:>17.1}%\n",
            r.workload,
            r.ratio,
            r.savings_ta * 100.0,
            r.savings_tapl * 100.0
        ));
    }
    out
}

/// Renders the Figure 4 CDF points.
pub fn fig4_table(points: &[(f64, f64)]) -> String {
    let mut out = String::from("pages%  accesses%\n");
    for (x, y) in points {
        out.push_str(&format!("{:>5.0}%  {:>8.1}%\n", x * 100.0, y * 100.0));
    }
    out
}

/// Renders already-computed Table 2 rows (see
/// [`dmamem::experiments::table2_ctx`]).
pub fn table2_rows_text(rows: &[(String, dma_trace::TraceStats)]) -> String {
    let mut out =
        String::from("trace          net/ms  disk/ms  proc/ms  proc/transfer  distinct-pages\n");
    for (name, s) in rows {
        out.push_str(&format!(
            "{:<13} {:>7.1}  {:>7.1}  {:>7.0}  {:>13.1}  {:>14}\n",
            name,
            s.network_rate_per_ms(),
            s.disk_rate_per_ms(),
            s.proc_rate_per_ms(),
            s.proc_accesses_per_transfer(),
            s.distinct_dma_pages
        ));
    }
    out
}

/// Renders the observability summary of an instrumented run: top-line
/// counters, the slack ledger by cause, the guarantee verdict re-derived
/// from the event ledger, and the engine's self-profile counters.
pub fn obs_summary_table(run: &experiments::ObservedRun) -> String {
    let verdict = |met: bool| if met { "MET" } else { "VIOLATED" };
    let r = &run.result;
    let obs = r.obs.as_ref().expect("instrumented run carries obs");
    let m = &obs.metrics;
    let c = |name: &str| m.counter(name).unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "workload {}  scheme {}  mu {:.3}  horizon {}\n",
        run.workload, run.scheme, run.mu, r.horizon
    ));
    out.push_str(&format!(
        "events    {} recorded, {} dropped (ring capacity {})\n",
        obs.events.recorded(),
        obs.events.dropped(),
        obs.events.capacity()
    ));
    out.push_str(&format!(
        "chips     {} wakes, {} sleeps\n",
        c("dmamem.wakes"),
        c("dmamem.sleeps")
    ));
    out.push_str(&format!(
        "DMA-TA    {} firsts gathered; releases: {} rule, {} max-delay, {} proc-wake\n",
        c("dmamem.ta.gathered"),
        c("dmamem.ta.release.rule"),
        c("dmamem.ta.release.max_delay"),
        c("dmamem.ta.release.proc_wake")
    ));
    out.push_str(&format!(
        "PL        {} page moves; {} epoch ticks\n",
        c("dmamem.pl.page_moves"),
        c("dmamem.epoch_ticks")
    ));
    if let Some(s) = &r.slack {
        out.push_str(&format!(
            "slack     {} credits; debits (us): epoch {:.1}, wake {:.1}, proc {:.1}, queue {:.1}; final {:.1}, min {:.1}\n",
            s.credited,
            s.debit_epoch_ps / 1e6,
            s.debit_wake_ps / 1e6,
            s.debit_proc_ps / 1e6,
            s.debit_queue_ps / 1e6,
            s.final_ps / 1e6,
            s.min_ps / 1e6
        ));
    }
    let replay = dmamem::replay_slack(obs.events.iter());
    // The balance-trail check only means something on a complete stream;
    // the close-record verdict is exact either way (it carries integer
    // service totals, and the ring drops oldest first).
    let ledger = if obs.events.dropped() > 0 {
        format!("truncated, {} oldest dropped", obs.events.dropped())
    } else if replay.ledger_consistent {
        "consistent".to_string()
    } else {
        "INCONSISTENT".to_string()
    };
    out.push_str(&format!(
        "guarantee recorded {} | replayed-from-ledger {} (ledger {ledger})\n",
        verdict(r.guarantee_met(run.t_ref)),
        verdict(replay.guarantee_met(run.t_ref))
    ));
    out.push_str(&format!(
        "engine    {} events dispatched, heap {}/{} push/pop (max depth {}), {} transfers, {} requests\n",
        r.profile.events,
        r.profile.heap_pushes,
        r.profile.heap_pops,
        r.profile.max_heap_depth,
        r.profile.transfers,
        r.profile.requests
    ));
    out
}

/// The paper's default CP-Limit sweep (fractions).
pub const CP_SWEEP: [f64; 6] = [0.01, 0.05, 0.10, 0.15, 0.20, 0.30];

/// The paper's Figure 8 intensity sweep (transfers/ms).
pub const INTENSITY_SWEEP: [f64; 5] = [25.0, 50.0, 100.0, 200.0, 400.0];

/// The paper's Figure 9 processor-access sweep (accesses per transfer).
pub const PROC_SWEEP: [f64; 6] = [0.0, 10.0, 50.0, 100.0, 233.0, 500.0];

/// The paper's Figure 10 bus-rate sweep (bytes/second; memory fixed at
/// 3.2 GB/s gives ratios ~6.4, 3, 1.6, 1.07).
pub const BUS_RATE_SWEEP: [f64; 4] = [0.5e9, 1.064e9, 2.0e9, 3.0e9];

/// All four workloads.
pub const ALL_WORKLOADS: [Workload; 4] = Workload::ALL;

#[cfg(test)]
mod tests {
    use super::*;
    use dmamem::experiments::ExpConfig;

    #[test]
    fn tables_render_without_panicking() {
        let exp = ExpConfig::quick();
        assert!(table2_rows_text(&experiments::table2(exp)).contains("OLTP-St"));
        let rows = experiments::fig5(exp, &[Workload::SyntheticSt], &[0.10]);
        let t = fig5_table(&rows);
        assert!(t.contains("DMA-TA-PL(2)"));
        let pts = experiments::fig4(exp, 5);
        assert!(fig4_table(&pts).lines().count() == 7);
    }

    #[test]
    fn obs_summary_renders_verdicts_and_csv() {
        let run = experiments::observed_run(ExpConfig::quick(), 0.10, 1 << 18);
        let t = obs_summary_table(&run);
        assert!(t.contains("guarantee recorded"), "summary:\n{t}");
        assert!(t.contains("DMA-TA"), "summary:\n{t}");
        assert!(t.contains("slack"), "summary:\n{t}");
        let c = csv::obs_summary(&run);
        assert!(c.starts_with("metric,value\n"));
        assert!(c.contains("dmamem.wakes,"));
        assert!(c.contains("guarantee.replayed,"));
    }

    #[test]
    fn breakdown_line_lists_dominant_categories() {
        let rows = experiments::fig2b(ExpConfig::quick());
        let line = breakdown_line(&rows[0].1);
        assert!(line.contains("Active Idle DMA"));
        assert!(line.contains("mJ total"));
    }
}

/// CSV renderers for the figure data (one file per exhibit), so the plots
/// can be regenerated with any plotting tool.
pub mod csv {
    use dmamem::experiments::{Fig10Row, Fig5Row, Fig7Row, Fig8Row, Fig9Row};
    use mempower::{EnergyBreakdown, EnergyCategory};

    /// Figure 5 rows as CSV.
    pub fn fig5(rows: &[Fig5Row]) -> String {
        let mut out = String::from("workload,cp_limit,scheme,savings,degradation,within_limit\n");
        for r in rows {
            out.push_str(&format!(
                "{},{},{},{:.6},{:.6},{}\n",
                r.workload, r.cp_limit, r.scheme, r.savings, r.degradation, r.within_limit
            ));
        }
        out
    }

    /// Figure 7 rows as CSV.
    pub fn fig7(rows: &[Fig7Row]) -> String {
        let mut out = String::from("cp_limit,uf_baseline,uf_ta,uf_tapl\n");
        for r in rows {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6}\n",
                r.cp_limit, r.uf_baseline, r.uf_ta, r.uf_tapl
            ));
        }
        out
    }

    /// Figure 8 rows as CSV.
    pub fn fig8(rows: &[Fig8Row]) -> String {
        let mut out = String::from("transfers_per_ms,savings_ta,savings_tapl\n");
        for r in rows {
            out.push_str(&format!(
                "{},{:.6},{:.6}\n",
                r.transfers_per_ms, r.savings_ta, r.savings_tapl
            ));
        }
        out
    }

    /// Figure 9 rows as CSV.
    pub fn fig9(rows: &[Fig9Row]) -> String {
        let mut out = String::from("proc_per_transfer,savings_ta,savings_tapl\n");
        for r in rows {
            out.push_str(&format!(
                "{},{:.6},{:.6}\n",
                r.proc_per_transfer, r.savings_ta, r.savings_tapl
            ));
        }
        out
    }

    /// Figure 10 rows as CSV.
    pub fn fig10(rows: &[Fig10Row]) -> String {
        let mut out = String::from("workload,ratio,savings_ta,savings_tapl\n");
        for r in rows {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6}\n",
                r.workload, r.ratio, r.savings_ta, r.savings_tapl
            ));
        }
        out
    }

    /// Figure 4 CDF points as CSV.
    pub fn fig4(points: &[(f64, f64)]) -> String {
        let mut out = String::from("pages_frac,accesses_frac\n");
        for (x, y) in points {
            out.push_str(&format!("{x:.6},{y:.6}\n"));
        }
        out
    }

    /// Top-line observability counters of an instrumented run as
    /// `name,value` CSV rows.
    pub fn obs_summary(run: &dmamem::experiments::ObservedRun) -> String {
        let r = &run.result;
        let obs = r.obs.as_ref().expect("instrumented run carries obs");
        let mut out = String::from("metric,value\n");
        for (name, v) in &obs.metrics.counters {
            out.push_str(&format!("{name},{v}\n"));
        }
        for (name, v) in &obs.metrics.gauges {
            out.push_str(&format!("{name},{v:.3}\n"));
        }
        if let Some(s) = &r.slack {
            out.push_str(&format!("slack.debit_epoch_ps,{:.3}\n", s.debit_epoch_ps));
            out.push_str(&format!("slack.debit_wake_ps,{:.3}\n", s.debit_wake_ps));
            out.push_str(&format!("slack.debit_proc_ps,{:.3}\n", s.debit_proc_ps));
            out.push_str(&format!("slack.debit_queue_ps,{:.3}\n", s.debit_queue_ps));
            out.push_str(&format!("slack.min_ps,{:.3}\n", s.min_ps));
        }
        let replay = dmamem::replay_slack(obs.events.iter());
        out.push_str(&format!(
            "guarantee.recorded,{}\n",
            r.guarantee_met(run.t_ref)
        ));
        out.push_str(&format!(
            "guarantee.replayed,{}\n",
            replay.guarantee_met(run.t_ref)
        ));
        out.push_str(&format!("ledger.consistent,{}\n", replay.ledger_consistent));
        out.push_str(&format!("ledger.complete,{}\n", obs.events.dropped() == 0));
        out
    }

    /// An energy breakdown (one exhibit bar) as CSV rows.
    pub fn breakdown(label: &str, e: &EnergyBreakdown) -> String {
        let mut out = String::new();
        for cat in EnergyCategory::ALL {
            out.push_str(&format!(
                "{label},{},{:.9},{:.6}\n",
                cat.label().replace(' ', "_"),
                e.energy_mj(cat),
                e.fraction(cat)
            ));
        }
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use dmamem::experiments::{self, ExpConfig, Workload};

        #[test]
        fn csv_headers_and_rows() {
            let exp = ExpConfig::quick();
            let rows = experiments::fig5(exp, &[Workload::SyntheticSt], &[0.10]);
            let text = fig5(&rows);
            assert!(text.starts_with("workload,cp_limit"));
            assert_eq!(text.lines().count(), rows.len() + 1);
            let pts = experiments::fig4(exp, 4);
            assert_eq!(fig4(&pts).lines().count(), 6);
        }

        #[test]
        fn breakdown_csv_has_all_categories() {
            let rows = experiments::fig2b(ExpConfig::quick());
            let text = breakdown("baseline", &rows[0].1);
            assert_eq!(text.lines().count(), 6);
            assert!(text.contains("Active_Idle_DMA"));
        }
    }
}
