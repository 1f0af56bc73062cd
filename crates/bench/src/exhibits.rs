//! The exhibit table: every exhibit `experiments all` prints, in order.
//!
//! Each [`Exhibit`] names one table or figure, titles its section, and
//! runs it on a sweep context. The `experiments` binary, its
//! `--prof-out` per-exhibit attribution (through
//! [`SweepRunner::timed`]) and the quick-exhibit pins in the tests all
//! walk [`EXHIBITS`], so the list is written out once. The design
//! ablations and the trace report are not in the table: `all` leaves
//! them out, and they print through their own flags.

use std::fs;
use std::path::Path;

use dmamem::experiments::{self, ExpConfig};
use dmamem::sweep::SweepCtx;
use mempower::EnergyBreakdown;

use crate::sweep::SweepRunner;
use crate::{
    breakdown_line, csv, fig10_table, fig4_table, fig5_table, fig7_table, fig8_table, fig9_table,
    table2_rows_text, ALL_WORKLOADS, BUS_RATE_SWEEP, CP_SWEEP, INTENSITY_SWEEP, PROC_SWEEP,
};

/// What one exhibit run prints: its rows, newline-terminated, and its CSV
/// file name and contents where it has one.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The printed rows.
    pub text: String,
    /// The CSV file name and contents.
    pub csv: Option<(&'static str, String)>,
}

fn text(text: String) -> Output {
    Output { text, csv: None }
}

/// A table, printed with a blank line after it, and its CSV.
fn table(text: String, file: &'static str, csv: String) -> Output {
    Output {
        text: text + "\n",
        csv: Some((file, csv)),
    }
}

/// One printed line per row.
fn lines<T>(rows: &[T], line: impl Fn(&T) -> String) -> String {
    rows.iter().map(|r| line(r) + "\n").collect()
}

/// Energy breakdowns, one line each, and their CSV under `file`.
fn breakdowns(rows: &[(String, EnergyBreakdown)], file: Option<&'static str>) -> Output {
    let mut csv = String::from("scheme,category,energy_mj,fraction\n");
    for (name, e) in rows {
        csv.push_str(&csv::breakdown(name, e));
    }
    Output {
        text: lines(rows, |(name, e)| format!("{name}: {}", breakdown_line(e))),
        csv: file.map(|file| (file, csv)),
    }
}

/// One entry of the exhibit table.
pub struct Exhibit {
    /// Command-line name (`table1`, `fig5`, ...).
    pub name: &'static str,
    /// Section title.
    pub title: &'static str,
    /// The paper's figure for comparison, printed last; empty for none.
    pub note: &'static str,
    /// Runs the exhibit on a sweep context.
    pub run: fn(&SweepCtx, ExpConfig) -> Output,
}

/// The CP-Limit of every single-limit exhibit (the paper's 10 %).
const CP: f64 = 0.10;

/// Every exhibit of `experiments all`, in print order.
pub static EXHIBITS: [Exhibit; 14] = [
    Exhibit {
        name: "table1",
        title: "Table 1: RDRAM power model",
        note: "",
        run: |_, _| text(experiments::table1_text() + "\n"),
    },
    Exhibit {
        name: "table2",
        title: "Table 2: trace characteristics",
        note: "(paper: OLTP-St 45.0 net + 16.7 disk /ms; OLTP-Db 100/ms + 23,300 proc/ms)",
        run: |ctx, exp| text(table2_rows_text(&experiments::table2_ctx(ctx, exp)) + "\n"),
    },
    Exhibit {
        name: "fig2a",
        title: "Figure 2(a): cycle waste during one DMA transfer",
        note: "",
        run: |_, _| {
            let (f, timeline) = experiments::fig2a_run();
            let (serving, idle, uf) = (f.serving_cycles, f.idle_cycles, f.measured_uf);
            text(format!("serving {serving:.1} cycles + idle {idle:.1} cycles per request; measured single-transfer uf = {uf:.3} (paper: 4 + 8, uf = 1/3)\n\n{timeline}\n"))
        },
    },
    Exhibit {
        name: "fig2b",
        title: "Figure 2(b): baseline energy breakdowns",
        note: "(paper: Active Idle DMA 48-51%, Active Serving 26-27%, threshold 3-4%)",
        run: |ctx, exp| breakdowns(&experiments::fig2b_ctx(ctx, exp), None),
    },
    Exhibit {
        name: "fig3",
        title: "Figure 3: temporal alignment of staggered transfers",
        note: "",
        run: |_, _| {
            let (f, timeline) = experiments::fig3_run();
            let (base, ta, delayed) = (f.baseline_uf, f.ta_uf, f.delayed_firsts);
            text(format!("baseline uf {base:.2} -> DMA-TA uf {ta:.2} ({delayed} first requests delayed, then lockstep)\n\n{timeline}\n"))
        },
    },
    Exhibit {
        name: "fig4",
        title: "Figure 4: OLTP-St page-popularity CDF",
        note: "(paper: ~20% of pages receive ~60% of DMA accesses)",
        run: |_, exp| {
            let pts = experiments::fig4(exp, 10);
            table(fig4_table(&pts), "fig4.csv", csv::fig4(&pts))
        },
    },
    Exhibit {
        name: "fig5",
        title: "Figure 5: energy savings vs CP-Limit",
        note: "(paper: up to 38.6% for OLTP-St DMA-TA-PL(2) at 10%; savings rise then plateau)",
        run: |ctx, exp| {
            let rows = experiments::fig5_ctx(ctx, exp, &ALL_WORKLOADS, &CP_SWEEP);
            table(fig5_table(&rows), "fig5.csv", csv::fig5(&rows))
        },
    },
    Exhibit {
        name: "fig6",
        title: "Figure 6: energy breakdowns at 10% CP-Limit (OLTP-St)",
        note: "",
        run: |ctx, exp| breakdowns(&experiments::fig6_ctx(ctx, exp, CP), Some("fig6.csv")),
    },
    Exhibit {
        name: "fig7",
        title: "Figure 7: utilization factors vs CP-Limit (OLTP-St)",
        note: "(paper: baseline ~0.33; DMA-TA-PL 0.63 at 10%, 0.75 at 30%)",
        run: |ctx, exp| {
            let rows = experiments::fig7_ctx(ctx, exp, &CP_SWEEP);
            table(fig7_table(&rows), "fig7.csv", csv::fig7(&rows))
        },
    },
    Exhibit {
        name: "fig8",
        title: "Figure 8: savings vs workload intensity (Synthetic-St)",
        note: "",
        run: |ctx, exp| {
            let rows = experiments::fig8_ctx(ctx, exp, &INTENSITY_SWEEP, CP);
            table(fig8_table(&rows), "fig8.csv", csv::fig8(&rows))
        },
    },
    Exhibit {
        name: "fig9",
        title: "Figure 9: savings vs processor accesses per transfer (Synthetic-Db)",
        note: "(paper: savings drop with processor accesses but stay significant; OLTP-Db ~233)",
        run: |ctx, exp| {
            let rows = experiments::fig9_ctx(ctx, exp, &PROC_SWEEP, CP);
            table(fig9_table(&rows), "fig9.csv", csv::fig9(&rows))
        },
    },
    Exhibit {
        name: "fig10",
        title: "Figure 10: savings vs memory/I-O bandwidth ratio",
        note: "(paper: ~5% at ratio ~1, growing with the ratio)",
        run: |ctx, exp| {
            let rows = experiments::fig10_ctx(ctx, exp, &BUS_RATE_SWEEP, CP);
            table(fig10_table(&rows), "fig10.csv", csv::fig10(&rows))
        },
    },
    Exhibit {
        name: "tpch",
        title: "Extension: TPC-H-style scans (paper future work)",
        note: "(uniform scan popularity: PL has nothing to concentrate; DMA-TA still aligns colliding scans)",
        run: |ctx, exp| {
            text(lines(&experiments::tpch_ctx(ctx, exp, CP), |r| {
                let (savings, uf, moves) = (r.savings * 100.0, r.uf, r.page_moves);
                format!("{}: savings {savings:+.1}%, uf {uf:.2}, {moves} page moves", r.scheme)
            }))
        },
    },
    Exhibit {
        name: "groups",
        title: "Ablation: PL group count (scaled 64-frame chips, Zipf 0.5)",
        note: "(paper Figure 5: K = 2 best; K = 6 pays heavy migration churn, e.g. -15.2% on OLTP-St)",
        run: |ctx, exp| {
            text(lines(&experiments::group_ablation_ctx(ctx, exp, CP), |r| {
                let (k, savings, moves) = (r.groups, r.savings * 100.0, r.page_moves);
                format!("K = {k}: savings {savings:+.1}% ({moves} page moves)")
            }))
        },
    },
];

/// The entries the command-line exhibit `name` selects: all for `all`,
/// the named one, or none for `ablations` and `trace-report`, which print
/// outside the table. `None` when no exhibit is called `name`.
pub fn select(name: &str) -> Option<&'static [Exhibit]> {
    match name {
        "all" => Some(&EXHIBITS),
        "ablations" | "trace-report" => Some(&[]),
        _ => EXHIBITS
            .iter()
            .position(|e| e.name == name)
            .map(|i| std::slice::from_ref(&EXHIBITS[i])),
    }
}

/// A section header as `experiments` prints it, preceded by a blank line.
pub fn header(title: &str) -> String {
    format!("\n================ {title} ================\n")
}

impl Exhibit {
    /// Runs the exhibit on `runner`, timed under its name, and returns
    /// its section as `experiments` prints it. With `csv_dir`, the
    /// exhibit's CSV file is written there and the section confirms it;
    /// a failed write is a warning on stderr.
    pub fn section(
        &self,
        runner: &mut SweepRunner,
        exp: ExpConfig,
        csv_dir: Option<&Path>,
    ) -> String {
        let out = runner.timed(self.name, |ctx| (self.run)(ctx, exp));
        let mut section = header(self.title) + &out.text;
        if let (Some(dir), Some((file, contents))) = (csv_dir, &out.csv) {
            section += &write_csv(dir, file, contents);
        }
        if !self.note.is_empty() {
            section = section + self.note + "\n";
        }
        section
    }
}

/// Writes `contents` to `dir/file` and returns the confirmation line
/// `experiments` prints; a failed write is a warning on stderr and
/// returns nothing.
pub fn write_csv(dir: &Path, file: &str, contents: &str) -> String {
    let path = dir.join(file);
    match fs::write(&path, contents) {
        Ok(()) => format!("(csv written to {})\n", path.display()),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            String::new()
        }
    }
}

/// The closing line of a run that simulated anything, with a blank line
/// before it; empty when nothing went through the sweep engine.
pub fn footer(runner: &SweepRunner) -> String {
    let stats = runner.memo_stats();
    if stats.hits + stats.misses == 0 {
        return String::new();
    }
    format!(
        "\n(sweep engine: {} simulations run, {} served from memo, {} worker thread(s))\n",
        stats.misses,
        stats.hits,
        runner.threads()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_finds_table_entries_and_the_outside_exhibits() {
        let names = |sel: &[Exhibit]| sel.iter().map(|e| e.name).collect::<Vec<_>>();
        assert_eq!(names(select("fig5").expect("fig5")), ["fig5"]);
        assert_eq!(names(select("groups").expect("groups")), ["groups"]);
        assert_eq!(select("all").expect("all").len(), EXHIBITS.len());
        assert!(select("ablations").expect("ablations").is_empty());
        assert!(select("trace-report").expect("trace-report").is_empty());
        for unknown in ["bogus", "", "Fig5", "observed", "fig"] {
            assert!(select(unknown).is_none(), "{unknown:?} selected something");
        }
    }
}
