//! Figure-level orchestration of the parallel sweep engine.
//!
//! [`SweepRunner`] wraps a [`dmamem::sweep::SweepCtx`] and runs each
//! exhibit on it through [`SweepRunner::timed`], which accounts the
//! exhibit's wall clock and engine counters under its name (the
//! [`crate::exhibits`] table walks every exhibit this way). Because every
//! figure runs through the same context, traces and baselines memoize
//! *across* figures — the OLTP-St baseline that Figure 5 simulates is the
//! one Figures 6 and 7 read back for free.
//!
//! [`SweepRunner::timed`] is where the simulator's host time per figure is
//! measured, from outside the engine; the `benchmark/` harness reports it
//! as `bench.figure_s.*`.

use std::sync::Arc;
use std::time::Instant;

use dmamem::sweep::{MemoStats, ProfTotals, SweepCtx};
use simcore::obs::LiveState;

/// Wall-clock time and engine accounting of one figure run.
#[derive(Debug, Clone, PartialEq)]
pub struct FigTime {
    /// Exhibit name (`fig5`, `groups`, ...).
    pub figure: String,
    /// Wall-clock milliseconds the figure took on the runner's context.
    pub ms: f64,
    /// Memoized results this figure consumed (hits during this figure).
    pub memo_hits: u64,
    /// Simulations this figure actually executed.
    pub memo_misses: u64,
    /// Traces this figure read back from the trace cache.
    pub trace_hits: u64,
    /// Traces this figure generated.
    pub trace_misses: u64,
    /// Engine self-profile accumulated during this figure (deterministic
    /// counters; `max_heap_depth` is the per-figure window max).
    pub prof: ProfTotals,
}

/// A sweep context plus per-figure wall-clock accounting.
pub struct SweepRunner {
    ctx: SweepCtx,
    timings: Vec<FigTime>,
}

impl SweepRunner {
    /// Creates a runner on `threads` workers (`0` = all available).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            ctx: SweepCtx::new(threads),
            timings: Vec::new(),
        }
    }

    /// Attaches shared live-telemetry state (see
    /// [`dmamem::sweep::SweepCtx::with_live`]): each [`timed`] figure
    /// publishes its name and a heartbeat, sweep waves and job counts
    /// stream in as they run, and the instrumented observability run
    /// mirrors its metrics snapshot and event tail into the live
    /// `/metrics` and `/events` endpoints
    /// ([`dmamem::experiments::observed_run_ctx`]). Figure outputs stay
    /// byte-identical with or without it.
    ///
    /// [`timed`]: SweepRunner::timed
    pub fn with_live(mut self, live: Arc<LiveState>) -> Self {
        self.ctx = self.ctx.with_live(live);
        self
    }

    /// The underlying sweep context.
    pub fn ctx(&self) -> &SweepCtx {
        &self.ctx
    }

    /// Worker threads in use.
    pub fn threads(&self) -> usize {
        self.ctx.threads()
    }

    /// Memoization statistics accumulated across all figures run so far.
    pub fn memo_stats(&self) -> MemoStats {
        self.ctx.memo_stats()
    }

    /// Per-figure wall-clock times, in run order.
    pub fn timings(&self) -> &[FigTime] {
        &self.timings
    }

    /// Times `run` against the runner's context and records it under
    /// `figure`.
    pub fn timed<T>(&mut self, figure: &str, run: impl FnOnce(&SweepCtx) -> T) -> T {
        if let Some(live) = self.ctx.live() {
            live.set_figure(figure);
            live.heartbeat();
        }
        let memo_before = self.ctx.memo_stats();
        let prof_before = self.ctx.prof_totals();
        self.ctx.take_window_max_depth(); // reset the per-figure window
        let start = Instant::now();
        let out = run(&self.ctx);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let Some(live) = self.ctx.live() {
            live.heartbeat();
        }
        let memo = self.ctx.memo_stats();
        let mut prof = self.ctx.prof_totals().since(&prof_before);
        prof.max_heap_depth = self.ctx.take_window_max_depth();
        self.timings.push(FigTime {
            figure: figure.to_string(),
            ms,
            memo_hits: memo.hits - memo_before.hits,
            memo_misses: memo.misses - memo_before.misses,
            trace_hits: memo.trace_hits - memo_before.trace_hits,
            trace_misses: memo.trace_misses - memo_before.trace_misses,
            prof,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmamem::experiments::{self, ExpConfig, Workload};

    #[test]
    fn runner_memoizes_across_figures() {
        let exp = ExpConfig::quick();
        let mut runner = SweepRunner::new(2);
        let rows = runner.timed("fig5", |ctx| {
            experiments::fig5_ctx(ctx, exp, &[Workload::OltpSt], &[0.10])
        });
        assert_eq!(rows.len(), 4);
        let after_fig5 = runner.memo_stats();
        // Figures 6 and 7 at the same CP-Limit re-read fig5's OLTP-St
        // baseline and scheme runs from the memo.
        runner.timed("fig6", |ctx| experiments::fig6_ctx(ctx, exp, 0.10));
        runner.timed("fig7", |ctx| experiments::fig7_ctx(ctx, exp, &[0.10]));
        let after = runner.memo_stats();
        assert_eq!(
            after.misses, after_fig5.misses,
            "fig6/fig7 should be fully memoized after fig5: {after:?}"
        );
        assert!(after.hits > after_fig5.hits);
        assert_eq!(after.trace_misses, 1, "one OLTP-St trace generated");
        assert_eq!(runner.timings().len(), 3);
        // Per-figure attribution: fig6/fig7 consumed the memo without
        // executing anything, and fig5's engine work is on its row.
        let [fig5, fig6, fig7] = runner.timings() else {
            panic!("three timings")
        };
        assert!(fig5.memo_misses > 0 && fig5.prof.events > 0);
        assert_eq!(fig5.prof.sims, fig5.memo_misses);
        assert!(fig5.prof.max_heap_depth > 0);
        for f in [fig6, fig7] {
            assert_eq!(f.memo_misses, 0, "{}", f.figure);
            assert!(f.memo_hits > 0, "{}", f.figure);
            assert_eq!((f.prof.sims, f.prof.events), (0, 0), "{}", f.figure);
        }
    }
}
