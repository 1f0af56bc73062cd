//! The sweep engine's core guarantee: figure output is bit-identical at
//! any thread count, with memoization on or off, for any seed.
//!
//! `Fig5Row`/`Fig7Row`/... derive `PartialEq` over raw `f64`s, so the
//! equalities below are exact bit comparisons, not tolerance checks.

use dmamem::experiments::{self, ExpConfig, Workload};
use dmamem::sweep::{SimJob, SweepCtx};
use dmamem::{Scheme, SystemConfig};
use proptest::prelude::*;
use simcore::SimDuration;

fn quick(seed: u64) -> ExpConfig {
    ExpConfig {
        duration: SimDuration::from_ms(2),
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Figure 5 rows are bit-identical across serial, 2-thread, 8-thread,
    /// and memoization-off runs, for arbitrary seeds.
    #[test]
    fn fig5_bit_identical_across_threads_and_memo(seed in 0u64..10_000) {
        let exp = quick(seed);
        let workloads = [Workload::SyntheticSt];
        let cps = [0.05, 0.10];
        let serial = experiments::fig5_ctx(&SweepCtx::new(1), exp, &workloads, &cps);
        for threads in [2usize, 8] {
            let parallel =
                experiments::fig5_ctx(&SweepCtx::new(threads), exp, &workloads, &cps);
            prop_assert_eq!(&serial, &parallel);
        }
        let unmemoized =
            experiments::fig5_ctx(&SweepCtx::new(2).with_memoize(false), exp, &workloads, &cps);
        prop_assert_eq!(&serial, &unmemoized);
    }

    /// Raw batch results match a plain serial simulator loop bit-for-bit.
    #[test]
    fn run_batch_matches_direct_simulation(seed in 0u64..10_000) {
        let config = SystemConfig::default();
        let ctx = SweepCtx::new(8);
        let trace = Workload::SyntheticSt.shared_trace(&ctx, quick(seed));
        let schemes = [
            Scheme::baseline(),
            Scheme::dma_ta(0.5),
            Scheme::dma_ta_pl(0.5, 2),
        ];
        let batch = ctx.run_batch(
            schemes
                .iter()
                .map(|&s| SimJob::new(config.clone(), s, trace.clone()))
                .collect(),
        );
        for (scheme, from_batch) in schemes.iter().zip(&batch) {
            let direct =
                dmamem::ServerSimulator::new(config.clone(), *scheme).run(trace.trace());
            prop_assert_eq!(&direct.energy, &from_batch.energy);
            prop_assert_eq!(direct.dma_requests, from_batch.dma_requests);
            prop_assert_eq!(direct.transfers, from_batch.transfers);
            prop_assert_eq!(
                direct.transfer_response.mean_ns().to_bits(),
                from_batch.transfer_response.mean_ns().to_bits()
            );
        }
    }
}

/// Every `_ctx` figure runner gives the serial context's rows at thread
/// counts 2 and 8.
#[test]
fn all_figures_bit_identical_across_thread_counts() {
    let exp = quick(42);
    let run = |ctx: &SweepCtx| {
        (
            experiments::fig7_ctx(ctx, exp, &[0.05, 0.10]),
            experiments::fig8_ctx(ctx, exp, &[50.0, 100.0], 0.10),
            experiments::fig9_ctx(ctx, exp, &[0.0, 50.0], 0.10),
            experiments::fig10_ctx(ctx, exp, &[1.064e9, 2.0e9], 0.10),
            experiments::tpch_ctx(ctx, exp, 0.10),
        )
    };
    let serial = run(&SweepCtx::serial());
    for threads in [2usize, 8] {
        assert_eq!(serial, run(&SweepCtx::new(threads)), "threads={threads}");
    }
}

/// A context reused across figures (the cross-figure memo path) still
/// reproduces the fresh-context rows exactly.
#[test]
fn cross_figure_memoization_does_not_change_rows() {
    let exp = quick(42);
    let shared = SweepCtx::new(2);
    let fig5_first = experiments::fig5_ctx(&shared, exp, &[Workload::OltpSt], &[0.10]);
    let fig6_shared = experiments::fig6_ctx(&shared, exp, 0.10);
    let fig7_shared = experiments::fig7_ctx(&shared, exp, &[0.10]);
    let before = shared.memo_stats();
    assert!(before.hits > 0, "cross-figure reuse never hit the memo");
    let fresh = SweepCtx::serial;
    assert_eq!(
        fig5_first,
        experiments::fig5_ctx(&fresh(), exp, &[Workload::OltpSt], &[0.10])
    );
    assert_eq!(fig6_shared, experiments::fig6_ctx(&fresh(), exp, 0.10));
    assert_eq!(fig7_shared, experiments::fig7_ctx(&fresh(), exp, &[0.10]));
}
