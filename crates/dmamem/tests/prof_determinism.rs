//! Engine-profile determinism: every counter the engine self-profiles
//! (events dispatched, heap pushes/pops, max calendar depth, transfers,
//! requests, per-phase call counts) is bit-identical at any thread count
//! and across same-seed replays.

use dmamem::experiments::{self, ExpConfig, Workload};
use dmamem::sweep::{ProfTotals, SweepCtx};
use proptest::prelude::*;
use simcore::SimDuration;

fn quick(seed: u64) -> ExpConfig {
    ExpConfig {
        duration: SimDuration::from_ms(2),
        seed,
    }
}

/// Runs a small Figure-5 sweep on `ctx` and returns its engine totals.
fn fig5_totals(ctx: &SweepCtx, exp: ExpConfig) -> ProfTotals {
    experiments::fig5_ctx(ctx, exp, &[Workload::SyntheticSt], &[0.05, 0.10]);
    ctx.prof_totals()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Profile counters are bit-identical across 1/2/8 worker threads
    /// and across a same-seed replay, for arbitrary seeds.
    #[test]
    fn prof_counters_identical_across_threads_and_replays(seed in 0u64..10_000) {
        let exp = quick(seed);
        let serial = fig5_totals(&SweepCtx::new(1), exp);
        prop_assert!(serial.sims > 0 && serial.events > 0);
        // The loop-accounting invariant survives aggregation: every
        // dispatched event plus one stats pass per sim noted a phase.
        prop_assert_eq!(
            serial.phase_calls.iter().sum::<u64>(),
            serial.events + serial.sims
        );
        for threads in [2usize, 8] {
            prop_assert_eq!(serial, fig5_totals(&SweepCtx::new(threads), exp));
        }
        prop_assert_eq!(serial, fig5_totals(&SweepCtx::new(2), exp));
    }
}

/// A single simulation's `EngineProfile` reproduces exactly on replay.
#[test]
fn single_run_profile_replays_exactly() {
    let exp = quick(42);
    let ctx = SweepCtx::new(1);
    let trace = Workload::OltpSt.shared_trace(&ctx, exp);
    let run = || {
        dmamem::ServerSimulator::new(dmamem::SystemConfig::default(), dmamem::Scheme::baseline())
            .run(trace.trace())
    };
    let (a, b) = (run(), run());
    assert_eq!(a.profile, b.profile, "replay must reproduce the profile");
    assert!(a.profile.events > 0);
    assert_eq!(a.energy, b.energy);
}
