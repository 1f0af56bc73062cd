//! A PL(K > 2) job answered by its PL(2) twin is the run it stands for.
//!
//! `SweepCtx::run_batch` hands a PL(K) job its PL(2) twin's result when
//! every plan of the twin chose a hot-chip count at which K groups lay out
//! as two do. These tests check that answer against a fresh simulation of
//! the job, field by field, on a run whose plans collapse (the paper's
//! 4096-frame chips hold the hot set on one chip) and on one whose plans do
//! not (the group ablation's 64-frame chips), with memoization on and off.

use dma_trace::{SyntheticStorageGen, TraceGen};
use dmamem::experiments::{mu_from_baseline, paper_system, ExpConfig, Workload};
use dmamem::sweep::{SharedTrace, SimJob, SweepCtx};
use dmamem::{Scheme, ServerSimulator, SimResult, SystemConfig};
use mempower::PowerModel;
use simcore::SimDuration;

const GROUPS: [usize; 3] = [2, 3, 6];

/// Every field of a result, floats at full precision (`Debug` prints the
/// shortest string that round-trips).
fn fields(r: &SimResult) -> String {
    format!("{r:?}")
}

/// Every field but the scheme label.
fn fields_but_label(r: &SimResult) -> String {
    fields(&SimResult {
        scheme: String::new(),
        ..r.clone()
    })
}

/// Runs DMA-TA-PL(2/3/6) at 10 % CP-Limit on `trace` as one batch, under
/// a memoizing and a non-memoizing context, and checks every answer
/// against a fresh simulation. Returns the memoizing context's results and
/// its count of twin answers.
fn run_both_ways(
    config: &SystemConfig,
    trace: impl Fn(&SweepCtx) -> SharedTrace,
    extra: SimDuration,
) -> (Vec<std::sync::Arc<SimResult>>, u64) {
    let mut out = None;
    for ctx in [SweepCtx::new(2), SweepCtx::new(2).with_memoize(false)] {
        let trace = trace(&ctx);
        let baseline = ctx.run(config, Scheme::baseline(), &trace);
        let mu = mu_from_baseline(config, &baseline, 0.10, extra);
        let schemes = GROUPS.map(|g| Scheme::dma_ta_pl(mu, g));
        let results = ctx.run_batch(
            schemes
                .iter()
                .map(|&s| SimJob::new(config.clone(), s, trace.clone()))
                .collect(),
        );
        for (scheme, r) in schemes.iter().zip(&results) {
            assert_eq!(r.scheme, scheme.label());
            let fresh = ServerSimulator::new(config.clone(), *scheme).run(trace.trace());
            assert_eq!(fields(r), fields(&fresh), "{}", scheme.label());
        }
        let stats = ctx.memo_stats();
        if out.is_none() {
            out = Some((results, stats.equiv_hits));
        } else {
            assert_eq!(stats.equiv_hits, 0, "memoization off answers nothing");
        }
    }
    out.expect("the memoizing context ran")
}

#[test]
fn collapsed_layouts_are_answered_by_the_twin() {
    let exp = ExpConfig {
        duration: SimDuration::from_ms(10),
        seed: 42,
    };
    let (results, equiv_hits) = run_both_ways(
        &paper_system(),
        |ctx| Workload::OltpSt.shared_trace(ctx, exp),
        Workload::OltpSt.client_extra_latency(),
    );
    // Plans ran, and each chose one hot chip: PL(3) and PL(6) collapse.
    assert_eq!(results[0].max_hot_chips, 1);
    assert!(results[0].page_moves > 0, "no plan moved a page");
    assert_eq!(equiv_hits, 2);
    for r in &results[1..] {
        assert_eq!(fields_but_label(r), fields_but_label(&results[0]));
    }
}

#[test]
fn layouts_that_part_simulate() {
    // The group ablation: 64-frame chips and a flat popularity skew, so
    // the hot set spans several chips.
    let config = SystemConfig {
        chips: 32,
        power_model: PowerModel::rdram().with_chip_bytes(64 * 8192),
        pages: 1536,
        ..SystemConfig::default()
    };
    let gen = SyntheticStorageGen {
        pages: 1536,
        transfers_per_ms: 200.0,
        zipf_alpha: 0.5,
        ..Default::default()
    };
    let duration = SimDuration::from_ms(6);
    let (results, equiv_hits) = run_both_ways(
        &config,
        |ctx| ctx.trace("group-ablation|6ms|42", || gen.generate(duration, 42)),
        Workload::SyntheticSt.client_extra_latency(),
    );
    assert!(results[0].max_hot_chips > 1, "{}", results[0].max_hot_chips);
    assert_eq!(equiv_hits, 0);
    for r in &results[1..] {
        assert_ne!(
            fields_but_label(r),
            fields_but_label(&results[0]),
            "{}",
            r.scheme
        );
    }
}
