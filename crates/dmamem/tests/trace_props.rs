//! Property tests for the causal tracer: span trees must balance and
//! nest for every workload seed and worker-thread count, the exported
//! trace must be byte-identical at any thread count, and a spilling ring
//! of any size must stream the export of a ring that holds the whole run.

use dmamem::experiments::{traced_runs_ctx, traced_runs_spill_ctx, ExpConfig};
use dmamem::sweep::SweepCtx;
use dmamem::tracing::attribution_json;
use proptest::prelude::*;
use simcore::obs::SpillSink;
use simcore::SimDuration;

fn exp(ms_tenths: u64, seed: u64) -> ExpConfig {
    ExpConfig {
        duration: SimDuration::from_us(100 * ms_tenths),
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every traced run, on any seed and any worker count, yields a
    /// balanced span forest: begin/end pair up, parents close after
    /// children, chip tracks stay strictly LIFO, and nothing stays open
    /// past `finish`. All of that is what `validate` checks.
    #[test]
    fn spans_balance_under_random_seeds_and_threads(
        seed in 0u64..1000,
        threads in 1usize..4,
        tenths in 2u64..6,
    ) {
        let ctx = SweepCtx::new(threads);
        for run in traced_runs_ctx(&ctx, exp(tenths, seed), 0.10, 1 << 18) {
            let trace = run.result.trace.as_ref().expect("traced run");
            let stats = trace.validate().map_err(|e| {
                proptest::test_runner::TestCaseError::fail(format!(
                    "{}: invalid trace: {e}", run.workload
                ))
            })?;
            prop_assert_eq!(stats.open, 0);
            prop_assert!(stats.records >= stats.spans);
        }
    }

    /// Spilling writes every record where it sits in the record stream,
    /// so the streamed bytes of the exported run equal the in-memory
    /// export of a 2^20-record ring that never overflowed, whatever the
    /// spilling ring's capacity.
    #[test]
    fn spilled_run_streams_the_whole_run_export(
        seed in 0u64..1000,
        capacity in 16usize..(1 << 12) + 1,
        tenths in 2u64..6,
    ) {
        let ctx = SweepCtx::new(1);
        let e = exp(tenths, seed);
        let whole = traced_runs_ctx(&ctx, e, 0.10, 1 << 20);
        let whole = whole.last().and_then(|r| r.result.trace.as_ref()).expect("traced run");
        prop_assert_eq!(whole.dropped(), 0);
        let (sink, bytes) = SpillSink::memory();
        let mut runs = traced_runs_spill_ctx(&ctx, e, 0.10, capacity, Some(sink));
        let spilled = runs.last_mut().and_then(|r| r.result.trace.as_mut()).expect("traced run");
        prop_assert!(spilled.spilled() > 0, "a {}-record ring must spill", capacity);
        spilled.finalize_spill();
        prop_assert_eq!(spilled.dropped(), 0);
        let bytes = bytes.lock().expect("spill buffer");
        prop_assert!(
            bytes.as_slice() == whole.to_chrome_json().as_bytes(),
            "capacity {}: spilled bytes differ from the whole-run export", capacity
        );
    }
}

/// The exported trace and attribution report are byte-identical
/// regardless of how many sweep workers computed the shared baselines:
/// the traced runs themselves stay serial and outside the memo.
#[test]
fn trace_export_is_thread_count_invariant() {
    let e = exp(10, 42); // 1 ms
    let render = |threads: usize| {
        let ctx = SweepCtx::new(threads);
        let runs = traced_runs_ctx(&ctx, e, 0.10, 1 << 18);
        let attribs: Vec<_> = runs.iter().map(|r| r.attribution()).collect();
        let traces: Vec<String> = runs
            .iter()
            .map(|r| {
                r.result
                    .trace
                    .as_ref()
                    .expect("traced run")
                    .to_chrome_json()
            })
            .collect();
        (traces, attribution_json(&attribs))
    };
    let (t1, a1) = render(1);
    let (t2, a2) = render(2);
    let (t8, a8) = render(8);
    assert_eq!(a1, a2);
    assert_eq!(a1, a8);
    assert_eq!(t1, t2);
    assert_eq!(t1, t8);
}
