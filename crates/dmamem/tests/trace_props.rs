//! Property tests for the causal tracer: span trees must balance and
//! nest for every workload seed and worker-thread count, the exported
//! trace must be byte-identical at any thread count, and a spilling ring
//! of any size must stream the export of a ring that holds the whole run.
//! Random call sequences check the span ring's packed records against a
//! plain model of the record stream, and check that a broken record is
//! reported whatever the ring kept of it.

use dmamem::experiments::{traced_runs_ctx, traced_runs_spill_ctx, ExpConfig};
use dmamem::sweep::SweepCtx;
use dmamem::tracing::attribution_json;
use proptest::prelude::*;
use simcore::obs::{SpanId, SpillSink, TraceBuffer, TraceStats, TrackKind};
use simcore::{SimDuration, SimTime};

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
            // Every span began and ended somewhere in the record stream.
            prop_assert!(stats.records as u64 + stats.dropped >= 2 * stats.spans as u64);
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

/// One record of the model stream: what a begin or end says about its
/// span, for predicting what survives in a ring's tail.
#[derive(Debug, Clone, Copy)]
enum Modelled {
    Begin {
        parent: Option<usize>,
        bus: bool,
    },
    End {
        span: usize,
    },
    /// A second end of an ended span, which no export writes.
    Stray,
    Other,
}

/// Replays `ops` into a `capacity`-record buffer with two chip and two
/// bus tracks, and returns it with the model of the records it was given
/// (spans numbered in begin order) and the index of the broken record
/// `fault` injected, if any.
///
/// Each op is `(kind, pick, step)`: `step` advances the clock, `kind`
/// chooses a bus begin, a chip begin, an end, an instant or a counter,
/// and `pick` chooses the track, the parent (a random open span, or
/// none) or the span to end (any open bus span or any chip's innermost
/// span). Counter samples are distinct. With `finish`, the open spans
/// are closed at the end.
///
/// `fault` is `(kind, op)`: before op `op`, kind 1 ends an ended span
/// again and kind 2 records an instant stamped below the last record,
/// when there is such a span or a stamp to go below.
fn replay(
    ops: &[(u8, u64, u64)],
    fault: (u8, usize),
    finish: bool,
    capacity: usize,
    spill: Option<SpillSink>,
) -> (TraceBuffer, Vec<Modelled>, Option<usize>) {
    let mut buf = TraceBuffer::new(capacity);
    let chips = [0, 1].map(|i| buf.add_track(format!("chip {i}"), TrackKind::Chip));
    let buses = [0, 1].map(|i| buf.add_track(format!("io bus {i}"), TrackKind::Bus));
    if let Some(sink) = spill {
        buf.arm_spill(sink);
    }
    let mut model = Vec::new();
    let mut broken = None;
    let mut spans: Vec<SpanId> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    let mut chip_stacks = [Vec::new(), Vec::new()];
    let (mut now, mut last) = (0u64, 0u64);
    for (i, &(kind, pick, step)) in ops.iter().enumerate() {
        if i == fault.1 {
            let ended = (0..spans.len()).find(|s| !open.contains(s));
            match (fault.0, ended) {
                (1, Some(span)) => {
                    broken = Some(model.len());
                    buf.end(spans[span], SimTime::from_ps(now));
                    model.push(Modelled::Stray);
                }
                (2, _) if last > 0 => {
                    broken = Some(model.len());
                    buf.instant(chips[0], "late", SimTime::from_ps(last - 1));
                    model.push(Modelled::Other);
                }
                _ => {}
            }
        }
        now += step;
        let at = SimTime::from_ps(now);
        let p = pick as usize;
        let rec = match kind {
            0..=2 => {
                let parent =
                    (!p.is_multiple_of(3) && !open.is_empty()).then(|| open[p / 3 % open.len()]);
                let bus = kind < 2;
                let track = if bus { buses[p % 2] } else { chips[p % 2] };
                let id = buf.begin(track, "span", at, parent.map(|s| spans[s]));
                let span = spans.len();
                spans.push(id);
                open.push(span);
                if !bus {
                    chip_stacks[p % 2].push(span);
                }
                Modelled::Begin { parent, bus }
            }
            3..=4 if !open.is_empty() => {
                let span = open[p % open.len()];
                // A chip span ends only when it is its chip's innermost.
                if let Some(stack) = chip_stacks.iter_mut().find(|s| s.contains(&span)) {
                    if stack.last() != Some(&span) {
                        continue;
                    }
                    stack.pop();
                }
                open.retain(|&s| s != span);
                buf.end(spans[span], at);
                Modelled::End { span }
            }
            5 => {
                buf.instant(chips[p % 2], "mark", at);
                Modelled::Other
            }
            6 => {
                buf.counter(buses[p % 2], "level", at, i as f64 + 0.25);
                Modelled::Other
            }
            _ => continue,
        };
        model.push(rec);
        last = now;
    }
    if finish {
        open.sort_unstable();
        for &span in open.iter().rev() {
            model.push(Modelled::End { span });
        }
        buf.finish(SimTime::from_ps(now));
    }
    (buf, model, broken)
}

/// The export that a ring holding the last `capacity` records of `model`
/// must give, derived from `whole`, the export of a ring that held every
/// record: each record keeps its line, except that an end whose begin
/// fell out of the tail is not written and a bus span whose ancestors
/// fell out is keyed by its oldest ancestor left.
fn tail_of(whole: &str, model: &[Modelled], capacity: usize) -> String {
    let mut lines: Vec<&str> = whole.lines().collect();
    let (head, footer) = (lines.remove(0), lines.pop());
    assert_eq!(footer, Some("]}"));
    let lines: Vec<&str> = lines.iter().map(|l| l.trim_end_matches(',')).collect();
    // The line of each model record in `whole`; a stray end has none.
    let mut written = 0;
    let line_of: Vec<usize> = model
        .iter()
        .map(|rec| {
            let line = written;
            written += usize::from(!matches!(rec, Modelled::Stray));
            line
        })
        .collect();
    let (tracks, records) = lines.split_at(lines.len() - written);
    let begins: Vec<usize> = (0..model.len())
        .filter(|&k| matches!(model[k], Modelled::Begin { .. }))
        .collect();
    let parent = |span: usize| match model[begins[span]] {
        Modelled::Begin { parent, .. } => parent,
        _ => unreachable!("begins index begin records"),
    };
    let first = model.len().saturating_sub(capacity);
    let root_from = |mut span: usize, cut: usize| {
        while let Some(p) = parent(span).filter(|&p| begins[p] >= cut) {
            span = p;
        }
        span
    };
    let mut kept: Vec<String> = tracks.iter().map(|l| l.to_string()).collect();
    for (k, rec) in model.iter().enumerate().skip(first) {
        let span = match *rec {
            Modelled::Begin { .. } => begins.iter().position(|&b| b == k),
            Modelled::End { span } if begins[span] >= first => Some(span),
            Modelled::End { .. } | Modelled::Stray => continue,
            Modelled::Other => None,
        };
        let bus =
            span.is_some_and(|s| matches!(model[begins[s]], Modelled::Begin { bus: true, .. }));
        let line = records[line_of[k]];
        let line = match span.filter(|_| bus) {
            Some(s) => {
                let key = |root: usize| format!("\"id\":\"{root:#x}\"");
                line.replace(&key(root_from(s, 0)), &key(root_from(s, first)))
            }
            None => line.to_string(),
        };
        kept.push(line);
    }
    format!("{head}\n{}\n]}}\n", kept.join(",\n"))
}

proptest! {
    /// The packed records of a small ring say what the plain record
    /// stream says: a ring of any capacity from 16 to 256 exports the
    /// tail of a 2^16-record ring that held the same calls, and spilled
    /// through a sink it streams the whole export. Every record is
    /// checked as it is recorded, so either ring validates as the
    /// 2^16-record ring does, with its own counts of records held and
    /// lost: to the whole run's statistics, or to the same error when
    /// one stray end or one stamp regression was injected.
    #[test]
    fn small_rings_keep_the_tail_of_the_record_stream(
        ops in prop::collection::vec((0u8..8, 0u64..1 << 20, 0u64..3), 1..600),
        fault in (0u8..3, 0usize..600),
        capacity in 16usize..257,
        finish in any::<bool>(),
    ) {
        let (whole, model, broken) = replay(&ops, fault, finish, 1 << 16, None);
        prop_assert_eq!(whole.dropped(), 0);
        let whole_json = whole.to_chrome_json();
        let verdict = whole.validate();
        match broken {
            Some(k) => {
                let err = verdict.clone().err().unwrap_or_default();
                prop_assert!(err.starts_with(&format!("record {k}: ")), "{:?}", verdict);
            }
            None => {
                let count = |f: fn(&Modelled) -> bool| model.iter().filter(|&r| f(r)).count();
                let spans = count(|r| matches!(r, Modelled::Begin { .. }));
                let ended = count(|r| matches!(r, Modelled::End { .. }));
                let stats = TraceStats { records: model.len(), spans, open: spans - ended, dropped: 0 };
                prop_assert_eq!(verdict.clone(), Ok(stats));
            }
        }
        let own = |ring: &TraceBuffer| {
            verdict.clone().map(|s| TraceStats { records: ring.len(), dropped: ring.dropped(), ..s })
        };

        let (ring, ..) = replay(&ops, fault, finish, capacity, None);
        let tail_json = tail_of(&whole_json, &model, capacity);
        prop_assert!(ring.to_chrome_json() == tail_json, "capacity {}: export differs", capacity);
        prop_assert_eq!(ring.dropped(), model.len().saturating_sub(capacity) as u64);
        prop_assert_eq!(ring.validate(), own(&ring));

        let (sink, bytes) = SpillSink::memory();
        let (mut spilled, ..) = replay(&ops, fault, finish, capacity, Some(sink));
        spilled.finalize_spill();
        prop_assert!(
            bytes.lock().expect("spill buffer").as_slice() == whole_json.as_bytes(),
            "capacity {}: spilled bytes differ", capacity
        );
        // A stray end is the one record the sink cannot write.
        let stray = model.iter().any(|r| matches!(r, Modelled::Stray));
        prop_assert_eq!(spilled.dropped(), u64::from(stray));
        prop_assert_eq!(spilled.validate(), own(&spilled));
    }
}
