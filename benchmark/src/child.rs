//! One measured repetition of one workload.
//!
//! Every repetition runs in a fresh process (`benchmark child ...`), so
//! peak RSS, the sweep engine's trace and result caches, and the allocator
//! all start empty. The repetition times four stages from outside the
//! engine — trace generation, CP-Limit calibration, simulation, rendering —
//! by wrapping calls into the layers' public functions, checks every
//! simulation result, and prints one JSON line for the parent process.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Debug;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use bench::sweep::SweepRunner;
use bench::{
    breakdown_line, csv, fig10_table, fig4_table, fig5_table, fig7_table, fig8_table, fig9_table,
    obs_summary_table, table2_rows_text, ALL_WORKLOADS, BUS_RATE_SWEEP, CP_SWEEP, INTENSITY_SWEEP,
    PROC_SWEEP,
};
use dma_trace::{SyntheticDbGen, SyntheticStorageGen, TpchScanGen, TraceEvent, TraceGen};
use dmamem::experiments::{self, mu_from_baseline, paper_system, ExpConfig, Workload};
use dmamem::sweep::{SharedTrace, SimJob, SweepCtx};
use dmamem::{Scheme, SimResult, SystemConfig};
use iobus::{BusConfig, DmaSource};
use mempower::{EnergyBreakdown, PowerModel};
use simcore::obs::json::JsonObject;
use simcore::obs::trace::{SpanId, TraceBuffer, TrackId, TrackKind};
use simcore::prof::Phase;
use simcore::{EngineProfile, SimDuration, SimTime};

use crate::replay;
use crate::stats::median;

/// A benchmark workload: its name, default trace length, and the
/// FNV-1a-64 digest of its rendered exhibits at seed 42 and that length.
pub struct WorkloadDef {
    /// Name used on the command line and in reports.
    pub name: &'static str,
    /// Simulated trace length per run, milliseconds.
    pub ms: u64,
    /// Exhibit digest every seed-42 run at `ms` must reproduce.
    pub digest42: u64,
}

/// The four workloads; why each was chosen is in README.md.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "storage-sweep",
        ms: 2,
        digest42: 0xf60a8597_9ca4a9bd,
    },
    WorkloadDef {
        name: "database-sweep",
        ms: 1,
        digest42: 0xc30fde95_69e7c5f8,
    },
    WorkloadDef {
        name: "observed-run",
        ms: 6,
        digest42: 0xfc9d9926_98be3f43,
    },
    WorkloadDef {
        name: "quick-matrix",
        ms: 1,
        digest42: 0x653c2262_d3fc567c,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The quick-matrix exhibits, in `experiments all` order.
pub const EXHIBITS: [&str; 14] = [
    "table1", "table2", "fig2a", "fig2b", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "tpch", "groups",
];

#[derive(Debug, Clone, Copy)]
enum Stage {
    Gen,
    Calibrate,
    Simulate,
    Render,
}

impl Stage {
    const ALL: [Stage; 4] = [Stage::Gen, Stage::Calibrate, Stage::Simulate, Stage::Render];

    fn span(self) -> &'static str {
        match self {
            Stage::Gen => "gen",
            Stage::Calibrate => "calibrate",
            Stage::Simulate => "simulate",
            Stage::Render => "render",
        }
    }

    /// The stage's metric as `(module, metric)`.
    fn metric(self) -> (&'static str, &'static str) {
        match self {
            Stage::Gen => ("dma_trace", "gen_s"),
            Stage::Calibrate => ("dmamem", "calibrate_s"),
            Stage::Simulate => ("dmamem", "simulate_s"),
            Stage::Render => ("bench", "render_s"),
        }
    }
}

/// Host-time spans around stages, jobs and exhibits, kept in the
/// simulator's own span ring: host time since process start is stored as
/// simulated time, so the Chrome export shows host microseconds.
struct Spans {
    buf: TraceBuffer,
    track: TrackId,
    open: Vec<SpanId>,
    origin: Instant,
}

impl Spans {
    fn new(origin: Instant) -> Self {
        let mut buf = TraceBuffer::new(1 << 14);
        let track = buf.add_track("benchmark", TrackKind::Chip);
        Spans {
            buf,
            track,
            open: Vec::new(),
            origin,
        }
    }

    fn now(&self) -> SimTime {
        let ns = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX / 1000);
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    fn begin(&mut self, name: &'static str) {
        let at = self.now();
        let id = self
            .buf
            .begin(self.track, name, at, self.open.last().copied());
        self.open.push(id);
    }

    fn end(&mut self) {
        if let Some(id) = self.open.pop() {
            let at = self.now();
            self.buf.end(id, at);
        }
    }
}

/// A deferred exhibit renderer: the rows are computed in the simulate
/// stage and rendered in the render stage.
type Render = Box<dyn FnOnce() -> String>;

/// Sums over the simulate stage's results. PL plans are one per
/// reorganization interval of the simulated horizon.
#[derive(Default)]
struct Counts {
    services: u64,
    wakes: u64,
    delayed_firsts: u64,
    ta_transfers: u64,
    page_moves: u64,
    ta_credits: u64,
    pl_plans: u64,
}

/// The state of one repetition.
struct Bench {
    runner: SweepRunner,
    spans: Option<Spans>,
    stage_s: [f64; 4],
    attempted: u64,
    failed: u64,
    job_ms: Vec<f64>,
    /// Result-level counts of the simulate stage.
    counts: Counts,
    /// Engine counters of the simulate stage.
    engine: EngineProfile,
    /// Traces generated in the gen stage.
    generated: Vec<SharedTrace>,
    /// Traced (and observed) run time over the plain runs of the same
    /// jobs; `observed-run` only, 0 elsewhere.
    tracing_overhead_x: f64,
    obs_overhead_x: f64,
}

fn catch<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

impl Bench {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Bench) -> T) -> (T, f64) {
        if let Some(s) = &mut self.spans {
            s.begin(name);
        }
        // simlint::allow(wall-clock, "benchmark harness: host time is what it measures")
        let start = Instant::now();
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        if let Some(s) = &mut self.spans {
            s.end();
        }
        (out, secs)
    }

    fn stage<T>(&mut self, stage: Stage, f: impl FnOnce(&mut Bench) -> T) -> T {
        let (out, secs) = self.timed(stage.span(), f);
        self.stage_s[stage as usize] += secs;
        out
    }

    /// Counts one operation; a failed one is reported on stderr.
    fn op(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: operation failed: {what}");
        }
    }

    fn ctx(&self) -> &SweepCtx {
        self.runner.ctx()
    }

    /// Runs one simulation job through the sweep context, as the figure
    /// runners do, and checks its result. Returns the result (`None` if
    /// the job panicked) and the job's host seconds.
    fn job(&mut self, job: SimJob) -> (Option<Arc<SimResult>>, f64) {
        let name = scheme_span(&job.scheme);
        let (r, secs) = self.timed(name, |b| {
            catch(|| b.ctx().run_batch(vec![job]).pop()).flatten()
        });
        self.job_ms.push(secs * 1e3);
        self.op(name, r.as_deref().is_some_and(conserved));
        (r, secs)
    }

    /// Books a simulate-stage result into the per-layer counts.
    fn hold(&mut self, scheme: Scheme, r: &SimResult) {
        self.engine.merge(&r.profile);
        let c = &mut self.counts;
        c.services += r.dma_requests + r.proc_accesses;
        c.wakes += r.wakes;
        c.delayed_firsts += r.delayed_firsts;
        c.page_moves += r.page_moves;
        c.ta_credits += r.slack.as_ref().map_or(0, |s| s.credited);
        if scheme.ta.is_some() {
            c.ta_transfers += r.transfers;
        }
        if let Some(pl) = scheme.pl {
            c.pl_plans += r.horizon.as_ps() / pl.interval.as_ps().max(1);
        }
    }

    fn gen(&mut self, trace: SharedTrace) -> SharedTrace {
        self.generated.push(trace.clone());
        trace
    }

    /// Runs one quick-matrix exhibit through [`SweepRunner::timed`] and
    /// defers its rendering.
    fn exhibit<T: 'static>(
        &mut self,
        name: &'static str,
        run: impl FnOnce(&SweepCtx) -> T,
        render: impl FnOnce(&T) -> String + 'static,
    ) -> Option<Render> {
        let (rows, _) = self.timed(name, |b| catch(|| b.runner.timed(name, run)));
        self.op(name, rows.is_some());
        rows.map(|rows| Box::new(move || render(&rows)) as Render)
    }
}

fn scheme_span(s: &Scheme) -> &'static str {
    match (s.ta.is_some(), s.pl.map(|p| p.groups)) {
        (false, None) => "baseline",
        (true, None) => "DMA-TA",
        (_, Some(2)) => "DMA-TA-PL(2)",
        (_, Some(3)) => "DMA-TA-PL(3)",
        (_, Some(6)) => "DMA-TA-PL(6)",
        _ => "job",
    }
}

/// Conservation: per-chip energy sums to the run's energy within 1e-9
/// relative, and every chip's mode residency sums to the horizon.
fn conserved(r: &SimResult) -> bool {
    let total = r.energy.total_mj();
    let chips: f64 = r
        .per_chip_energy
        .iter()
        .map(EnergyBreakdown::total_mj)
        .sum();
    let energy_ok = (chips - total).abs() <= 1e-9 * total.abs().max(f64::MIN_POSITIVE);
    !r.per_chip_energy.is_empty()
        && energy_ok
        && r.per_chip_residency
            .iter()
            .all(|res| res.total() == r.horizon)
}

fn fig5_schemes(mu: f64) -> [Scheme; 4] {
    [
        Scheme::dma_ta(mu),
        Scheme::dma_ta_pl(mu, 2),
        Scheme::dma_ta_pl(mu, 3),
        Scheme::dma_ta_pl(mu, 6),
    ]
}

/// `storage-sweep` and `database-sweep`: the Figure 5 matrix on two
/// workloads. The scheme jobs are timed one by one; the rows then come
/// from `fig5_ctx`, which must find every job in the memo.
fn fig5_sweep(b: &mut Bench, exp: ExpConfig, workloads: [Workload; 2]) -> Option<String> {
    let config = paper_system();
    let traces = b.stage(Stage::Gen, |b| {
        workloads.map(|w| {
            let t = w.shared_trace(b.ctx(), exp);
            b.gen(t)
        })
    });
    let mus = b.stage(Stage::Calibrate, |b| {
        let mut mus = Vec::new();
        for (w, t) in workloads.iter().zip(&traces) {
            let (base, _) = b.job(SimJob::new(config.clone(), Scheme::baseline(), t.clone()));
            let extra = w.client_extra_latency();
            mus.push(
                base.map(|base| CP_SWEEP.map(|cp| mu_from_baseline(&config, &base, cp, extra))),
            );
        }
        mus
    });
    b.stage(Stage::Simulate, |b| {
        for (t, mus) in traces.iter().zip(&mus) {
            for &mu in mus.iter().flatten() {
                for scheme in fig5_schemes(mu) {
                    if let (Some(r), _) = b.job(SimJob::new(config.clone(), scheme, t.clone())) {
                        b.hold(scheme, &r);
                    }
                }
            }
        }
    });
    b.stage(Stage::Render, |b| {
        let misses = b.runner.memo_stats().misses;
        let rows = catch(|| experiments::fig5_ctx(b.ctx(), exp, &workloads, &CP_SWEEP));
        let replayed = rows.is_some() && b.runner.memo_stats().misses == misses;
        b.op("fig5_ctx re-reads every timed job from the memo", replayed);
        rows.map(|rows| fig5_table(&rows) + &csv::fig5(&rows))
    })
}

/// `observed-run`: OLTP-St plain, then causally traced, then with full
/// observability, so the tracing and observability hooks can be priced
/// against the plain runs of the same jobs.
fn observed_run(b: &mut Bench, exp: ExpConfig) -> Option<String> {
    const CP: f64 = 0.10;
    let config = paper_system();
    let [st, db] = b.stage(Stage::Gen, |b| {
        [Workload::OltpSt, Workload::OltpDb].map(|w| {
            let t = w.shared_trace(b.ctx(), exp);
            b.gen(t)
        })
    });
    let (mu, baselines_s) = b.stage(Stage::Calibrate, |b| {
        let (base, st_s) = b.job(SimJob::new(config.clone(), Scheme::baseline(), st.clone()));
        let (_, db_s) = b.job(SimJob::new(config.clone(), Scheme::baseline(), db));
        let extra = Workload::OltpSt.client_extra_latency();
        let mu = base.map(|base| mu_from_baseline(&config, &base, CP, extra));
        (mu, st_s + db_s)
    });
    let scheme = Scheme::dma_ta_pl(mu?, 2);
    let (traced, observed) = b.stage(Stage::Simulate, |b| {
        let (plain, plain_s) = b.job(SimJob::new(config.clone(), scheme, st));
        if let Some(r) = &plain {
            b.hold(scheme, r);
        }
        let (traced, traced_s) = b.timed("traced_runs_ctx", |b| {
            catch(|| experiments::traced_runs_ctx(b.ctx(), exp, CP, 1 << 20))
        });
        let (observed, observed_s) = b.timed("observed_run_ctx", |b| {
            catch(|| experiments::observed_run_ctx(b.ctx(), exp, CP, 1 << 18))
        });
        b.op("traced_runs_ctx", traced.is_some());
        b.op("observed_run_ctx", observed.is_some());
        // The traced runs are both baselines plus the plain scheme run;
        // the observed run is the plain scheme run.
        let traced_schemes = [Scheme::baseline(), Scheme::baseline(), scheme];
        for (s, run) in traced_schemes.iter().zip(traced.iter().flatten()) {
            b.op("traced run conserves energy", conserved(&run.result));
            b.hold(*s, &run.result);
        }
        if let Some(run) = &observed {
            b.op("observed run conserves energy", conserved(&run.result));
            b.hold(scheme, &run.result);
        }
        b.tracing_overhead_x = traced_s / (baselines_s + plain_s);
        b.obs_overhead_x = observed_s / plain_s;
        Some((traced?, observed?))
    })?;
    b.stage(Stage::Render, |b| {
        let mut out = String::new();
        for run in &traced {
            let a = run.attribution();
            let valid = run
                .result
                .trace
                .as_ref()
                .is_some_and(|t| t.validate().is_ok());
            b.op("span tree valid", valid);
            b.op(
                "attribution buckets sum to energy",
                a.checksum_rel_err() <= 1e-9,
            );
            out.push_str(&a.summary_line());
            out.push('\n');
        }
        let replay = observed
            .result
            .obs
            .as_ref()
            .map(|obs| dmamem::replay_slack(obs.events.iter()));
        let agree = replay.is_some_and(|replay| {
            replay.guarantee_met(observed.t_ref) == observed.result.guarantee_met(observed.t_ref)
        });
        b.op("guarantee verdict replays from the ledger", agree);
        // The summary's `spans` line reports host wall-clock time, so it
        // stays out of the digest.
        let summary = obs_summary_table(&observed);
        for line in summary.lines().filter(|l| !l.starts_with("spans ")) {
            out.push_str(line);
            out.push('\n');
        }
        Some(out)
    })
}

/// Generates every trace the quick-matrix exhibits read from the sweep
/// cache, under the keys the figure runners use, and returns each
/// figure's baseline jobs, tagged with the figure that reads them.
fn quick_traces(b: &mut Bench, exp: ExpConfig) -> Vec<(&'static str, SimJob)> {
    fn key(gen: &dyn Debug, exp: ExpConfig) -> String {
        format!("{gen:?}|{:?}|{}", exp.duration, exp.seed)
    }
    let paper = paper_system();
    let baseline = |config: &SystemConfig, t: &SharedTrace| {
        SimJob::new(config.clone(), Scheme::baseline(), t.clone())
    };
    let mut jobs = Vec::new();
    let shared: Vec<SharedTrace> = Workload::ALL
        .iter()
        .map(|w| {
            let t = w.shared_trace(b.ctx(), exp);
            b.gen(t)
        })
        .collect();
    // Figures 2(b), 5, 6 and 7 read one paper-system baseline per workload.
    jobs.extend(shared.iter().map(|t| ("fig5", baseline(&paper, t))));
    for &rate in &INTENSITY_SWEEP {
        let gen = SyntheticStorageGen {
            transfers_per_ms: rate,
            ..Default::default()
        };
        let t = b
            .ctx()
            .trace(key(&gen, exp), || gen.generate(exp.duration, exp.seed));
        jobs.push(("fig8", baseline(&paper, &b.gen(t))));
    }
    for &n in &PROC_SWEEP {
        let gen = SyntheticDbGen::default().with_proc_per_transfer(n);
        let t = b
            .ctx()
            .trace(key(&gen, exp), || gen.generate(exp.duration, exp.seed));
        jobs.push(("fig9", baseline(&paper, &b.gen(t))));
    }
    for t in &shared[..2] {
        for &rate in &BUS_RATE_SWEEP {
            let config = paper_system().with_buses(3, BusConfig::with_rate(rate));
            jobs.push(("fig10", baseline(&config, t)));
        }
    }
    let groups_config = SystemConfig {
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
    let t = b
        .ctx()
        .trace(key(&gen, exp), || gen.generate(exp.duration, exp.seed));
    jobs.push(("groups", baseline(&groups_config, &b.gen(t))));
    let gen = TpchScanGen::default();
    let t = b
        .ctx()
        .trace(key(&gen, exp), || gen.generate(exp.duration, exp.seed));
    jobs.push(("tpch", baseline(&paper, &b.gen(t))));
    jobs
}

fn breakdown_lines(rows: &[(String, EnergyBreakdown)]) -> String {
    rows.iter()
        .map(|(name, e)| format!("{name}: {}\n{}", breakdown_line(e), csv::breakdown(name, e)))
        .collect()
}

/// `quick-matrix`: every exhibit of `experiments all --quick`, through
/// [`SweepRunner`] and the `bench` renderers, with the traces generated
/// and the baselines simulated ahead of the exhibits.
fn quick_matrix(b: &mut Bench, exp: ExpConfig) -> Option<String> {
    let baselines = b.stage(Stage::Gen, |b| quick_traces(b, exp));
    b.stage(Stage::Calibrate, |b| {
        for (_, job) in &baselines {
            b.job(job.clone());
        }
    });
    let renders = b.stage(Stage::Simulate, |b| {
        let traces_before = b.runner.memo_stats().trace_misses;
        let renders = [
            b.exhibit("table1", |_| experiments::table1_text(), String::clone),
            b.exhibit(
                "table2",
                |ctx| experiments::table2_ctx(ctx, exp),
                |r| table2_rows_text(r),
            ),
            b.exhibit(
                "fig2a",
                |_| (experiments::fig2a(), experiments::fig2a_timeline()),
                |r| format!("{:?}\n{}", r.0, r.1),
            ),
            b.exhibit(
                "fig2b",
                |ctx| experiments::fig2b_ctx(ctx, exp),
                |r| breakdown_lines(r),
            ),
            b.exhibit(
                "fig3",
                |_| (experiments::fig3(), experiments::fig3_timeline()),
                |r| format!("{:?}\n{}", r.0, r.1),
            ),
            b.exhibit(
                "fig4",
                |_| experiments::fig4(exp, 10),
                |r| fig4_table(r) + &csv::fig4(r),
            ),
            b.exhibit(
                "fig5",
                |ctx| experiments::fig5_ctx(ctx, exp, &ALL_WORKLOADS, &CP_SWEEP),
                |r| fig5_table(r) + &csv::fig5(r),
            ),
            b.exhibit(
                "fig6",
                |ctx| experiments::fig6_ctx(ctx, exp, 0.10),
                |r| breakdown_lines(r),
            ),
            b.exhibit(
                "fig7",
                |ctx| experiments::fig7_ctx(ctx, exp, &CP_SWEEP),
                |r| fig7_table(r) + &csv::fig7(r),
            ),
            b.exhibit(
                "fig8",
                |ctx| experiments::fig8_ctx(ctx, exp, &INTENSITY_SWEEP, 0.10),
                |r| fig8_table(r) + &csv::fig8(r),
            ),
            b.exhibit(
                "fig9",
                |ctx| experiments::fig9_ctx(ctx, exp, &PROC_SWEEP, 0.10),
                |r| fig9_table(r) + &csv::fig9(r),
            ),
            b.exhibit(
                "fig10",
                |ctx| experiments::fig10_ctx(ctx, exp, &BUS_RATE_SWEEP, 0.10),
                |r| fig10_table(r) + &csv::fig10(r),
            ),
            b.exhibit(
                "tpch",
                |ctx| experiments::tpch_ctx(ctx, exp, 0.10),
                |r| format!("{r:?}\n"),
            ),
            b.exhibit(
                "groups",
                |ctx| experiments::group_ablation_ctx(ctx, exp, 0.10),
                |r| format!("{r:?}\n"),
            ),
        ];
        let prewarmed = b.runner.memo_stats().trace_misses == traces_before;
        b.op("gen stage generated every cached trace", prewarmed);
        renders
    });
    // The exhibits must have read every calibration baseline from the
    // memo, which proves the stage split moved work without adding any.
    for figure in ["fig5", "fig8", "fig9", "fig10", "groups", "tpch"] {
        let needed = baselines.iter().filter(|(f, _)| *f == figure).count() as u64;
        let hits = b
            .runner
            .timings()
            .iter()
            .find(|t| t.figure == figure)
            .map(|t| t.memo_hits);
        b.op(
            "exhibit reads its calibrated baselines",
            hits.is_some_and(|h| h >= needed),
        );
    }
    for t in b.runner.timings() {
        let p = &t.prof;
        b.engine.events += p.events;
        b.engine.heap_pushes += p.heap_pushes;
        b.engine.heap_pops += p.heap_pops;
        b.engine.max_heap_depth = b.engine.max_heap_depth.max(p.max_heap_depth);
        b.engine.transfers += p.transfers;
        b.engine.requests += p.requests;
        for (phase, &calls) in Phase::ALL.iter().zip(&p.phase_calls) {
            b.engine.phases.note_n(*phase, calls);
        }
    }
    b.stage(Stage::Render, |_| {
        renders
            .into_iter()
            .map(|r| r.map(|render| render()))
            .collect::<Option<Vec<String>>>()
            .map(|parts| parts.concat())
    })
}

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Host speed right now: seconds a fixed kernel takes (median of three
/// runs). The kernel shares no code with the simulator, so the parent can
/// rescale timings to a reference host speed and cancel the host's speed
/// drift. It has two halves because the drift reaches cache-resident and
/// memory-bound code to different degrees: pops and pushes on a small
/// binary heap, like the engine's event loop, and a sort of 2^17 keys
/// into a `BTreeMap`.
fn probe_s() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            // simlint::allow(wall-clock, "benchmark harness: host time is what it measures")
            let start = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> =
                (0..64).map(|i| Reverse((next() % 4096, i))).collect();
            let mut sums = [0u64; 32];
            for i in 0..100_000 {
                if let Some(Reverse((t, id))) = heap.pop() {
                    sums[(id % 32) as usize] += t;
                    heap.push(Reverse((t + next() % 4096, i)));
                }
            }
            let mut keys: Vec<u64> = (0..1 << 17).map(|_| next()).collect();
            keys.sort_unstable();
            let map: BTreeMap<u64, usize> = keys
                .iter()
                .step_by(4)
                .map(|k| k.rotate_left(17))
                .zip(0..)
                .collect();
            black_box((sums, map.len()));
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

/// Peak resident set size of this process in MB (10^6 bytes), from
/// `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer counts of the simulate stage, plus the replay estimates when
/// `replays` is given. Names are `module.metric`.
fn layer_metrics(b: &Bench, replays: Option<&[replay::Replay]>) -> Vec<(String, f64)> {
    let e = &b.engine;
    let c = &b.counts;
    let services = c.services as f64;
    let delayed = c.delayed_firsts as f64;
    let disk_submits = b
        .generated
        .iter()
        .filter(|t| t.key().starts_with(Workload::OltpSt.label()))
        .map(|t| {
            t.trace()
                .iter()
                .filter(|ev| matches!(ev, TraceEvent::Dma(d) if d.source == DmaSource::Disk))
                .count() as u64
        })
        .sum::<u64>() as f64;
    let calls = |phase| e.phases.get(phase).calls as f64;
    let simulate_s = b.stage_s[Stage::Simulate as usize];
    let requests = e.requests as f64;
    let mut jobs = b.job_ms.clone();
    let [job_p50, job_p95] = if jobs.is_empty() {
        [0.0; 2]
    } else {
        jobs.sort_by(f64::total_cmp);
        [0.50, 0.95].map(|q| jobs[((jobs.len() - 1) as f64 * q).round() as usize])
    };
    let memo = b.runner.memo_stats();
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |module: &str, metric: &str, v: f64| m.push((format!("{module}.{metric}"), v));
    for figure in EXHIBITS {
        let t = b.runner.timings().iter().find(|t| t.figure == figure);
        put(
            "bench",
            &format!("figure_s.{figure}"),
            t.map_or(0.0, |t| t.ms / 1e3),
        );
    }
    put("dmamem", "system.events", e.events as f64);
    put(
        "dmamem",
        "system.events_per_request",
        ratio(e.events as f64, requests),
    );
    put(
        "dmamem",
        "system.events_per_s",
        ratio(e.events as f64, simulate_s),
    );
    put(
        "dmamem",
        "system.ns_per_request",
        ratio(simulate_s * 1e9, requests),
    );
    put("dmamem", "system.dispatch_calls", calls(Phase::Dispatch));
    put("dmamem", "system.policy_calls", calls(Phase::Policy));
    put(
        "dmamem",
        "system.transition_calls",
        calls(Phase::Transition),
    );
    put("simcore", "event.pushes", e.heap_pushes as f64);
    put("simcore", "event.pops", e.heap_pops as f64);
    put("simcore", "event.max_depth", e.max_heap_depth as f64);
    put("iobus", "requests", requests);
    put("iobus", "transfers", e.transfers as f64);
    put("mempower", "services", services);
    put("mempower", "wakes", c.wakes as f64);
    put("dmamem", "ta.delayed_firsts", delayed);
    put(
        "dmamem",
        "ta.delayed_frac",
        ratio(delayed, c.ta_transfers as f64),
    );
    put("dmamem", "pl.page_moves", c.page_moves as f64);
    put("dmamem", "sweep.memo_hits", memo.hits as f64);
    put("dmamem", "sweep.memo_misses", memo.misses as f64);
    put("dmamem", "sweep.trace_hits", memo.trace_hits as f64);
    put("dmamem", "sweep.job_ms_p50", job_p50);
    put("dmamem", "sweep.job_ms_p95", job_p95);
    put("dmamem", "sweep.job_samples", b.job_ms.len() as f64);
    let trace_events = b.generated.iter().map(|t| t.trace().len()).sum::<usize>();
    put("dma_trace", "events", trace_events as f64);
    put("disksim", "submits", disk_submits);
    put("dmamem", "tracing.overhead_x", b.tracing_overhead_x);
    put("dmamem", "obs.overhead_x", b.obs_overhead_x);
    if let Some(replays) = replays {
        let mut explained = 0.0;
        for r in replays {
            // Each layer's operation count in the simulate stage; disksim
            // runs during trace generation instead.
            let (count, stage_s) = match (r.module, r.layer) {
                ("simcore", _) => (e.heap_pops as f64, simulate_s),
                ("iobus", _) => (requests, simulate_s),
                ("mempower", "service.") => (services, simulate_s),
                ("mempower", _) => (calls(Phase::Transition), simulate_s),
                ("dmamem", "ta.") => (c.ta_credits as f64, simulate_s),
                ("dmamem", _) => (c.pl_plans as f64, simulate_s),
                _ => (disk_submits, b.stage_s[Stage::Gen as usize]),
            };
            let share = ratio(r.ns_per_op * count / 1e9, stage_s);
            if r.module != "disksim" {
                explained += share;
            }
            put(r.module, &format!("{}ns_per_op", r.layer), r.ns_per_op);
            put(r.module, &format!("{}est_share", r.layer), share);
        }
        put("layers", "explained_frac", explained);
    }
    m
}

/// `benchmark child --workload W --seed N --ms M [--trace] [--trace-out FILE]`
pub fn main(args: &[String]) -> ExitCode {
    // The host-speed probe runs before and after the measured span.
    let probe_before = probe_s();
    // simlint::allow(wall-clock, "benchmark harness: host time is what it measures")
    let start = Instant::now();
    let mut name = None;
    let mut seed = 42u64;
    let mut ms = None;
    let mut traced = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => name = it.next().cloned(),
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--ms" => ms = it.next().and_then(|v| v.parse::<u64>().ok()),
            "--trace" => traced = true,
            "--trace-out" => trace_out = it.next().map(PathBuf::from),
            other => {
                eprintln!("benchmark child: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(def) = name.as_deref().and_then(workload) else {
        eprintln!("benchmark child: unknown or missing --workload");
        return ExitCode::FAILURE;
    };
    let ms = ms.unwrap_or(def.ms).max(1);
    let exp = ExpConfig {
        duration: SimDuration::from_ms(ms),
        seed,
    };
    let mut b = Bench {
        runner: SweepRunner::new(1),
        spans: traced.then(|| Spans::new(start)),
        stage_s: [0.0; 4],
        attempted: 0,
        failed: 0,
        job_ms: Vec::new(),
        counts: Counts::default(),
        engine: EngineProfile::default(),
        generated: Vec::new(),
        tracing_overhead_x: 0.0,
        obs_overhead_x: 0.0,
    };
    if let Some(s) = &mut b.spans {
        s.begin("benchmark");
    }
    let rendered = match def.name {
        "storage-sweep" => fig5_sweep(&mut b, exp, [Workload::OltpSt, Workload::SyntheticSt]),
        "database-sweep" => fig5_sweep(&mut b, exp, [Workload::OltpDb, Workload::SyntheticDb]),
        "observed-run" => observed_run(&mut b, exp),
        _ => quick_matrix(&mut b, exp),
    };
    let digest = b.stage(Stage::Render, |b| {
        let digest = rendered.as_deref().map(|text| fnv1a64(text.as_bytes()));
        // Other seeds and lengths have no committed digest; the parent
        // checks that repetitions of the same input render the same one.
        let ok = match digest {
            Some(d) if seed == 42 && ms == def.ms => d == def.digest42,
            Some(_) => true,
            None => false,
        };
        b.op("exhibit digest", ok);
        digest.unwrap_or(0)
    });
    if let Some(s) = &mut b.spans {
        s.end();
    }
    let wall_s = start.elapsed().as_secs_f64();
    let Some(rss) = peak_rss_mb() else {
        eprintln!("benchmark child: cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    };
    let probe = (probe_before + probe_s()) / 2.0;

    let stages: f64 = b.stage_s.iter().sum();
    let requests = b.engine.requests as f64;
    let mut metrics: Vec<(String, f64)> = vec![
        ("wall_s".into(), wall_s),
        ("setup_s".into(), b.stage_s[Stage::Gen as usize]),
        (
            "sim_requests_per_s".into(),
            ratio(requests, b.stage_s[Stage::Simulate as usize]),
        ),
        ("peak_rss_mb".into(), rss),
        ("stages.residual_frac".into(), (wall_s - stages) / wall_s),
    ];
    for stage in Stage::ALL {
        let (module, metric) = stage.metric();
        metrics.push((format!("{module}.{metric}"), b.stage_s[stage as usize]));
    }
    let replays = traced.then(|| {
        let pages: Vec<u64> = b
            .generated
            .first()
            .map(|t| {
                t.trace()
                    .iter()
                    .filter_map(|ev| match ev {
                        TraceEvent::Dma(d) => Some(d.page),
                        TraceEvent::Proc(_) => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        replay::all(b.engine.max_heap_depth.max(1) as usize, &pages)
    });
    metrics.extend(layer_metrics(&b, replays.as_deref()));

    if let Some(spans) = b.spans.take() {
        let valid = spans
            .buf
            .validate()
            .is_ok_and(|s| s.open == 0 && s.dropped == 0);
        b.op("benchmark span tree valid", valid);
        if let Some(path) = &trace_out {
            if let Err(e) = std::fs::write(path, spans.buf.to_chrome_json()) {
                eprintln!("benchmark child: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let mut m = JsonObject::new();
    for (name, v) in &metrics {
        m.field_f64(name, *v);
    }
    let mut out = JsonObject::new();
    out.field_u64("attempted", b.attempted)
        .field_u64("failed", b.failed)
        .field_str("digest", &format!("{digest:016x}"))
        .field_f64("probe_s", probe)
        .field_raw("metrics", &m.finish());
    println!("{}", out.finish());
    ExitCode::SUCCESS
}
