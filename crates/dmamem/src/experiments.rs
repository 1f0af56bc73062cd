//! Experiment runners: one per table and figure of the paper's evaluation.
//!
//! Each function regenerates the data behind a specific exhibit of the
//! paper (Section 5) and returns it as plain rows, so the `bench` crate can
//! print tables.
//!
//! Every simulation-heavy runner comes in two forms: `figN(exp, ...)`, the
//! original serial entry point, and `figN_ctx(&SweepCtx, exp, ...)`, which
//! runs its simulations through the [`crate::sweep`] engine — traces are
//! generated once and shared, baselines repeated across figures are
//! memoized, and independent runs execute in parallel. The serial form
//! delegates to a fresh single-threaded context, so both produce
//! bit-identical rows. The design ablations ([`ablations_ctx`]) come in
//! the context form only.
//!
//! | exhibit | runner |
//! |---|---|
//! | Table 1 (power model)            | [`table1_text`] |
//! | Table 2 (trace characteristics)  | [`table2`] |
//! | Figure 2(a) (cycle waste)        | [`fig2a`] |
//! | Figure 2(b) (energy breakdown)   | [`fig2b`] |
//! | Figure 3 (lockstep alignment)    | [`fig3`] |
//! | Figure 4 (popularity CDF)        | [`fig4`] |
//! | Figure 5 (savings vs CP-Limit)   | [`fig5`] |
//! | Figure 6 (scheme breakdowns)     | [`fig6`] |
//! | Figure 7 (utilization factors)   | [`fig7`] |
//! | Figure 8 (workload intensity)    | [`fig8`] |
//! | Figure 9 (processor accesses)    | [`fig9`] |
//! | Figure 10 (bandwidth ratio)      | [`fig10`] |

use dma_trace::{
    OltpDbGen, OltpStGen, SyntheticDbGen, SyntheticStorageGen, TpchScanGen, Trace, TraceGen,
    TraceStats,
};
use std::sync::Arc;

use iobus::{BusConfig, BusDiscipline};
use mempower::{EnergyBreakdown, PowerMode, PowerModel};
use simcore::obs::SpillSink;
use simcore::SimDuration;

use crate::config::{PlConfig, PolicyKind, Scheme, SystemConfig, TaConfig};
use crate::metrics::SimResult;
use crate::sweep::{SharedTrace, SimJob, SweepCtx};
use crate::system::ServerSimulator;

/// Shared experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Trace length to simulate.
    pub duration: SimDuration,
    /// Workload generator seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            duration: SimDuration::from_ms(20),
            seed: 42,
        }
    }
}

impl ExpConfig {
    /// A fast configuration for smoke tests.
    pub fn quick() -> Self {
        ExpConfig {
            duration: SimDuration::from_ms(2),
            seed: 42,
        }
    }
}

/// The paper's four evaluation workloads (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Real-storage-server stand-in: network + disk DMAs.
    OltpSt,
    /// Synthetic storage workload: Zipf(1), Poisson 100 transfers/ms.
    SyntheticSt,
    /// Database-server stand-in: network DMAs + processor accesses.
    OltpDb,
    /// Synthetic database workload.
    SyntheticDb,
}

impl Workload {
    /// All four workloads, in the paper's order.
    pub const ALL: [Workload; 4] = [
        Workload::OltpSt,
        Workload::SyntheticSt,
        Workload::OltpDb,
        Workload::SyntheticDb,
    ];

    /// The paper's trace name.
    pub fn label(self) -> &'static str {
        match self {
            Workload::OltpSt => "OLTP-St",
            Workload::SyntheticSt => "Synthetic-St",
            Workload::OltpDb => "OLTP-Db",
            Workload::SyntheticDb => "Synthetic-Db",
        }
    }

    /// Generates the workload's trace.
    pub fn generate(self, duration: SimDuration, seed: u64) -> Trace {
        match self {
            Workload::OltpSt => OltpStGen::default().generate(duration, seed),
            Workload::SyntheticSt => SyntheticStorageGen::default().generate(duration, seed),
            Workload::OltpDb => OltpDbGen::default().generate(duration, seed),
            Workload::SyntheticDb => SyntheticDbGen::default().generate(duration, seed),
        }
    }

    /// The workload's trace via the sweep engine's cache: generated once
    /// per `(workload, duration, seed)` and shared across figures.
    pub fn shared_trace(self, ctx: &SweepCtx, exp: ExpConfig) -> SharedTrace {
        ctx.trace(
            format!("{}|{:?}|{}", self.label(), exp.duration, exp.seed),
            || self.generate(exp.duration, exp.seed),
        )
    }

    /// The part of the *client-perceived* response time that lies outside
    /// the memory DMA path. The paper transforms CP-Limit into `mu`
    /// off-line against the full client response (Section 5.1); for storage
    /// workloads that response is dominated by disk time on buffer-cache
    /// misses, for database workloads by query processing.
    ///
    /// Storage: miss_ratio x mean mechanical access of the
    /// [`disksim::DiskParams::server_15k`] model (~7 ms) — ~0.3 x 7 ms for
    /// OLTP-St, ~0.25 x 7 ms for Synthetic-St. Database: ~1 ms of
    /// transaction processing (a light TPC-C transaction).
    pub fn client_extra_latency(self) -> SimDuration {
        let disk = disksim::DiskParams::server_15k();
        let mean_access = disk.seek_time(disk.cylinders / 3)
            + disk.revolution() / 2
            + SimDuration::from_bytes_at_rate(8192, disk.media_bytes_per_sec())
            + disk.controller_overhead;
        match self {
            Workload::OltpSt => mean_access.mul_f64(0.30),
            Workload::SyntheticSt => mean_access.mul_f64(0.25),
            Workload::OltpDb | Workload::SyntheticDb => SimDuration::from_ms(1),
        }
    }
}

/// The simulated system of Section 5.1 (32 RDRAM chips, 3 PCI-X buses).
pub fn paper_system() -> SystemConfig {
    SystemConfig::default()
}

/// Derives `mu` from an already-run baseline: slowing each of a transfer's
/// `q` requests by `mu * T` adds `q * mu * T` to the client response
/// `R_dma + extra`, so a degradation limit `cp` allows
/// `mu = cp * (R_dma + extra) / (q * T)` (the paper's off-line CP-Limit
/// transformation; see also [`crate::calibrate::mu_for_cp_limit`]).
pub fn mu_from_baseline(
    config: &SystemConfig,
    baseline: &SimResult,
    cp_limit: f64,
    extra: SimDuration,
) -> f64 {
    assert!(baseline.transfers > 0, "baseline completed no transfers");
    let q = baseline.dma_requests as f64 / baseline.transfers as f64;
    let r_ns = baseline.transfer_response.mean_ns() + extra.as_ns_f64();
    let t_ns = config.t_request().as_ns_f64();
    cp_limit * r_ns / (q * t_ns)
}

/// Measured client-perceived degradation of `r` versus `baseline`: the
/// added DMA-path latency relative to the full client response
/// (DMA path + `extra`).
pub fn client_degradation(r: &SimResult, baseline: &SimResult, extra: SimDuration) -> f64 {
    let base_ns = baseline.transfer_response.mean_ns() + extra.as_ns_f64();
    if base_ns == 0.0 {
        0.0
    } else {
        (r.transfer_response.mean_ns() - baseline.transfer_response.mean_ns()) / base_ns
    }
}

// ---------------------------------------------------------------------
// Tables

/// Table 1: the RDRAM power model, formatted.
pub fn table1_text() -> String {
    let m = PowerModel::rdram();
    let mut out = String::from("state/transition      power      time\n");
    for mode in PowerMode::ALL {
        out.push_str(&format!(
            "{:<22}{:>6.0} mW         -\n",
            mode.to_string(),
            m.mode_power_mw(mode)
        ));
    }
    for mode in [PowerMode::Standby, PowerMode::Nap, PowerMode::Powerdown] {
        let d = m.down(mode);
        out.push_str(&format!(
            "active -> {:<12}{:>6.0} mW  {:>8}\n",
            mode.to_string(),
            d.power_mw,
            d.latency.to_string()
        ));
    }
    for mode in [PowerMode::Standby, PowerMode::Nap, PowerMode::Powerdown] {
        let w = m.wake(mode);
        out.push_str(&format!(
            "{:<10}-> active  {:>6.0} mW  {:>8}\n",
            mode.to_string(),
            w.power_mw,
            w.latency.to_string()
        ));
    }
    out
}

/// Table 2: measured characteristics of the four generated traces.
pub fn table2(exp: ExpConfig) -> Vec<(String, TraceStats)> {
    table2_ctx(&SweepCtx::serial(), exp)
}

/// [`table2`] on a sweep context: the traces land in the context's cache,
/// so the figure runs that follow reuse them instead of regenerating.
pub fn table2_ctx(ctx: &SweepCtx, exp: ExpConfig) -> Vec<(String, TraceStats)> {
    Workload::ALL
        .iter()
        .map(|w| {
            let t = w.shared_trace(ctx, exp);
            (w.label().to_string(), t.trace().stats())
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 2

/// Figure 2(a) data: cycles per DMA-memory request at the memory chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2a {
    /// Memory cycles spent serving each request.
    pub serving_cycles: f64,
    /// Memory cycles idle before the next request arrives.
    pub idle_cycles: f64,
    /// Measured single-transfer utilization factor.
    pub measured_uf: f64,
}

/// Reproduces the Figure 2(a) analysis: one 8-KB transfer over one PCI-X
/// bus against one RDRAM chip wastes two-thirds of the active cycles.
pub fn fig2a() -> Fig2a {
    let config = paper_system();
    let cycle = SimDuration::from_cycles(1, 1.6e9);
    let serving = config
        .power_model
        .service_time(config.buses[0].request_bytes);
    let period = config.t_request();
    let trace = Trace::from_events(vec![dma_trace::TraceEvent::Dma(dma_trace::DmaRecord {
        time: simcore::SimTime::ZERO,
        bus: 0,
        page: 0,
        bytes: config.page_bytes,
        direction: iobus::DmaDirection::FromMemory,
        source: iobus::DmaSource::Network,
    })]);
    let r = ServerSimulator::new(config, Scheme::baseline()).run(&trace);
    Fig2a {
        serving_cycles: serving.ratio(cycle),
        idle_cycles: (period - serving).ratio(cycle),
        measured_uf: r.utilization_factor(),
    }
}

/// Figure 2(b): baseline energy breakdowns for the storage and database
/// workloads.
pub fn fig2b(exp: ExpConfig) -> Vec<(String, EnergyBreakdown)> {
    fig2b_ctx(&SweepCtx::serial(), exp)
}

/// [`fig2b`] on a sweep context (the two baselines are the same runs
/// Figures 5–7 memoize).
pub fn fig2b_ctx(ctx: &SweepCtx, exp: ExpConfig) -> Vec<(String, EnergyBreakdown)> {
    let workloads = [Workload::OltpSt, Workload::OltpDb];
    let jobs = workloads
        .iter()
        .map(|w| SimJob::new(paper_system(), Scheme::baseline(), w.shared_trace(ctx, exp)))
        .collect();
    workloads
        .iter()
        .zip(ctx.run_batch(jobs))
        .map(|(w, r)| (w.label().to_string(), r.energy.clone()))
        .collect()
}

/// Figure 2(a) as an ASCII timeline: one transfer, one chip, the 4-serving
/// + 8-idle cycle pattern rendered over the first microsecond.
pub fn fig2a_timeline() -> String {
    use simcore::SimTime;
    let config = paper_system();
    let trace = Trace::from_events(vec![dma_trace::TraceEvent::Dma(dma_trace::DmaRecord {
        time: SimTime::ZERO,
        bus: 0,
        page: 0,
        bytes: config.page_bytes,
        direction: iobus::DmaDirection::FromMemory,
        source: iobus::DmaSource::Network,
    })]);
    let window_end = SimTime::ZERO + SimDuration::from_ns(180);
    let r = ServerSimulator::new(config, Scheme::baseline())
        .with_timeline(SimTime::ZERO, window_end)
        .run(&trace);
    r.timeline.expect("timeline requested").render_active(96)
}

// ---------------------------------------------------------------------
// Figure 3

/// Figure 3 demonstration: four staggered transfers from four buses to one
/// chip, baseline versus DMA-TA.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3 {
    /// Utilization factor without alignment.
    pub baseline_uf: f64,
    /// Utilization factor with DMA-TA gathering.
    pub ta_uf: f64,
    /// First requests DMA-TA delayed.
    pub delayed_firsts: u64,
}

/// Reproduces the Figure 3 scenario (four I/O buses, transfers gathered
/// then run in lockstep).
pub fn fig3() -> Fig3 {
    let config = paper_system().with_buses(4, BusConfig::pci_x());
    let mk = |us: u64, bus: usize, page: u64| {
        dma_trace::TraceEvent::Dma(dma_trace::DmaRecord {
            time: simcore::SimTime::ZERO + SimDuration::from_us(us),
            bus,
            page,
            bytes: 8192,
            direction: iobus::DmaDirection::FromMemory,
            source: iobus::DmaSource::Network,
        })
    };
    // Warm-up transfers to a far chip accumulate slack credits (the
    // guarantee account starts empty, so gathering needs earned budget).
    // Then four staggered transfers target chip 0 (pages 0..4 share it
    // under the sequential layout) after it has gone to sleep.
    let mut events: Vec<dma_trace::TraceEvent> = (0..8u64)
        .map(|i| mk(i * 10, (i % 4) as usize, 40_000))
        .collect();
    events.extend([mk(500, 0, 0), mk(502, 1, 1), mk(504, 2, 2), mk(506, 3, 3)]);
    let trace = Trace::from_events(events);
    let baseline = ServerSimulator::new(config.clone(), Scheme::baseline()).run(&trace);
    let ta = ServerSimulator::new(config, Scheme::dma_ta(3.0)).run(&trace);
    Fig3 {
        baseline_uf: baseline.utilization_factor(),
        ta_uf: ta.utilization_factor(),
        delayed_firsts: ta.delayed_firsts,
    }
}

/// Figure 3 as an ASCII timeline: the gathered transfers' lockstep service
/// on the target chip, rendered around the release instant.
pub fn fig3_timeline() -> String {
    use simcore::SimTime;
    let config = paper_system().with_buses(4, BusConfig::pci_x());
    let mk = |us: u64, bus: usize, page: u64| {
        dma_trace::TraceEvent::Dma(dma_trace::DmaRecord {
            time: SimTime::ZERO + SimDuration::from_us(us),
            bus,
            page,
            bytes: 8192,
            direction: iobus::DmaDirection::FromMemory,
            source: iobus::DmaSource::Network,
        })
    };
    let mut events: Vec<dma_trace::TraceEvent> = (0..8u64)
        .map(|i| mk(i * 10, (i % 4) as usize, 40_000))
        .collect();
    events.extend([mk(500, 0, 0), mk(502, 1, 1), mk(504, 2, 2), mk(506, 3, 3)]);
    let trace = Trace::from_events(events);
    let window = (
        SimTime::ZERO + SimDuration::from_us(499),
        SimTime::ZERO + SimDuration::from_us(540),
    );
    let r = ServerSimulator::new(config, Scheme::dma_ta(3.0))
        .with_timeline(window.0, window.1)
        .run(&trace);
    r.timeline.expect("timeline requested").render_active(96)
}

// ---------------------------------------------------------------------
// Figure 4

/// Figure 4: the OLTP-St page-popularity CDF, as `(pages_frac,
/// accesses_frac)` points.
///
/// The CDF only needs the trace, not a simulation, so the workload is
/// generated over a 40x longer window than `exp.duration` (the paper's
/// measured CDF comes from a long production trace; short windows
/// undersample the skew).
pub fn fig4(exp: ExpConfig, points: usize) -> Vec<(f64, f64)> {
    let trace = Workload::OltpSt.generate(exp.duration * 40, exp.seed);
    trace.popularity_cdf().points(points)
}

// ---------------------------------------------------------------------
// Figure 5

/// One point of Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Workload name.
    pub workload: String,
    /// CP-Limit (fractional, e.g. 0.10).
    pub cp_limit: f64,
    /// Scheme label.
    pub scheme: String,
    /// Energy savings versus baseline (fractional).
    pub savings: f64,
    /// Measured client-perceived response degradation (fractional).
    pub degradation: f64,
    /// Whether measured degradation stayed within CP-Limit (+measurement
    /// tolerance).
    pub within_limit: bool,
}

/// Figure 5: energy savings versus CP-Limit for DMA-TA and DMA-TA-PL with
/// 2/3/6 groups, over the given workloads.
pub fn fig5(exp: ExpConfig, workloads: &[Workload], cp_limits: &[f64]) -> Vec<Fig5Row> {
    fig5_ctx(&SweepCtx::serial(), exp, workloads, cp_limits)
}

/// [`fig5`] on a sweep context: one memoized baseline per workload (wave
/// one), then every `(workload, CP-Limit, scheme)` point in parallel
/// (wave two).
pub fn fig5_ctx(
    ctx: &SweepCtx,
    exp: ExpConfig,
    workloads: &[Workload],
    cp_limits: &[f64],
) -> Vec<Fig5Row> {
    let config = paper_system();
    let traces: Vec<SharedTrace> = workloads.iter().map(|w| w.shared_trace(ctx, exp)).collect();
    let baselines = ctx.run_batch(
        traces
            .iter()
            .map(|t| SimJob::new(config.clone(), Scheme::baseline(), t.clone()))
            .collect(),
    );
    let mut jobs = Vec::new();
    let mut points = Vec::new();
    for ((wi, &w), trace) in workloads.iter().enumerate().zip(&traces) {
        let extra = w.client_extra_latency();
        for &cp in cp_limits {
            let mu = mu_from_baseline(&config, &baselines[wi], cp, extra);
            for scheme in [
                Scheme::dma_ta(mu),
                Scheme::dma_ta_pl(mu, 2),
                Scheme::dma_ta_pl(mu, 3),
                Scheme::dma_ta_pl(mu, 6),
            ] {
                jobs.push(SimJob::new(config.clone(), scheme, trace.clone()));
                points.push((wi, w, cp, scheme, extra));
            }
        }
    }
    points
        .into_iter()
        .zip(ctx.run_batch(jobs))
        .map(|((wi, w, cp, scheme, extra), r)| {
            let degradation = client_degradation(&r, &baselines[wi], extra);
            Fig5Row {
                workload: w.label().to_string(),
                cp_limit: cp,
                scheme: scheme.label(),
                savings: r.savings_vs(&baselines[wi]),
                degradation,
                within_limit: degradation <= cp + 0.02,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 6

/// Figure 6: energy breakdowns of baseline, DMA-TA, and DMA-TA-PL(2) for
/// OLTP-St at the given CP-Limit (the paper uses 10 %).
pub fn fig6(exp: ExpConfig, cp_limit: f64) -> Vec<(String, EnergyBreakdown)> {
    fig6_ctx(&SweepCtx::serial(), exp, cp_limit)
}

/// [`fig6`] on a sweep context (shares the OLTP-St baseline with Figures
/// 5 and 7).
pub fn fig6_ctx(ctx: &SweepCtx, exp: ExpConfig, cp_limit: f64) -> Vec<(String, EnergyBreakdown)> {
    let config = paper_system();
    let trace = Workload::OltpSt.shared_trace(ctx, exp);
    let extra = Workload::OltpSt.client_extra_latency();
    let baseline = ctx.run(&config, Scheme::baseline(), &trace);
    let mu = mu_from_baseline(&config, &baseline, cp_limit, extra);
    let schemes = ctx.run_batch(vec![
        SimJob::new(config.clone(), Scheme::dma_ta(mu), trace.clone()),
        SimJob::new(config, Scheme::dma_ta_pl(mu, 2), trace),
    ]);
    vec![
        ("baseline".into(), baseline.energy.clone()),
        ("DMA-TA".into(), schemes[0].energy.clone()),
        ("DMA-TA-PL(2)".into(), schemes[1].energy.clone()),
    ]
}

// ---------------------------------------------------------------------
// Figure 7

/// One point of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// CP-Limit.
    pub cp_limit: f64,
    /// Baseline utilization factor (~1/3).
    pub uf_baseline: f64,
    /// DMA-TA utilization factor.
    pub uf_ta: f64,
    /// DMA-TA-PL(2) utilization factor.
    pub uf_tapl: f64,
}

/// Figure 7: utilization factors versus CP-Limit for OLTP-St.
pub fn fig7(exp: ExpConfig, cp_limits: &[f64]) -> Vec<Fig7Row> {
    fig7_ctx(&SweepCtx::serial(), exp, cp_limits)
}

/// [`fig7`] on a sweep context (shares the OLTP-St baseline and, at
/// matching CP-Limits, the DMA-TA / DMA-TA-PL(2) runs with Figure 5).
pub fn fig7_ctx(ctx: &SweepCtx, exp: ExpConfig, cp_limits: &[f64]) -> Vec<Fig7Row> {
    let config = paper_system();
    let trace = Workload::OltpSt.shared_trace(ctx, exp);
    let extra = Workload::OltpSt.client_extra_latency();
    let baseline = ctx.run(&config, Scheme::baseline(), &trace);
    let mut jobs = Vec::new();
    for &cp in cp_limits {
        let mu = mu_from_baseline(&config, &baseline, cp, extra);
        jobs.push(SimJob::new(
            config.clone(),
            Scheme::dma_ta(mu),
            trace.clone(),
        ));
        jobs.push(SimJob::new(
            config.clone(),
            Scheme::dma_ta_pl(mu, 2),
            trace.clone(),
        ));
    }
    let results = ctx.run_batch(jobs);
    cp_limits
        .iter()
        .zip(results.chunks(2))
        .map(|(&cp, pair)| Fig7Row {
            cp_limit: cp,
            uf_baseline: baseline.utilization_factor(),
            uf_ta: pair[0].utilization_factor(),
            uf_tapl: pair[1].utilization_factor(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 8

/// One point of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Row {
    /// DMA transfer arrival rate (per ms).
    pub transfers_per_ms: f64,
    /// DMA-TA savings versus baseline.
    pub savings_ta: f64,
    /// DMA-TA-PL(2) savings versus baseline.
    pub savings_tapl: f64,
}

/// Figure 8: energy savings versus workload intensity (Synthetic-St with
/// varying arrival rate; CP-Limit fixed, paper uses 10 %).
pub fn fig8(exp: ExpConfig, rates: &[f64], cp_limit: f64) -> Vec<Fig8Row> {
    fig8_ctx(&SweepCtx::serial(), exp, rates, cp_limit)
}

/// [`fig8`] on a sweep context: per-rate baselines in wave one, the
/// DMA-TA / DMA-TA-PL(2) pairs in wave two.
pub fn fig8_ctx(ctx: &SweepCtx, exp: ExpConfig, rates: &[f64], cp_limit: f64) -> Vec<Fig8Row> {
    let config = paper_system();
    let extra = Workload::SyntheticSt.client_extra_latency();
    let traces: Vec<SharedTrace> = rates
        .iter()
        .map(|&rate| {
            let gen = SyntheticStorageGen {
                transfers_per_ms: rate,
                ..Default::default()
            };
            ctx.trace(format!("{gen:?}|{:?}|{}", exp.duration, exp.seed), || {
                gen.generate(exp.duration, exp.seed)
            })
        })
        .collect();
    let baselines = ctx.run_batch(
        traces
            .iter()
            .map(|t| SimJob::new(config.clone(), Scheme::baseline(), t.clone()))
            .collect(),
    );
    let mut jobs = Vec::new();
    for (trace, baseline) in traces.iter().zip(&baselines) {
        let mu = mu_from_baseline(&config, baseline, cp_limit, extra);
        jobs.push(SimJob::new(
            config.clone(),
            Scheme::dma_ta(mu),
            trace.clone(),
        ));
        jobs.push(SimJob::new(
            config.clone(),
            Scheme::dma_ta_pl(mu, 2),
            trace.clone(),
        ));
    }
    let results = ctx.run_batch(jobs);
    rates
        .iter()
        .zip(&baselines)
        .zip(results.chunks(2))
        .map(|((&rate, baseline), pair)| Fig8Row {
            transfers_per_ms: rate,
            savings_ta: pair[0].savings_vs(baseline),
            savings_tapl: pair[1].savings_vs(baseline),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 9

/// One point of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Row {
    /// Mean processor accesses per DMA transfer.
    pub proc_per_transfer: f64,
    /// DMA-TA savings versus baseline.
    pub savings_ta: f64,
    /// DMA-TA-PL(2) savings versus baseline.
    pub savings_tapl: f64,
}

/// Figure 9: energy savings versus processor accesses per transfer
/// (Synthetic-Db with injected processor bursts; CP-Limit fixed).
pub fn fig9(exp: ExpConfig, counts: &[f64], cp_limit: f64) -> Vec<Fig9Row> {
    fig9_ctx(&SweepCtx::serial(), exp, counts, cp_limit)
}

/// [`fig9`] on a sweep context: per-intensity baselines in wave one, the
/// DMA-TA / DMA-TA-PL(2) pairs in wave two.
pub fn fig9_ctx(ctx: &SweepCtx, exp: ExpConfig, counts: &[f64], cp_limit: f64) -> Vec<Fig9Row> {
    let config = paper_system();
    let extra = Workload::SyntheticDb.client_extra_latency();
    let traces: Vec<SharedTrace> = counts
        .iter()
        .map(|&n| {
            let gen = SyntheticDbGen::default().with_proc_per_transfer(n);
            ctx.trace(format!("{gen:?}|{:?}|{}", exp.duration, exp.seed), || {
                gen.generate(exp.duration, exp.seed)
            })
        })
        .collect();
    let baselines = ctx.run_batch(
        traces
            .iter()
            .map(|t| SimJob::new(config.clone(), Scheme::baseline(), t.clone()))
            .collect(),
    );
    let mut jobs = Vec::new();
    for (trace, baseline) in traces.iter().zip(&baselines) {
        let mu = mu_from_baseline(&config, baseline, cp_limit, extra);
        jobs.push(SimJob::new(
            config.clone(),
            Scheme::dma_ta(mu),
            trace.clone(),
        ));
        jobs.push(SimJob::new(
            config.clone(),
            Scheme::dma_ta_pl(mu, 2),
            trace.clone(),
        ));
    }
    let results = ctx.run_batch(jobs);
    counts
        .iter()
        .zip(&baselines)
        .zip(results.chunks(2))
        .map(|((&n, baseline), pair)| Fig9Row {
            proc_per_transfer: n,
            savings_ta: pair[0].savings_vs(baseline),
            savings_tapl: pair[1].savings_vs(baseline),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 10

/// One point of Figure 10.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// Workload name.
    pub workload: String,
    /// Memory-to-I/O bandwidth ratio.
    pub ratio: f64,
    /// DMA-TA savings versus baseline.
    pub savings_ta: f64,
    /// DMA-TA-PL(2) savings versus baseline.
    pub savings_tapl: f64,
}

/// Figure 10: energy savings versus the ratio between memory and I/O bus
/// bandwidth. Memory stays at 3.2 GB/s while the bus rate sweeps
/// (paper: 0.5, 1.064, 2, 3 GB/s), for OLTP-St and Synthetic-St.
pub fn fig10(exp: ExpConfig, bus_rates: &[f64], cp_limit: f64) -> Vec<Fig10Row> {
    fig10_ctx(&SweepCtx::serial(), exp, bus_rates, cp_limit)
}

/// [`fig10`] on a sweep context: one baseline per `(workload, bus rate)`
/// in wave one, the scheme pairs in wave two.
pub fn fig10_ctx(
    ctx: &SweepCtx,
    exp: ExpConfig,
    bus_rates: &[f64],
    cp_limit: f64,
) -> Vec<Fig10Row> {
    let workloads = [Workload::OltpSt, Workload::SyntheticSt];
    let mut points = Vec::new();
    for &w in &workloads {
        let trace = w.shared_trace(ctx, exp);
        for &rate in bus_rates {
            let config = paper_system().with_buses(3, BusConfig::with_rate(rate));
            points.push((w, rate, config, trace.clone()));
        }
    }
    let baselines = ctx.run_batch(
        points
            .iter()
            .map(|(_, _, config, trace)| {
                SimJob::new(config.clone(), Scheme::baseline(), trace.clone())
            })
            .collect(),
    );
    let mut jobs = Vec::new();
    for ((w, _, config, trace), baseline) in points.iter().zip(&baselines) {
        let mu = mu_from_baseline(config, baseline, cp_limit, w.client_extra_latency());
        jobs.push(SimJob::new(
            config.clone(),
            Scheme::dma_ta(mu),
            trace.clone(),
        ));
        jobs.push(SimJob::new(
            config.clone(),
            Scheme::dma_ta_pl(mu, 2),
            trace.clone(),
        ));
    }
    let results = ctx.run_batch(jobs);
    points
        .iter()
        .zip(&baselines)
        .zip(results.chunks(2))
        .map(|(((w, rate, _, _), baseline), pair)| Fig10Row {
            workload: w.label().to_string(),
            ratio: 3.2e9 / rate,
            savings_ta: pair[0].savings_vs(baseline),
            savings_tapl: pair[1].savings_vs(baseline),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Group-structure ablation

/// One row of the PL group-count ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAblationRow {
    /// Number of PL groups.
    pub groups: usize,
    /// Energy savings versus baseline.
    pub savings: f64,
    /// Page moves performed.
    pub page_moves: u64,
}

/// PL group-count ablation on a scaled system.
///
/// On the paper's full-size chips (4096 frames each) a millisecond-scale
/// trace's hot set fits inside one chip, so the exponential group structure
/// degenerates and K barely matters (see DESIGN.md). This ablation shrinks
/// the chips to 64 frames and flattens the popularity skew (Zipf 0.5) so
/// the hot set spans several chips, recovering the paper's Figure 5 group
/// effect: more groups force strict ordering across more boundaries, and
/// rank fluctuations across them pay increasing migration churn — K = 2
/// migrates least.
pub fn group_ablation(exp: ExpConfig, cp_limit: f64) -> Vec<GroupAblationRow> {
    group_ablation_ctx(&SweepCtx::serial(), exp, cp_limit)
}

/// [`group_ablation`] on a sweep context.
pub fn group_ablation_ctx(ctx: &SweepCtx, exp: ExpConfig, cp_limit: f64) -> Vec<GroupAblationRow> {
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
    let trace = ctx.trace(format!("{gen:?}|{:?}|{}", exp.duration, exp.seed), || {
        gen.generate(exp.duration, exp.seed)
    });
    let baseline = ctx.run(&config, Scheme::baseline(), &trace);
    let extra = Workload::SyntheticSt.client_extra_latency();
    let mu = mu_from_baseline(&config, &baseline, cp_limit, extra);
    let groups = [2usize, 3, 6];
    let results = ctx.run_batch(
        groups
            .iter()
            .map(|&g| SimJob::new(config.clone(), Scheme::dma_ta_pl(mu, g), trace.clone()))
            .collect(),
    );
    groups
        .iter()
        .zip(results)
        .map(|(&groups, r)| GroupAblationRow {
            groups,
            savings: r.savings_vs(&baseline),
            page_moves: r.page_moves,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Design ablations

/// One row of an [`Ablation`]: a Synthetic-St run under one setting.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The setting, e.g. `dynamic x0.5` or `gate >= 8`.
    pub label: String,
    /// For a DMA-TA or DMA-TA-PL row, the `mu` derived from the row
    /// configuration's own baseline at 10 % CP-Limit; `None` for a
    /// baseline row.
    pub mu: Option<f64>,
    /// Energy savings versus the row configuration's baseline (0 for a
    /// baseline row).
    pub savings: f64,
    /// The run.
    pub result: Arc<SimResult>,
}

/// One design ablation: a parameter swept over a few settings.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// What is swept, and what the rows measure.
    pub title: &'static str,
    /// One row per setting, in sweep order.
    pub rows: Vec<AblationRow>,
}

/// The design ablations DESIGN.md cites, on Synthetic-St: low-level
/// policy thresholds, DMA-TA epoch length, DMA request size, bus
/// discipline, static versus dynamic low-level policy, the PL hot-traffic
/// target `p`, the migration cost-benefit gate and the migration chunk
/// size.
///
/// Each ablation runs its configurations' baselines, then its settings
/// as one batch; scheme settings run at the `mu` their configuration's
/// baseline gives at 10 % CP-Limit. Baselines shared between ablations
/// come from the context's memo.
pub fn ablations_ctx(ctx: &SweepCtx, exp: ExpConfig) -> Vec<Ablation> {
    let trace = Workload::SyntheticSt.shared_trace(ctx, exp);
    let extra = Workload::SyntheticSt.client_extra_latency();
    // A setting runs `scheme` on `config`; a scheme's `mu` is filled in
    // from the configuration's baseline.
    let ablate = |title: &'static str, settings: Vec<(String, SystemConfig, Scheme)>| {
        let baselines = ctx.run_batch(
            settings
                .iter()
                .map(|(_, config, _)| {
                    SimJob::new(config.clone(), Scheme::baseline(), trace.clone())
                })
                .collect(),
        );
        let mut mus = Vec::new();
        let mut jobs = Vec::new();
        for ((_, config, scheme), baseline) in settings.iter().zip(&baselines) {
            let mut scheme = *scheme;
            let mu = scheme.ta.as_mut().map(|ta| {
                ta.mu = mu_from_baseline(config, baseline, 0.10, extra);
                ta.mu
            });
            mus.push(mu);
            jobs.push(SimJob::new(config.clone(), scheme, trace.clone()));
        }
        let rows = settings
            .into_iter()
            .zip(mus)
            .zip(baselines.iter().zip(ctx.run_batch(jobs)))
            .map(|(((label, _, _), mu), (baseline, result))| AblationRow {
                label,
                mu,
                savings: result.savings_vs(baseline),
                result,
            })
            .collect();
        Ablation { title, rows }
    };
    let base = Scheme::baseline();
    let ta = |ta: TaConfig| Scheme {
        ta: Some(ta),
        pl: None,
    };
    let tapl = |pl: PlConfig| Scheme {
        ta: Some(TaConfig::new(0.0)),
        pl: Some(pl),
    };
    let with_policy = |policy: PolicyKind| SystemConfig {
        policy,
        ..paper_system()
    };
    let with_bus = |bus: BusConfig| paper_system().with_buses(3, bus);
    vec![
        ablate(
            "low-level policy thresholds (baseline energy)",
            [
                ("dynamic x0.5", PolicyKind::Dynamic { scale: 0.5 }),
                ("dynamic x1.0", PolicyKind::Dynamic { scale: 1.0 }),
                ("dynamic x2.0", PolicyKind::Dynamic { scale: 2.0 }),
                ("self-tuning", PolicyKind::SelfTuning),
            ]
            .map(|(label, p)| (label.to_string(), with_policy(p), base))
            .to_vec(),
        ),
        ablate(
            "DMA-TA epoch length (savings at 10% CP)",
            [1u64, 5, 20]
                .map(|us| {
                    let epoch = SimDuration::from_us(us);
                    let scheme = ta(TaConfig {
                        epoch,
                        ..TaConfig::new(0.0)
                    });
                    (format!("epoch {us:>2} us"), paper_system(), scheme)
                })
                .to_vec(),
        ),
        ablate(
            "DMA-memory request size (baseline uf)",
            [8u64, 64]
                .map(|bytes| {
                    let config = with_bus(BusConfig::pci_x().with_request_bytes(bytes));
                    (format!("{bytes:>2}-byte requests"), config, base)
                })
                .to_vec(),
        ),
        ablate(
            "bus discipline (baseline energy; DMA-TA savings at 10% CP)",
            [
                ("per-engine", BusDiscipline::PerEngine),
                ("strict TDM", BusDiscipline::TimeDivision),
            ]
            .into_iter()
            .flat_map(|(label, d)| {
                let config = with_bus(BusConfig::pci_x().with_discipline(d));
                [
                    (label.to_string(), config.clone(), base),
                    (format!("{label} DMA-TA"), config, ta(TaConfig::new(0.0))),
                ]
            })
            .collect(),
        ),
        ablate(
            "static vs dynamic low-level policy (baseline energy)",
            [
                ("static nap", PolicyKind::Static(PowerMode::Nap)),
                ("static powerdown", PolicyKind::Static(PowerMode::Powerdown)),
                ("dynamic", PolicyKind::Dynamic { scale: 1.0 }),
            ]
            .map(|(label, p)| (label.to_string(), with_policy(p), base))
            .to_vec(),
        ),
        ablate(
            "PL hot-traffic target p (DMA-TA-PL(2) savings at 10% CP)",
            [0.4, 0.6, 0.8]
                .map(|p| {
                    let scheme = tapl(PlConfig {
                        p,
                        ..PlConfig::new(2)
                    });
                    (format!("p = {p:.1}"), paper_system(), scheme)
                })
                .to_vec(),
        ),
        ablate(
            "migration cost-benefit gate (DMA-TA-PL(2) at 10% CP)",
            [0u32, 2, 8]
                .map(|gate| {
                    let scheme = tapl(PlConfig {
                        min_count_to_migrate: gate,
                        ..PlConfig::new(2)
                    });
                    (format!("gate >= {gate}"), paper_system(), scheme)
                })
                .to_vec(),
        ),
        ablate(
            "migration chunk size (Section 4.2.2 hiding; DMA-TA-PL(2) at 10% CP)",
            [8192u64, 64, 8]
                .map(|chunk| {
                    let scheme = tapl(PlConfig {
                        migration_chunk_bytes: chunk,
                        ..PlConfig::new(2)
                    });
                    (format!("{chunk:>4}-byte chunks"), paper_system(), scheme)
                })
                .to_vec(),
        ),
    ]
}

// ---------------------------------------------------------------------
// TPC-H extension (paper future work)

/// One row of the TPC-H scan experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TpchRow {
    /// Scheme label.
    pub scheme: String,
    /// Energy savings versus baseline.
    pub savings: f64,
    /// Pages migrated.
    pub page_moves: u64,
    /// Utilization factor.
    pub uf: f64,
}

/// The paper's future-work workload: TPC-H-style concurrent sequential
/// scans. Popularity is nearly uniform, so PL has little to concentrate —
/// its migrations should stay near zero (the cost-benefit gate and the
/// sparse per-interval counts see no stable hot set) while DMA-TA still
/// aligns scans that collide on a chip.
pub fn tpch(exp: ExpConfig, cp_limit: f64) -> Vec<TpchRow> {
    tpch_ctx(&SweepCtx::serial(), exp, cp_limit)
}

/// [`tpch`] on a sweep context.
pub fn tpch_ctx(ctx: &SweepCtx, exp: ExpConfig, cp_limit: f64) -> Vec<TpchRow> {
    let config = paper_system();
    let gen = TpchScanGen::default();
    let trace = ctx.trace(format!("{gen:?}|{:?}|{}", exp.duration, exp.seed), || {
        gen.generate(exp.duration, exp.seed)
    });
    let baseline = ctx.run(&config, Scheme::baseline(), &trace);
    // Scan service is memory-resident; client response ~ the transfer path.
    let mu = mu_from_baseline(&config, &baseline, cp_limit, SimDuration::from_ms(1));
    let schemes = [Scheme::dma_ta(mu), Scheme::dma_ta_pl(mu, 2)];
    let results = ctx.run_batch(
        schemes
            .iter()
            .map(|&s| SimJob::new(config.clone(), s, trace.clone()))
            .collect(),
    );
    schemes
        .iter()
        .zip(results)
        .map(|(scheme, r)| TpchRow {
            scheme: scheme.label(),
            savings: r.savings_vs(&baseline),
            page_moves: r.page_moves,
            uf: r.utilization_factor(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Observability

/// An observability-instrumented run (see
/// [`crate::ServerSimulator::with_observability`]): metrics registry and
/// structured event sink enabled.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// Workload label.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// The `mu` budget derived from the baseline at the CP-Limit.
    pub mu: f64,
    /// Reference request time the guarantee is measured against.
    pub t_ref: SimDuration,
    /// The instrumented result; `result.obs` is always `Some`.
    pub result: SimResult,
}

/// Runs the paper's OLTP-St workload under DMA-TA-PL(2) with full
/// observability. The scheme exercises every event family — power-mode
/// transitions, TA gather/release decisions, the slack ledger, and PL page
/// migrations — so its export is the canonical audit-trail sample.
pub fn observed_run(exp: ExpConfig, cp_limit: f64, event_capacity: usize) -> ObservedRun {
    observed_run_ctx(&SweepCtx::serial(), exp, cp_limit, event_capacity)
}

/// [`observed_run`] on a sweep context. The baseline and trace come from
/// the shared caches; the instrumented run itself stays outside the memo
/// (its observability state makes it unlike the plain figure runs).
pub fn observed_run_ctx(
    ctx: &SweepCtx,
    exp: ExpConfig,
    cp_limit: f64,
    event_capacity: usize,
) -> ObservedRun {
    let config = paper_system();
    let trace = Workload::OltpSt.shared_trace(ctx, exp);
    let extra = Workload::OltpSt.client_extra_latency();
    let baseline = ctx.run(&config, Scheme::baseline(), &trace);
    let mu = mu_from_baseline(&config, &baseline, cp_limit, extra);
    let mut sim = ServerSimulator::new(config.clone(), Scheme::dma_ta_pl(mu, 2))
        .with_observability(event_capacity);
    if let Some(live) = ctx.live() {
        sim = sim.with_live(std::sync::Arc::clone(live));
    }
    let result = sim.run(trace.trace());
    ObservedRun {
        workload: Workload::OltpSt.label().to_string(),
        scheme: result.scheme.clone(),
        mu,
        t_ref: config.t_request(),
        result,
    }
}

// ---------------------------------------------------------------------
// Causal tracing and energy-waste attribution

/// One causally-traced run (see
/// [`crate::ServerSimulator::with_tracing`]): `result.trace` is always
/// `Some` and carries the transfer span forest.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Workload label.
    pub workload: String,
    /// The traced result.
    pub result: SimResult,
}

impl TracedRun {
    /// The run's energy-waste attribution (run-level and per-chip
    /// buckets; see [`crate::tracing::RunAttribution`]).
    pub fn attribution(&self) -> crate::tracing::RunAttribution {
        crate::tracing::RunAttribution::from_result(&self.workload, &self.result)
    }
}

/// Runs the Figure-2 workloads (OLTP-St, OLTP-Db) under the baseline
/// scheme, plus OLTP-St under DMA-TA-PL(2) at the given CP-Limit so
/// gather/release causality shows up in the trace, all with
/// transfer-level tracing into a `capacity`-record span ring.
///
/// Baselines and traces come from the context's shared caches; the
/// traced runs themselves stay outside the memo (like
/// [`observed_run_ctx`], their instrumentation makes them unlike the
/// plain figure runs), so the exported trace is byte-identical for any
/// worker-thread count.
pub fn traced_runs_ctx(
    ctx: &SweepCtx,
    exp: ExpConfig,
    cp_limit: f64,
    capacity: usize,
) -> Vec<TracedRun> {
    traced_runs_spill_ctx(ctx, exp, cp_limit, capacity, None)
}

/// [`traced_runs_ctx`] with bounded-memory spill armed on the final
/// DMA-TA-PL(2) run (the one whose trace `--trace-out` exports): records
/// displaced from the `capacity`-record ring stream to `spill` instead
/// of being dropped. The baseline-traced runs keep the plain ring — only
/// the exported trace needs the full record stream.
pub fn traced_runs_spill_ctx(
    ctx: &SweepCtx,
    exp: ExpConfig,
    cp_limit: f64,
    capacity: usize,
    spill: Option<SpillSink>,
) -> Vec<TracedRun> {
    let config = paper_system();
    let mut runs = Vec::new();
    for w in [Workload::OltpSt, Workload::OltpDb] {
        let trace = w.shared_trace(ctx, exp);
        let mut sim =
            ServerSimulator::new(config.clone(), Scheme::baseline()).with_tracing(capacity, None);
        if let Some(live) = ctx.live() {
            sim = sim.with_live(std::sync::Arc::clone(live));
        }
        let result = sim.run(trace.trace());
        runs.push(TracedRun {
            workload: w.label().to_string(),
            result,
        });
    }
    let trace = Workload::OltpSt.shared_trace(ctx, exp);
    let extra = Workload::OltpSt.client_extra_latency();
    let baseline = ctx.run(&config, Scheme::baseline(), &trace);
    let mu = mu_from_baseline(&config, &baseline, cp_limit, extra);
    let mut sim = ServerSimulator::new(config.clone(), Scheme::dma_ta_pl(mu, 2))
        .with_tracing(capacity, spill);
    if let Some(live) = ctx.live() {
        sim = sim.with_live(std::sync::Arc::clone(live));
    }
    let result = sim.run(trace.trace());
    runs.push(TracedRun {
        workload: Workload::OltpSt.label().to_string(),
        result,
    });
    runs
}

/// A system sized so the baseline's active-idle-during-DMA share lands
/// in the paper's measured 48–51 % band (Figure 2(b)): 4 chips holding
/// an 8192-page working set. The default 32-chip system spreads the same
/// load so thin that per-chip DMA inter-arrival gaps exceed the
/// power-down threshold, capping the share near 35 %; concentrating the
/// working set reproduces the utilization the paper measured.
pub fn fig2b_paper_util_config() -> SystemConfig {
    SystemConfig {
        chips: 4,
        pages: 8192,
        ..SystemConfig::default()
    }
}

/// The OLTP-St trace matching [`fig2b_paper_util_config`]: the client
/// request rate is scaled 1.75x (45 -> 78.75/ms) to hold per-chip load
/// at the paper's operating point on the smaller chip count.
pub fn fig2b_paper_util_trace(exp: ExpConfig) -> Trace {
    OltpStGen {
        client_req_per_ms: 78.75,
        pages: 8192,
        ..OltpStGen::default()
    }
    .generate(exp.duration, exp.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempower::EnergyCategory;

    #[test]
    fn fig2a_matches_paper_analysis() {
        let f = fig2a();
        assert!((f.serving_cycles - 4.0).abs() < 0.1, "{f:?}");
        assert!((f.idle_cycles - 8.0).abs() < 0.2, "{f:?}");
        assert!((f.measured_uf - 1.0 / 3.0).abs() < 0.02, "{f:?}");
    }

    #[test]
    fn fig3_ta_aligns_staggered_transfers() {
        let f = fig3();
        assert!(f.delayed_firsts >= 2, "{f:?}");
        assert!(f.ta_uf > f.baseline_uf + 0.05, "{f:?}");
    }

    #[test]
    fn table1_lists_all_states() {
        let t = table1_text();
        for s in ["active", "standby", "nap", "powerdown", "300", "6us"] {
            assert!(t.contains(s), "missing {s} in:\n{t}");
        }
    }

    #[test]
    fn table2_covers_all_workloads() {
        let rows = table2(ExpConfig::quick());
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|(_, s)| s.dma_transfers() > 0));
    }

    #[test]
    fn fig2b_idle_dma_dominates_threshold() {
        let rows = fig2b(ExpConfig::quick());
        for (name, e) in rows {
            let idle = e.fraction(EnergyCategory::ActiveIdleDma);
            let threshold = e.fraction(EnergyCategory::ActiveIdleThreshold);
            assert!(
                idle > threshold,
                "{name}: idle {idle} vs threshold {threshold}"
            );
        }
    }

    #[test]
    fn fig5_smoke_produces_expected_rows() {
        let rows = fig5(ExpConfig::quick(), &[Workload::SyntheticSt], &[0.10]);
        assert_eq!(rows.len(), 4);
        let ta = rows.iter().find(|r| r.scheme == "DMA-TA").unwrap();
        assert!(ta.savings > -0.05, "TA made things much worse: {ta:?}");
    }

    #[test]
    fn group_ablation_reports_rows_with_churn_ordering() {
        let rows = group_ablation(
            ExpConfig {
                duration: SimDuration::from_ms(20),
                seed: 42,
            },
            0.10,
        );
        assert_eq!(rows.len(), 3);
        // Strict ordering across more group boundaries costs more moves.
        assert!(
            rows[2].page_moves > rows[0].page_moves,
            "K=6 moves {} <= K=2 moves {}",
            rows[2].page_moves,
            rows[0].page_moves
        );
    }

    #[test]
    fn ablations_show_the_sensitivities_design_cites() {
        // 5 ms is one PL interval: the shortest trace on which every PL
        // row migrates pages.
        let ctx = SweepCtx::serial();
        let exp = ExpConfig {
            duration: SimDuration::from_ms(5),
            seed: 42,
        };
        let ablations = ablations_ctx(&ctx, exp);
        // Eight distinct baselines and eleven distinct scheme runs: every
        // repeated baseline or setting comes from the memo.
        assert_eq!(ctx.memo_stats().misses, 19);
        let [thresholds, epoch, _, discipline, policy, pl_p, gate, chunk] = &ablations[..] else {
            panic!("eight ablations, got {}", ablations.len())
        };
        let energy = |r: &AblationRow| r.result.energy.total_mj();
        let service = |r: &AblationRow| r.result.request_service.mean_ns();

        let dynamic = energy(&thresholds.rows[1]);
        for r in &thresholds.rows {
            let ratio = energy(r) / dynamic;
            assert!(
                (ratio - 1.0).abs() <= 0.10,
                "{}: {ratio} x dynamic",
                r.label
            );
        }
        let savings: Vec<f64> = epoch.rows.iter().map(|r| r.savings).collect();
        let spread = savings.iter().fold(f64::MIN, |a, &b| a.max(b))
            - savings.iter().fold(f64::MAX, |a, &b| a.min(b));
        assert!(spread <= 0.05, "epoch savings {savings:?}");
        let [_, per_engine_ta, _, tdm_ta] = &discipline.rows[..] else {
            panic!("two disciplines, baseline and DMA-TA each")
        };
        assert!(
            tdm_ta.savings < per_engine_ta.savings,
            "TDM {} vs per-engine {}",
            tdm_ta.savings,
            per_engine_ta.savings
        );
        let [_, powerdown, dynamic] = &policy.rows[..] else {
            panic!("three low-level policies")
        };
        assert!(energy(powerdown) < energy(dynamic));
        assert!(service(powerdown) > service(dynamic));
        for r in pl_p.rows.iter().chain(&gate.rows).chain(&chunk.rows) {
            assert!(r.result.page_moves > 0, "{} moved no pages", r.label);
        }
        let moves = |i: usize| gate.rows[i].result.page_moves;
        assert!(
            moves(2) < moves(0),
            "gate 8: {} vs gate 0: {}",
            moves(2),
            moves(0)
        );
    }

    #[test]
    fn tpch_runs_and_pl_migrates_little() {
        let rows = tpch(ExpConfig::quick(), 0.10);
        assert_eq!(rows.len(), 2);
        let tapl = rows.iter().find(|r| r.scheme.contains("PL")).unwrap();
        // Uniform scans give PL no stable hot set to concentrate.
        assert!(
            tapl.page_moves < 500,
            "PL churned {} moves",
            tapl.page_moves
        );
    }

    #[test]
    fn fig4_cdf_is_monotone() {
        let pts = fig4(ExpConfig::quick(), 10);
        assert_eq!(pts.len(), 11);
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        assert!((pts[10].1 - 1.0).abs() < 1e-9);
    }
}
