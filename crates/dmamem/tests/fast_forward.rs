//! Fast-path conservation: the engine's four queue-bypassing fast paths
//! are *observationally* no-ops.
//!
//! * The idle-gap fast-forward jumps empty DMA-TA epochs.
//! * The events of chips with no DMA work (their service and transition
//!   completions and policy timers), and the pending trace instant, wait
//!   off the queue and run from there in the queue's `(time, seq)` order;
//!   policy timers that can no longer act are counted instead of run.
//! * The request-train window serves steady DMA request trains from a
//!   local lane instead of round-tripping every bus tick, service
//!   completion and superseded policy timer through the event queue, and
//!   runs events that commute with the train (processor accesses and
//!   power steps of chips without DMA work, empty epoch ticks) inside the
//!   window instead of closing it.
//! * Periodic train batching books whole slot periods of a steady window
//!   by adding one taped period's operands to their accumulators again,
//!   past commuting events.
//!
//! [`ServerSimulator::with_classic_event_core`] disables all four, so every
//! pair below runs the same trace both ways and demands identical
//! results: the five-bucket energy attribution (to the 1e-9 checksum
//! the attribution suite enforces), per-chip energy and residency,
//! horizon, service/response statistics, the slack summary, and the
//! deterministic `events` count and per-phase calls (skipped epoch ticks
//! are booked via `note_n`, inline train events are noted one by one).
//! The only legitimate divergence is queue shape — both paths push fewer
//! events — and every case asserts that divergence is present, so the
//! suite cannot pass vacuously with a fast path never firing. Cases built
//! to hold a steady state also assert that a batch fired
//! (`batched_requests > 0`), and cases with processor accesses that events
//! ran off the queue (`deferred_events > 0`); the classic core does
//! neither. Runs whose only observer is the causal tracer take the fast
//! paths too, and record the classic core's span records byte for byte.

use dma_trace::{
    DmaRecord, ProcRecord, SyntheticDbGen, SyntheticStorageGen, Trace, TraceEvent, TraceGen,
};
use dmamem::experiments::{mu_from_baseline, paper_system, Workload};
use dmamem::obs::SimEvent;
use dmamem::{PolicyKind, Scheme, ServerSimulator, SimResult, SystemConfig};
use iobus::{BusConfig, DmaDirection, DmaSource};
use mempower::{EnergyCategory, PowerMode};
use proptest::prelude::*;
use simcore::obs::{SpillSink, TraceStats};
use simcore::prof::Phase;
use simcore::{SimDuration, SimTime};

/// A storage trace sparse enough that epochs go empty between transfer
/// bursts (mean inter-arrival 50 us vs. the 1-us TA epoch), so the
/// fast-forward has real gaps to jump.
fn sparse_trace(seed: u64) -> Trace {
    let gen = SyntheticStorageGen {
        transfers_per_ms: 20.0,
        ..SyntheticStorageGen::default()
    };
    gen.generate(SimDuration::from_ms(2), seed)
}

fn run_pair_on(config: &SystemConfig, scheme: Scheme, trace: &Trace) -> (SimResult, SimResult) {
    let fast = ServerSimulator::new(config.clone(), scheme).run(trace);
    let classic = ServerSimulator::new(config.clone(), scheme)
        .with_classic_event_core()
        .run(trace);
    (fast, classic)
}

fn run_pair(scheme: Scheme, trace: &Trace) -> (SimResult, SimResult) {
    run_pair_on(&SystemConfig::default(), scheme, trace)
}

/// Field-by-field identity of everything observable about a run.
fn assert_conserved(label: &str, fast: &SimResult, classic: &SimResult) {
    assert_eq!(fast.scheme, classic.scheme, "{label}: scheme label");
    assert_eq!(fast.energy, classic.energy, "{label}: energy breakdown");
    assert_eq!(
        fast.per_chip_mj, classic.per_chip_mj,
        "{label}: per-chip energy"
    );
    assert_eq!(
        fast.per_chip_energy, classic.per_chip_energy,
        "{label}: per-chip breakdowns"
    );
    assert_eq!(
        fast.per_chip_residency, classic.per_chip_residency,
        "{label}: residency"
    );
    assert_eq!(fast.horizon, classic.horizon, "{label}: horizon");
    assert_eq!(fast.dma_requests, classic.dma_requests, "{label}: requests");
    assert_eq!(fast.transfers, classic.transfers, "{label}: transfers");
    assert_eq!(
        fast.proc_accesses, classic.proc_accesses,
        "{label}: proc accesses"
    );
    assert_eq!(
        fast.dma_serving, classic.dma_serving,
        "{label}: dma serving"
    );
    assert_eq!(fast.wakes, classic.wakes, "{label}: wakes");
    assert_eq!(
        fast.delayed_firsts, classic.delayed_firsts,
        "{label}: delayed firsts"
    );
    assert_eq!(fast.page_moves, classic.page_moves, "{label}: page moves");
    assert_eq!(fast.slack, classic.slack, "{label}: slack summary");
    for (a, b, which) in [
        (&fast.request_service, &classic.request_service, "service"),
        (
            &fast.transfer_response,
            &classic.transfer_response,
            "response",
        ),
    ] {
        // Bit for bit: a fast path that fed the Welford accumulator the
        // same samples in another order would move mean and m2 in their
        // last bits, below the picosecond rounding of `mean()`.
        let (a, b) = (a.raw(), b.raw());
        assert_eq!(a.count(), b.count(), "{label}: {which} count");
        assert_eq!(
            a.mean().to_bits(),
            b.mean().to_bits(),
            "{label}: {which} mean"
        );
        assert_eq!(
            a.population_variance().to_bits(),
            b.population_variance().to_bits(),
            "{label}: {which} variance"
        );
        assert_eq!(a.min(), b.min(), "{label}: {which} min");
        assert_eq!(a.max(), b.max(), "{label}: {which} max");
    }
    // The five attribution buckets partition the same total either way.
    for cat in EnergyCategory::ALL {
        assert_eq!(
            fast.energy.energy_mj(cat),
            classic.energy.energy_mj(cat),
            "{label}: bucket {}",
            cat.label()
        );
    }
    let rel = (fast.energy.total_mj() - classic.energy.total_mj()).abs()
        / classic.energy.total_mj().abs().max(1.0);
    assert!(
        rel <= 1e-9,
        "{label}: attribution checksum off by {rel:.3e}"
    );
    // Dispatch accounting matches to the event: skipped epochs are
    // booked, not dropped.
    assert_eq!(
        fast.profile.events, classic.profile.events,
        "{label}: events"
    );
    for phase in Phase::ALL {
        assert_eq!(
            fast.profile.phases.get(phase).calls,
            classic.profile.phases.get(phase).calls,
            "{label}: {} calls",
            phase.label()
        );
    }
}

/// A periodic train batch fired: some requests were booked, not
/// dispatched.
fn assert_batched(label: &str, fast: &SimResult, classic: &SimResult) {
    assert!(
        fast.profile.batched_requests > 0,
        "{label}: no train batch fired"
    );
    assert_eq!(
        classic.profile.batched_requests, 0,
        "{label}: classic batched"
    );
}

/// Events of chips with no DMA work ran off the queue; the classic core
/// keeps every event on it.
fn assert_deferred(label: &str, fast: &SimResult, classic: &SimResult) {
    assert!(
        fast.profile.deferred_events > 0,
        "{label}: no event ran off the queue"
    );
    assert_eq!(
        classic.profile.deferred_events, 0,
        "{label}: classic deferred"
    );
}

/// All but under 1 % of the requests were booked by batches.
fn assert_nearly_all_batched(label: &str, fast: &SimResult) {
    let (batched, requests) = (fast.profile.batched_requests, fast.dma_requests);
    assert!(
        (requests - batched) * 100 < requests,
        "{label}: only {batched} of {requests} requests batched"
    );
}

/// The non-vacuity half: a fast path fired, so the queue saw fewer
/// pushes than the classic core's.
fn assert_fewer_pushes(label: &str, fast: &SimResult, classic: &SimResult) {
    assert!(
        fast.profile.heap_pushes < classic.profile.heap_pushes,
        "{label}: no fast path fired ({} vs {} pushes)",
        fast.profile.heap_pushes,
        classic.profile.heap_pushes,
    );
}

/// Energy, residency, latency, and dispatch accounting are identical
/// with the fast-forward on vs. off, across seeds and TA schemes — and
/// the fast path provably fired (it scheduled fewer epoch ticks).
#[test]
fn fast_forward_conserves_all_observables() {
    for seed in [7u64, 42, 1234] {
        let trace = sparse_trace(seed);
        for scheme in [Scheme::dma_ta(0.1), Scheme::dma_ta_pl(0.3, 2)] {
            let (fast, classic) = run_pair(scheme, &trace);
            let label = format!("seed {seed} {}", scheme.label());
            assert_conserved(&label, &fast, &classic);
            assert_fewer_pushes(&label, &fast, &classic);
        }
    }
}

/// Without TA there are no epoch ticks to skip, but baseline runs serve
/// their request trains inline: every observable matches the classic
/// core and the queue sees strictly fewer pushes.
#[test]
fn classic_switch_is_identity_for_baseline_scheme() {
    let trace = sparse_trace(42);
    let (fast, classic) = run_pair(Scheme::baseline(), &trace);
    assert_conserved("baseline", &fast, &classic);
    assert_fewer_pushes("baseline", &fast, &classic);
}

/// Baseline, DMA-TA and DMA-TA-PL(2) at the μ calibrated for a 10 %
/// CP-Limit (the Figure 5 schemes) on one trace: every observable
/// matches the classic core, the queue sees fewer pushes, and a batch
/// fired.
fn conserve_fig5_schemes(label: &str, trace: &Trace, extra: SimDuration) {
    let config = paper_system();
    let (base, base_classic) = run_pair_on(&config, Scheme::baseline(), trace);
    let mu = mu_from_baseline(&config, &base, 0.10, extra);
    let mut runs = vec![(format!("{label} baseline"), base, base_classic)];
    for scheme in [Scheme::dma_ta(mu), Scheme::dma_ta_pl(mu, 2)] {
        let (fast, classic) = run_pair_on(&config, scheme, trace);
        runs.push((format!("{label} {}", scheme.label()), fast, classic));
    }
    for (label, fast, classic) in &runs {
        assert_conserved(label, fast, classic);
        assert_fewer_pushes(label, fast, classic);
        assert_batched(label, fast, classic);
        if trace.iter().any(|e| matches!(e, TraceEvent::Proc(_))) {
            assert_deferred(label, fast, classic);
        }
    }
}

/// The Figure 5 matrix on the paper's traces: 2-ms storage and database
/// traces.
#[test]
fn request_trains_conserve_paper_workloads() {
    for w in Workload::ALL {
        let trace = w.generate(SimDuration::from_ms(2), 42);
        // Every scheme batches: storage trains run for whole transfers,
        // and database trains batch past the processor accesses and
        // power steps of chips they do not feed.
        conserve_fig5_schemes(w.label(), &trace, w.client_extra_latency());
    }
}

/// A Figure 9 point: Synthetic-Db with 233 processor accesses per
/// transfer, the densest processor traffic the paper sweeps.
#[test]
fn request_trains_conserve_a_figure9_point() {
    let trace = SyntheticDbGen::default()
        .with_proc_per_transfer(233.0)
        .generate(SimDuration::from_ms(1), 42);
    let extra = Workload::SyntheticDb.client_extra_latency();
    conserve_fig5_schemes("Fig 9 (233)", &trace, extra);
}

fn dma(ns: u64, bus: usize, page: u64, bytes: u64) -> TraceEvent {
    TraceEvent::Dma(DmaRecord {
        time: SimTime::ZERO + SimDuration::from_ns(ns),
        bus,
        page,
        bytes,
        direction: DmaDirection::FromMemory,
        source: DmaSource::Network,
    })
}

fn proc_access(ns: u64, page: u64) -> TraceEvent {
    TraceEvent::Proc(ProcRecord {
        time: SimTime::ZERO + SimDuration::from_ns(ns),
        page,
        bytes: 64,
    })
}

/// Three buses stream into one chip at once — the DMA-TA lockstep
/// shape, where requests queue at the chip — first simultaneously,
/// then staggered by a few slots, then gathered on a sleeping chip.
#[test]
fn three_buses_streaming_into_one_chip_conserve() {
    // Pages 0..3 all live on chip 0 under the sequential layout.
    let mut events = vec![
        dma(0, 0, 0, 8192),
        dma(0, 1, 1, 8192),
        dma(0, 2, 2, 8192),
        dma(20_000, 0, 0, 8192),
        dma(20_015, 1, 1, 8192),
        dma(20_030, 2, 2, 8192),
    ];
    // Warm-up traffic on a far chip earns slack; the burst at 500 us
    // meets chip 0 asleep, so DMA-TA gathers and releases it together.
    events.extend((0..8u64).map(|i| dma(100_000 + i * 10_000, (i % 3) as usize, 40_000, 8192)));
    events.extend([
        dma(500_000, 0, 0, 8192),
        dma(500_003, 1, 1, 8192),
        dma(500_006, 2, 2, 8192),
    ]);
    let trace = Trace::from_events(events);
    for scheme in [
        Scheme::baseline(),
        Scheme::dma_ta(2.0),
        Scheme::dma_ta_pl(2.0, 2),
    ] {
        let (fast, classic) = run_pair(scheme, &trace);
        let label = format!("three buses {}", scheme.label());
        assert_eq!(fast.transfers, 17, "{label}: transfers");
        assert_conserved(&label, &fast, &classic);
        assert_fewer_pushes(&label, &fast, &classic);
    }
}

/// Transfers on one system of `buses` PCI-X buses, all starting at time
/// zero: `(bus, page, bytes)`.
fn simultaneous(transfers: &[(usize, u64, u64)]) -> Trace {
    Trace::from_events(
        transfers
            .iter()
            .map(|&(bus, page, bytes)| dma(0, bus, page, bytes))
            .collect(),
    )
}

/// Two streams share one per-engine bus: each period issues both, in the
/// order the round-robin cursor picks, and the batch must carry the
/// cursor along.
#[test]
fn two_streams_on_one_bus_batch() {
    // Pages 0 and 40 000 live on different chips.
    let trace = simultaneous(&[(0, 0, 8192), (0, 40_000, 8192)]);
    for scheme in [Scheme::baseline(), Scheme::dma_ta(1.0)] {
        let (fast, classic) = run_pair(scheme, &trace);
        let label = format!("two streams {}", scheme.label());
        assert_conserved(&label, &fast, &classic);
        assert_batched(&label, &fast, &classic);
    }
}

/// Three buses stream into one awake chip, their first requests a few
/// nanoseconds apart: each request then arrives while the previous
/// stream's is in service, so every period queues requests at the chip
/// and the replay must repeat nonzero queue debits of the slack account.
#[test]
fn aligned_buses_into_one_chip_batch_with_queue_debits() {
    // Pages 0..3 live on chip 0, which boots active.
    let trace = Trace::from_events(vec![
        dma(0, 0, 0, 8192),
        dma(3, 2, 2, 8192),
        dma(6, 1, 1, 8192),
    ]);
    for scheme in [Scheme::baseline(), Scheme::dma_ta(2.0)] {
        let (fast, classic) = run_pair(scheme, &trace);
        let label = format!("aligned {}", scheme.label());
        assert_conserved(&label, &fast, &classic);
        assert_batched(&label, &fast, &classic);
        if let Some(slack) = &fast.slack {
            assert!(slack.debit_queue_ps > 0.0, "{label}: no queue debits");
        }
    }
}

/// The same three buses stream 1-MiB transfers: one batch per run books
/// over 10^5 three-service periods, every one with queue debits.
#[test]
fn long_aligned_trains_into_one_chip_conserve() {
    const MIB: u64 = 1 << 20;
    let trace = Trace::from_events(vec![
        dma(0, 0, 0, MIB),
        dma(3, 2, 2, MIB),
        dma(6, 1, 1, MIB),
    ]);
    for scheme in [Scheme::baseline(), Scheme::dma_ta(2.0)] {
        let (fast, classic) = run_pair(scheme, &trace);
        let label = format!("long aligned {}", scheme.label());
        assert_conserved(&label, &fast, &classic);
        assert_batched(&label, &fast, &classic);
        assert_nearly_all_batched(&label, &fast);
        if let Some(slack) = &fast.slack {
            assert!(slack.debit_queue_ps > 0.0, "{label}: no queue debits");
        }
    }
}

/// The policy arm is replayed too: the dynamic threshold policy at two
/// scales and the self-tuning policy, whose thresholds depend on the
/// idle periods it has seen.
#[test]
fn batches_replay_every_threshold_policy() {
    let trace = sparse_trace(42);
    for policy in [
        PolicyKind::Dynamic { scale: 1.0 },
        PolicyKind::Dynamic { scale: 4.0 },
        PolicyKind::SelfTuning,
    ] {
        let config = SystemConfig {
            policy,
            ..SystemConfig::default()
        };
        for scheme in [Scheme::baseline(), Scheme::dma_ta(0.5)] {
            let (fast, classic) = run_pair_on(&config, scheme, &trace);
            let label = format!("{policy:?} {}", scheme.label());
            assert_conserved(&label, &fast, &classic);
            assert_batched(&label, &fast, &classic);
        }
    }
}

/// Buses of two rates have no common slot period, so while both stream
/// no batch may fire. The two transfers are sized to finish together.
#[test]
fn buses_of_two_rates_decline_to_batch() {
    let config = SystemConfig {
        buses: vec![BusConfig::pci_x(), BusConfig::with_rate(0.7e9)],
        ..SystemConfig::default()
    };
    // 8192 B at 1.064 GB/s and 5392 B at 0.7 GB/s both take ~7.7 us.
    let trace = simultaneous(&[(0, 0, 8192), (1, 40_000, 5392)]);
    for scheme in [Scheme::baseline(), Scheme::dma_ta(1.0)] {
        let (fast, classic) = run_pair_on(&config, scheme, &trace);
        let label = format!("two rates {}", scheme.label());
        assert_conserved(&label, &fast, &classic);
        assert_fewer_pushes(&label, &fast, &classic);
        assert_eq!(fast.profile.batched_requests, 0, "{label}: batched");
    }
}

/// Streams of different lengths share the buses, so some reach their
/// last request while others are mid-train: every batch must stop short
/// of a last request, and the windows reopen around it.
#[test]
fn streams_ending_inside_a_window_batch_up_to_their_last_request() {
    let trace = simultaneous(&[
        (0, 0, 8192),
        (0, 40_000, 2048),
        (1, 20_000, 4096),
        (2, 60_000, 1000),
        (2, 1, 8192),
    ]);
    for scheme in [Scheme::baseline(), Scheme::dma_ta(1.0)] {
        let (fast, classic) = run_pair(scheme, &trace);
        let label = format!("uneven streams {}", scheme.label());
        assert_eq!(fast.transfers, 5, "{label}: transfers");
        assert_conserved(&label, &fast, &classic);
        assert_batched(&label, &fast, &classic);
    }
}

/// Requests in a 64-KB transfer: a train of about 61 µs on one PCI-X
/// bus, long enough to span many DMA-TA epochs.
const LONG_TRANSFER: u64 = 65_536;

/// One long train into chip 0 (page 0, bus 0) from time zero, plus
/// `extra` trace records.
fn long_train_with(extra: impl IntoIterator<Item = TraceEvent>) -> Trace {
    let mut events = vec![dma(0, 0, 0, LONG_TRANSFER)];
    events.extend(extra);
    Trace::from_events(events)
}

/// Runs `trace` under the baseline and DMA-TA, checks every observable
/// against the classic core and that a batch fired.
fn conserve_train(label: &str, trace: &Trace) -> Vec<SimResult> {
    let mut fast_runs = Vec::new();
    for scheme in [Scheme::baseline(), Scheme::dma_ta(1.0)] {
        let (fast, classic) = run_pair(scheme, trace);
        let label = format!("{label} {}", scheme.label());
        assert_conserved(&label, &fast, &classic);
        assert_fewer_pushes(&label, &fast, &classic);
        assert_batched(&label, &fast, &classic);
        fast_runs.push(fast);
    }
    fast_runs
}

/// Processor accesses wake two other chips (1 and 2) and let them sleep
/// again while chip 0 serves a steady train: bursts of accesses a few
/// hundred nanoseconds apart, then gaps long enough for nap and
/// powerdown.
#[test]
fn processor_accesses_to_other_chips_during_a_train_conserve() {
    // Chip c holds pages 2048·c .. 2048·(c + 1) under the sequential
    // layout.
    let mut extra = Vec::new();
    for burst in 0..6u64 {
        let start = 2_000 + burst * 9_000;
        for i in 0..8u64 {
            let chip = 1 + (i % 2);
            extra.push(proc_access(start + i * 250, chip * 2048 + i));
        }
    }
    let trace = long_train_with(extra);
    // Those accesses and the power steps they cause commute with the
    // train, so the train batches straight through them.
    for run in conserve_train("other chips", &trace) {
        assert_nearly_all_batched("other chips", &run);
    }
}

/// A processor access to the train's own chip takes priority over the
/// train's next request.
#[test]
fn processor_access_to_the_train_chip_conserves() {
    let trace = long_train_with([proc_access(10_000, 1), proc_access(30_000, 2)]);
    conserve_train("own chip", &trace);
}

/// One stamp carries a processor access that commutes with the train
/// (to chip 1) and, after it, one that does not (to the train's chip 0);
/// a later stamp carries the same pair the other way round. The trace
/// lookahead must read past the commuting record to see that the stamp
/// closes the window, and the batch bound must stop at the stamp. The
/// commuting-only stamps before it let batches run up to it.
#[test]
fn a_stamp_mixing_commuting_and_non_commuting_accesses_conserves() {
    let mut extra: Vec<TraceEvent> = (0..4u64)
        .map(|i| proc_access(4_000 + i * 3_000, 2048 + i))
        .collect();
    extra.extend([proc_access(20_000, 2048 + 7), proc_access(20_000, 5)]);
    extra.extend([proc_access(40_000, 6), proc_access(40_000, 2048 + 8)]);
    let trace = long_train_with(extra);
    conserve_train("mixed stamp", &trace);
}

/// A transfer on another bus meets chip 3 asleep, so DMA-TA gathers its
/// first request; a processor access to chip 3 then releases it while
/// the train into chip 0 runs on.
#[test]
fn processor_access_to_a_chip_holding_a_gathered_request_conserves() {
    let trace = long_train_with([
        dma(20_000, 1, 3 * 2048, 8192),
        proc_access(22_000, 3 * 2048 + 1),
    ]);
    let runs = conserve_train("gathered", &trace);
    assert!(runs[1].delayed_firsts > 0, "DMA-TA gathered nothing");
}

/// A DMA-TA train that spans dozens of 1-µs epochs, with no other
/// traffic: the epoch ticks fall inside the train.
#[test]
fn dma_ta_train_across_epochs_conserves() {
    let trace = long_train_with([]);
    let (fast, classic) = run_pair(Scheme::dma_ta(1.0), &trace);
    assert!(
        fast.horizon >= SimDuration::from_us(5),
        "train spans {:?}",
        fast.horizon
    );
    assert_conserved("epochs", &fast, &classic);
    assert_fewer_pushes("epochs", &fast, &classic);
    assert_batched("epochs", &fast, &classic);
    // Epoch ticks with nothing gathered commute with the train, so one
    // window books nearly the whole train.
    assert_nearly_all_batched("epochs", &fast);
}

/// Pages per chip of the random small systems.
const PAGES_PER_CHIP: u64 = 64;

/// A small random system and trace: 1–4 chips of 64 pages, 1–3 buses,
/// transfers either aligned in bursts or staggered, and processor
/// accesses to the same chips.
fn random_case(case: (usize, usize, bool, u64)) -> (SystemConfig, Trace) {
    let (config, events) = random_events(case);
    (config, Trace::from_events(events))
}

/// The system and records of [`random_case`].
fn random_events(
    (chips, buses, aligned, seed): (usize, usize, bool, u64),
) -> (SystemConfig, Vec<TraceEvent>) {
    let config = SystemConfig {
        chips,
        pages: chips * PAGES_PER_CHIP as usize,
        ..SystemConfig::default()
    }
    .with_buses(buses, BusConfig::pci_x());
    let mut rng = simcore::rng::DetRng::new(seed);
    let mut events = Vec::new();
    let transfers = 1 + rng.next_u64() % 6;
    for i in 0..transfers {
        let at = if aligned {
            (i / 3) * 12_000
        } else {
            rng.next_u64() % 30_000
        };
        let chip = rng.next_u64() % chips as u64;
        let page = chip * PAGES_PER_CHIP + rng.next_u64() % PAGES_PER_CHIP;
        let bytes = [8192, 8192, 512, 24][(rng.next_u64() % 4) as usize];
        events.push(dma(
            at,
            (rng.next_u64() % buses as u64) as usize,
            page,
            bytes,
        ));
    }
    for _ in 0..rng.next_u64() % 12 {
        let page = rng.next_u64() % (chips as u64 * PAGES_PER_CHIP);
        events.push(proc_access(rng.next_u64() % 30_000, page));
    }
    (config, events)
}

/// `events` plus processor accesses that land on the very picosecond at
/// which their chip's own events fire. A probe run with the event log on
/// yields every service start and end, policy step and transition end;
/// an access joins a random third of those instants, each to the chip
/// whose event it was, and always the first. The runs agree up to the
/// first added access, so at least that one ties with an event of its
/// chip; which of the two pops first depends on their sequence numbers,
/// and the cases cover both orders.
fn on_event_stamps(
    config: &SystemConfig,
    scheme: Scheme,
    mut events: Vec<TraceEvent>,
    seed: u64,
) -> Trace {
    let probe = ServerSimulator::new(config.clone(), scheme)
        .with_observability(1 << 16)
        .run(&Trace::from_events(events.clone()));
    let mut stamps = Vec::new();
    for e in probe.obs.expect("observability on").events.iter() {
        match *e {
            SimEvent::Activity { at, chip, .. } => stamps.push((at, chip)),
            SimEvent::ModeTransition {
                at, chip, latency, ..
            } => stamps.extend([(at, chip), (at + latency, chip)]),
            _ => {}
        }
    }
    assert!(!stamps.is_empty(), "the probe run recorded no chip event");
    let mut rng = simcore::rng::DetRng::new(seed);
    for (i, (time, chip)) in stamps.into_iter().enumerate() {
        if i == 0 || rng.next_u64().is_multiple_of(3) {
            events.push(TraceEvent::Proc(ProcRecord {
                time,
                page: chip as u64 * PAGES_PER_CHIP + rng.next_u64() % PAGES_PER_CHIP,
                bytes: 64,
            }));
        }
    }
    Trace::from_events(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The classic core and the default engine agree on every observable
    /// for random small systems and traces under every scheme.
    #[test]
    fn random_small_traces_conserve(
        case in (1usize..5, 1usize..4, any::<bool>(), any::<u64>()),
        which in 0u8..3,
        mu in 0.0f64..3.0,
    ) {
        let (config, trace) = random_case(case);
        let scheme = match which {
            0 => Scheme::baseline(),
            // PL needs a cold chip to spare.
            2 if config.chips >= 2 => Scheme::dma_ta_pl(mu, 2),
            _ => Scheme::dma_ta(mu),
        };
        let (fast, classic) = run_pair_on(&config, scheme, &trace);
        assert_conserved(&format!("{case:?} {}", scheme.label()), &fast, &classic);
        prop_assert!(fast.profile.heap_pushes <= classic.profile.heap_pushes);
    }

    /// Processor accesses that tie with their chip's own service ends,
    /// policy timers and transition ends, under the dynamic, static
    /// (zero-delay timer) and self-tuning policies and every scheme: the
    /// default engine agrees with the classic core on every observable.
    #[test]
    fn accesses_on_event_stamps_conserve(
        case in (1usize..5, 1usize..4, any::<bool>(), any::<u64>()),
        policy in 0u8..3,
        which in 0u8..3,
        mu in 0.0f64..3.0,
    ) {
        let (config, events) = random_events(case);
        let config = SystemConfig {
            policy: match policy {
                0 => PolicyKind::Dynamic { scale: 1.0 },
                1 => PolicyKind::Static(PowerMode::Standby),
                _ => PolicyKind::SelfTuning,
            },
            ..config
        };
        let scheme = match which {
            0 => Scheme::baseline(),
            2 if config.chips >= 2 => Scheme::dma_ta_pl(mu, 2),
            _ => Scheme::dma_ta(mu),
        };
        let trace = on_event_stamps(&config, scheme, events, case.3);
        let (fast, classic) = run_pair_on(&config, scheme, &trace);
        let label = format!("{case:?} {:?} {}", config.policy, scheme.label());
        assert_conserved(&label, &fast, &classic);
        assert_deferred(&label, &fast, &classic);
    }
}

/// A processor-only trace: no chip ever has DMA work, so every power-state
/// event of the run waits off the queue.
#[test]
fn processor_only_trace_conserves() {
    let full = Workload::OltpDb.generate(SimDuration::from_ms(2), 42);
    let trace = Trace::from_events(
        full.iter()
            .filter(|e| matches!(e, TraceEvent::Proc(_)))
            .collect(),
    );
    for scheme in [
        Scheme::baseline(),
        Scheme::dma_ta(1.0),
        Scheme::dma_ta_pl(1.0, 2),
    ] {
        let (fast, classic) = run_pair_on(&paper_system(), scheme, &trace);
        let label = format!("processor only {}", scheme.label());
        assert_conserved(&label, &fast, &classic);
        assert_fewer_pushes(&label, &fast, &classic);
        assert_deferred(&label, &fast, &classic);
    }
}

/// Runs with an event log or metrics keep every event on the queue and
/// book no batch, as the classic core does: `obs_summary_table` prints
/// their queue counts, and their event log would need every booked
/// period's events. Runs whose only observer is the causal tracer take
/// the train path: they defer events and book batches.
#[test]
fn only_tracer_only_runs_take_the_train_path() {
    let db = Workload::OltpDb.generate(SimDuration::from_ms(1), 42);
    let st = Workload::OltpSt.generate(SimDuration::from_ms(1), 42);
    let sim = || ServerSimulator::new(paper_system(), Scheme::baseline());
    for (label, trace) in [("OLTP-Db", &db), ("OLTP-St", &st)] {
        for (what, observed) in [
            ("observed", sim().with_observability(1 << 10).run(trace)),
            (
                "observed and traced",
                sim()
                    .with_observability(1 << 10)
                    .with_tracing(1 << 10, None)
                    .run(trace),
            ),
        ] {
            let profile = observed.profile;
            assert_eq!(profile.deferred_events, 0, "{label} {what}: deferred");
            assert_eq!(profile.batched_requests, 0, "{label} {what}: batched");
        }
    }
    let traced = |trace: &Trace| sim().with_tracing(1 << 10, None).run(trace).profile;
    assert!(
        traced(&db).deferred_events > 0,
        "traced OLTP-Db deferred nothing"
    );
    assert!(
        traced(&st).batched_requests > 0,
        "traced OLTP-St batched nothing"
    );
}

/// FNV-1a 64-bit digest of a trace export.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a traced run recorded, three ways: a ring that holds the whole
/// run (its export's digest and the run's result), the stream a 64-record
/// ring spills into memory (digest and counts), and a 64-record ring
/// that drops (its export's digest) — each with its `validate()` stats.
#[derive(Debug, PartialEq)]
struct Traced {
    whole: u64,
    whole_stats: Result<TraceStats, String>,
    streamed: u64,
    streamed_counts: (u64, u64, Result<TraceStats, String>),
    small: u64,
    small_stats: Result<TraceStats, String>,
}

fn traced_run(
    config: &SystemConfig,
    scheme: Scheme,
    trace: &Trace,
    classic: bool,
) -> (SimResult, Traced) {
    let sim = |capacity: usize, spill: Option<SpillSink>| {
        let sim = ServerSimulator::new(config.clone(), scheme).with_tracing(capacity, spill);
        let sim = if classic {
            sim.with_classic_event_core()
        } else {
            sim
        };
        sim.run(trace)
    };
    let result = sim(1 << 20, None);
    let whole = result.trace.as_ref().expect("traced run");
    assert_eq!(whole.dropped(), 0, "the whole-run ring dropped records");
    let (whole_stats, whole) = (whole.validate(), fnv1a64(whole.to_chrome_json().as_bytes()));
    let (sink, bytes) = SpillSink::memory();
    let mut spilled = sim(64, Some(sink)).trace.expect("traced run");
    spilled.finalize_spill();
    let streamed = fnv1a64(&bytes.lock().expect("spill buffer"));
    let streamed_counts = (spilled.spilled(), spilled.dropped(), spilled.validate());
    let small = sim(64, None).trace.expect("traced run");
    let traced = Traced {
        whole,
        whole_stats,
        streamed,
        streamed_counts,
        small: fnv1a64(small.to_chrome_json().as_bytes()),
        small_stats: small.validate(),
    };
    (result, traced)
}

/// Runs `trace` traced on the train path and on the classic core and
/// demands the same records and the same result; returns the train
/// path's result.
fn conserve_traced(label: &str, config: &SystemConfig, scheme: Scheme, trace: &Trace) -> SimResult {
    let (fast, fast_traced) = traced_run(config, scheme, trace, false);
    let (classic, classic_traced) = traced_run(config, scheme, trace, true);
    assert_conserved(label, &fast, &classic);
    assert_eq!(fast_traced, classic_traced, "{label}: trace records");
    assert!(
        fast_traced.whole_stats.is_ok(),
        "{label}: invalid span tree"
    );
    fast
}

/// Traced runs take the train path and replay each batch's span records:
/// OLTP-St under the baseline, DMA-TA and DMA-TA-PL(2) at the μ of a
/// 10 % CP-Limit, and the OLTP-Db baseline, record byte-identical rings,
/// spill streams and span checks to the classic core's, and the storage
/// runs batch.
#[test]
fn traced_runs_replay_the_classic_core_records() {
    let config = paper_system();
    let st = Workload::OltpSt.generate(SimDuration::from_us(500), 42);
    let base = ServerSimulator::new(config.clone(), Scheme::baseline()).run(&st);
    let mu = mu_from_baseline(
        &config,
        &base,
        0.10,
        Workload::OltpSt.client_extra_latency(),
    );
    for scheme in [
        Scheme::baseline(),
        Scheme::dma_ta(mu),
        Scheme::dma_ta_pl(mu, 2),
    ] {
        let label = format!("traced OLTP-St {}", scheme.label());
        let fast = conserve_traced(&label, &config, scheme, &st);
        assert!(
            fast.profile.batched_requests > 0,
            "{label}: no train batch fired"
        );
    }
    let db = Workload::OltpDb.generate(SimDuration::from_us(500), 42);
    let fast = conserve_traced("traced OLTP-Db baseline", &config, Scheme::baseline(), &db);
    assert!(
        fast.profile.deferred_events > 0,
        "traced OLTP-Db: nothing deferred"
    );
}

/// A three-request transfer to chip 1 ends inside a window of the long
/// train into chip 0: its last completion leaves chip 1 without DMA
/// work, its next policy timer leaves the lane for the off-queue slots,
/// and the traced batches after it must end before that timer.
#[test]
fn a_chip_losing_its_dma_work_inside_a_traced_window_bounds_the_batch() {
    let trace = Trace::from_events(vec![
        dma(95_000, 0, 0, LONG_TRANSFER),
        dma(100_000, 1, 2048, 24),
    ]);
    for scheme in [Scheme::baseline(), Scheme::dma_ta(1.0)] {
        let label = format!("draining chip {}", scheme.label());
        let fast = conserve_traced(&label, &SystemConfig::default(), scheme, &trace);
        assert!(
            fast.profile.batched_requests > 0,
            "{label}: no train batch fired"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Traced random small systems and traces under every scheme record
    /// the classic core's span records and results.
    #[test]
    fn traced_random_small_traces_conserve(
        case in (1usize..5, 1usize..4, any::<bool>(), any::<u64>()),
        which in 0u8..3,
        mu in 0.0f64..3.0,
    ) {
        let (config, trace) = random_case(case);
        let scheme = match which {
            0 => Scheme::baseline(),
            2 if config.chips >= 2 => Scheme::dma_ta_pl(mu, 2),
            _ => Scheme::dma_ta(mu),
        };
        conserve_traced(&format!("traced {case:?} {}", scheme.label()), &config, scheme, &trace);
    }
}

/// 20-ms database traces, long enough for processor accesses to tie with
/// their chips' own events: the baseline and DMA-TA-PL(2) at the 10 %
/// CP-Limit agree with the classic core on every observable.
#[test]
fn twenty_ms_database_traces_conserve() {
    let config = paper_system();
    for w in [Workload::OltpDb, Workload::SyntheticDb] {
        let trace = w.generate(SimDuration::from_ms(20), 42);
        let (base, base_classic) = run_pair_on(&config, Scheme::baseline(), &trace);
        let mu = mu_from_baseline(&config, &base, 0.10, w.client_extra_latency());
        let (pl, pl_classic) = run_pair_on(&config, Scheme::dma_ta_pl(mu, 2), &trace);
        for (label, fast, classic) in [
            (format!("{} baseline", w.label()), &base, &base_classic),
            (format!("{} DMA-TA-PL(2)", w.label()), &pl, &pl_classic),
        ] {
            assert_conserved(&label, fast, classic);
            assert_deferred(&label, fast, classic);
        }
    }
}
