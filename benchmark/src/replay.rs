//! Per-layer replays: each layer's hot-path public functions timed in a
//! tight loop outside the engine. Multiplied by the simulate stage's
//! deterministic operation count, ns per operation estimates the layer's
//! share of the stage's host time.

use std::hint::black_box;
use std::time::Instant;

use disksim::{DiskArray, DiskParams, DiskRequest, RequestKind};
use dmamem::controller::pl::{plan_and_apply, PopularityTracker};
use dmamem::controller::ta::{ReleaseRule, SlackAccount};
use dmamem::experiments::paper_system;
use dmamem::{PageMap, PlConfig};
use iobus::{Bus, BusConfig, DmaDirection, DmaSource, DmaTransfer, IssueOutcome};
use mempower::{Chip, EnergyCategory, PowerMode, PowerModel};
use simcore::rng::DetRng;
use simcore::{EventQueue, SimDuration, SimTime};

use crate::stats::median;

/// Timed batches per layer; the median batch is reported.
const BATCHES: usize = 7;
/// Operations per batch for the per-request layers.
const OPS: u64 = 1 << 16;

/// Median ns per operation over [`BATCHES`] runs of `batch`, which
/// returns how many operations it performed.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    black_box(batch());
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            // simlint::allow(wall-clock, "benchmark harness: host time is what it measures")
            let start = Instant::now();
            let ops = black_box(batch());
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&mut per_op)
}

/// Schedule offsets in the style of `crates/bench/benches/queue.rs`, the
/// distribution measured on the Figure 5 runs: (picoseconds, per-mille).
const OFFSETS_PS: [(u64, u64); 9] = [
    (0, 21),
    (1_000, 19),
    (4_000, 336),
    (8_000, 270),
    (19_000, 299),
    (65_000, 17),
    (262_000, 21),
    (1_000_000, 6),
    (16_700_000, 11),
];

fn draw_offset(rng: &mut DetRng) -> SimDuration {
    let mut roll = rng.below(1000);
    for &(ps, weight) in &OFFSETS_PS {
        if roll < weight {
            return SimDuration::from_ps(ps);
        }
        roll -= weight;
    }
    SimDuration::ZERO
}

/// `EventQueue::pop` plus `schedule`, holding the queue at `depth`.
fn queue(depth: usize) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = DetRng::new(42);
    let mut now = SimTime::ZERO;
    for i in 0..depth as u64 {
        q.schedule(now + draw_offset(&mut rng), i);
    }
    ns_per_op(|| {
        for i in 0..OPS {
            if let Some((t, ev)) = q.pop() {
                now = t;
                black_box(ev);
            }
            q.schedule(now + draw_offset(&mut rng), i);
        }
        OPS
    })
}

/// `Bus::add_transfer` plus `issue` (and the first request's ack), per
/// issued request, with three page transfers streaming at a time.
fn bus() -> f64 {
    let config = BusConfig::pci_x();
    let period = config.slot_period();
    let mut bus = Bus::new(0, config);
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    ns_per_op(|| {
        let mut issued = 0;
        for _ in 0..OPS {
            while bus.active_transfers() < 3 {
                let t = DmaTransfer::new(
                    next_id,
                    0,
                    next_id % 4096,
                    8192,
                    DmaDirection::FromMemory,
                    DmaSource::Network,
                );
                bus.add_transfer(now, t);
                next_id += 1;
            }
            if let IssueOutcome::Issued(r) = bus.issue(now) {
                if r.is_first {
                    bus.ack_first(r.transfer, now);
                }
                issued += 1;
            }
            now += period;
        }
        issued
    })
}

/// `Chip::sync` plus `begin_service`, one DMA-memory request per bus slot.
fn chip_service() -> f64 {
    let model = PowerModel::rdram();
    let service = model.service_time(8);
    let slot = BusConfig::pci_x().slot_period();
    let mut chip = Chip::new(0, model);
    let mut now = SimTime::ZERO;
    ns_per_op(|| {
        for _ in 0..OPS {
            now += slot;
            chip.sync(now);
            chip.begin_service(now, service, EnergyCategory::ActiveServing);
        }
        OPS
    })
}

/// `begin_sleep`, `begin_wake` and `complete_transition`, per completed
/// transition (two per sleep/wake cycle).
fn chip_transition() -> f64 {
    let mut chip = Chip::new(0, PowerModel::rdram());
    let mut now = SimTime::ZERO;
    ns_per_op(|| {
        for _ in 0..OPS / 2 {
            let asleep = chip.begin_sleep(now, PowerMode::Nap);
            chip.complete_transition(asleep);
            now = chip.begin_wake(asleep);
            chip.complete_transition(now);
        }
        OPS
    })
}

/// `SlackAccount::credit_request` plus `ReleaseRule::should_release`, per
/// credited request.
fn ta() -> f64 {
    const PENDING: [[u32; 3]; 4] = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 2, 1]];
    let config = paper_system();
    let t_req = config.t_request();
    let rule = ReleaseRule::new(config.k_buses_to_saturate(), config.buses.len(), t_req);
    let mut slack = SlackAccount::new(0.1, t_req);
    ns_per_op(|| {
        let mut released = 0u64;
        for i in 0..OPS as usize {
            slack.credit_request();
            released += u64::from(rule.should_release(&PENDING[i % 4], slack.slack_ps()));
        }
        black_box(released);
        OPS
    })
}

/// `pl::plan_and_apply` on a fresh sequential layout, with popularity
/// counts from the workload's trace pages; the layout copy is timed
/// separately and subtracted.
fn pl(pages: &[u64]) -> f64 {
    let config = paper_system();
    let frames = config.frames_per_chip();
    let pl = PlConfig::new(2);
    let mut tracker = PopularityTracker::new(config.pages);
    for &p in pages {
        tracker.record(p % config.pages as u64);
    }
    let layout = PageMap::new_sequential(&config);
    let plan = ns_per_op(|| {
        let mut map = layout.clone();
        black_box(plan_and_apply(&tracker, &mut map, &pl, frames).len());
        1
    });
    let copy = ns_per_op(|| {
        black_box(layout.clone().pages());
        1
    });
    (plan - copy).max(0.0)
}

/// `DiskArray::submit` with the OLTP-St array geometry, one page-sized
/// request every 50 µs at a random page.
fn disk() -> f64 {
    let mut array = DiskArray::new(DiskParams::server_15k(), 128, 128);
    let slots = array.capacity_sectors() / 16;
    let mut rng = DetRng::new(7);
    let mut now = SimTime::ZERO;
    ns_per_op(|| {
        for _ in 0..OPS / 16 {
            now += SimDuration::from_us(50);
            let req = DiskRequest {
                lba: rng.below(slots) * 16,
                sectors: 16,
                kind: RequestKind::Read,
            };
            black_box(array.submit(now, req));
        }
        OPS / 16
    })
}

/// One layer's replay result.
pub struct Replay {
    /// Module the layer lives in.
    pub module: &'static str,
    /// The layer's metric prefix within the module (`""` for the whole
    /// module, else ending in `.`).
    pub layer: &'static str,
    pub ns_per_op: f64,
}

/// Every replay. `depth` is the workload's measured maximum calendar
/// depth; `pages` are the DMA pages of its first trace.
pub fn all(depth: usize, pages: &[u64]) -> Vec<Replay> {
    let replay = |module, layer, ns_per_op| Replay {
        module,
        layer,
        ns_per_op,
    };
    vec![
        replay("simcore", "event.", queue(depth)),
        replay("iobus", "", bus()),
        replay("mempower", "service.", chip_service()),
        replay("mempower", "transition.", chip_transition()),
        replay("dmamem", "ta.", ta()),
        replay("dmamem", "pl.", pl(pages)),
        replay("disksim", "", disk()),
    ]
}
