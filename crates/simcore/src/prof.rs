//! Engine self-profiling: deterministic hot-path counters.
//!
//! The obs/tracing stack watches the *simulated* system; this module
//! watches the *simulator*. Its counters — events dispatched, calendar
//! heap pushes/pops, max heap depth, per-phase call counts, allocation
//! totals — derive purely from simulated behavior, so they are
//! bit-identical across thread counts, same-seed replays, and hosts, and
//! a regression gate can fail hard on any drift.
//!
//! Nothing here reads a clock. Host time is measured from outside the
//! engine: per figure by the `bench` sweep runner, and per stage and per
//! layer by the `benchmark/` harness.
//!
//! The counters are plain integer bumps on paths that already touch the
//! same cache lines, so they stay on unconditionally.

/// Hot-path phases of one simulation run, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Plain event dispatch: traffic arrival, bus ticks, service
    /// completions, CPU-gap wakeups.
    Dispatch,
    /// Controller policy work: per-chip policy timers, epoch ticks, and
    /// layout (PL) intervals.
    Policy,
    /// Chip power-mode transition completions.
    Transition,
    /// End-of-run stat collection and result assembly.
    Stats,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 4] = [
        Phase::Dispatch,
        Phase::Policy,
        Phase::Transition,
        Phase::Stats,
    ];

    /// Stable lowercase label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::Policy => "policy",
            Phase::Transition => "transition",
            Phase::Stats => "stats",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accounting for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Times the phase ran.
    pub calls: u64,
}

/// Per-[`Phase`] accounting for one run (or a merged aggregate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    stats: [PhaseStat; 4],
}

impl PhaseProfile {
    /// Counts one call of `phase`.
    pub fn note(&mut self, phase: Phase) {
        self.stats[phase.index()].calls += 1;
    }

    /// Counts `n` calls of `phase` at once.
    ///
    /// Engines that process a run of identical events analytically (for
    /// example a virtual-time fast-forward across an idle gap covering
    /// `n` periodic ticks) use this so their call counts stay identical
    /// to an engine that dispatched every tick individually.
    pub fn note_n(&mut self, phase: Phase, n: u64) {
        self.stats[phase.index()].calls += n;
    }

    /// The accumulated stat for `phase`.
    pub fn get(&self, phase: Phase) -> PhaseStat {
        self.stats[phase.index()]
    }

    /// Total calls across all phases.
    pub fn total_calls(&self) -> u64 {
        self.stats.iter().map(|s| s.calls).sum()
    }

    /// Accumulates another profile into this one.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (mine, theirs) in self.stats.iter_mut().zip(other.stats.iter()) {
            mine.calls += theirs.calls;
        }
    }
}

/// Lifetime counters maintained by [`crate::EventQueue`] (always on —
/// they are integer bumps on lines that already touch the heap).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled over the queue's lifetime.
    pub pushes: u64,
    /// Events popped over the queue's lifetime.
    pub pops: u64,
    /// High-water mark of pending events (calendar depth).
    pub max_depth: u64,
}

/// One run's engine self-profile; also the unit of aggregation across
/// a sweep (see [`EngineProfile::merge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Events dispatched by the run loop (excludes a final popped event
    /// cut off by the horizon check — see `heap_pops` for raw pops).
    pub events: u64,
    /// Calendar heap pushes.
    pub heap_pushes: u64,
    /// Calendar heap pops.
    pub heap_pops: u64,
    /// Max calendar depth reached (max over runs when merged).
    pub max_heap_depth: u64,
    /// DMA transfers allocated.
    pub transfers: u64,
    /// Chip-level DMA-memory requests allocated.
    pub requests: u64,
    /// Requests an engine booked in bulk instead of dispatching their
    /// events one by one (a share of `requests`).
    pub batched_requests: u64,
    /// Events of chips with no DMA work that an engine ran from a side
    /// list instead of the queue (a share of `events`).
    pub deferred_events: u64,
    /// Per-phase call counts.
    pub phases: PhaseProfile,
}

impl EngineProfile {
    /// Accumulates another run's profile into this aggregate: counters
    /// sum, `max_heap_depth` takes the max.
    pub fn merge(&mut self, other: &EngineProfile) {
        self.events += other.events;
        self.heap_pushes += other.heap_pushes;
        self.heap_pops += other.heap_pops;
        self.max_heap_depth = self.max_heap_depth.max(other.max_heap_depth);
        self.transfers += other.transfers;
        self.requests += other.requests;
        self.batched_requests += other.batched_requests;
        self.deferred_events += other.deferred_events;
        self.phases.merge(&other.phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_profile_counts_and_merges() {
        let mut a = PhaseProfile::default();
        a.note(Phase::Dispatch);
        a.note(Phase::Dispatch);
        a.note(Phase::Policy);
        let mut b = PhaseProfile::default();
        b.note(Phase::Policy);
        b.note_n(Phase::Transition, 3);
        a.merge(&b);
        assert_eq!(a.get(Phase::Dispatch).calls, 2);
        assert_eq!(a.get(Phase::Policy), PhaseStat { calls: 2 });
        assert_eq!(a.get(Phase::Transition).calls, 3);
        assert_eq!(a.total_calls(), 7);
    }

    #[test]
    fn phase_labels_are_stable() {
        let labels: Vec<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["dispatch", "policy", "transition", "stats"]);
    }

    #[test]
    fn engine_profile_merge_sums_and_maxes() {
        let mut total = EngineProfile::default();
        let a = EngineProfile {
            events: 10,
            heap_pushes: 12,
            heap_pops: 11,
            max_heap_depth: 5,
            transfers: 3,
            requests: 24,
            batched_requests: 10,
            deferred_events: 4,
            phases: PhaseProfile::default(),
        };
        let b = EngineProfile {
            max_heap_depth: 2,
            ..a
        };
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.events, 20);
        assert_eq!(total.heap_pushes, 24);
        assert_eq!(total.max_heap_depth, 5);
        assert_eq!(total.requests, 48);
        assert_eq!(total.batched_requests, 20);
        assert_eq!(total.deferred_events, 8);
    }
}
