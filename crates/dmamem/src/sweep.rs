//! The parallel sweep engine: memoized simulation runs over shared traces.
//!
//! Every figure of the paper's evaluation is a matrix of independent
//! [`ServerSimulator::run`] calls, and the matrix is highly redundant: the
//! same baseline configuration is re-simulated for nearly every row, and
//! the same synthetic trace is regenerated per point. [`SweepCtx`] removes
//! both redundancies and runs what remains in parallel:
//!
//! * **Shared traces** — [`SweepCtx::trace`] caches generated traces as
//!   [`Arc<Trace>`] under a caller-supplied key, so every scheme run over
//!   a workload reads one in-memory copy.
//! * **Memoized runs** — results are cached under an injective key built
//!   from the full `(SystemConfig, Scheme, trace)` tuple (`Debug`-derived;
//!   Rust's shortest-roundtrip float formatting makes it collision-free),
//!   so a baseline shared by six CP-Limit points executes once.
//! * **Twin answers** — a job whose PL has K > 2 groups takes its PL(2)
//!   twin's result when the twin's plans never gave K groups a layout of
//!   their own (see [`SweepCtx::run_batch`]).
//! * **Parallel batches** — [`SweepCtx::run_batch`] executes the
//!   non-memoized jobs on a [`simcore::par`] work-stealing pool and
//!   returns results in job order.
//!
//! Determinism: the simulator itself is deterministic, batch results come
//! back in input order, and memoization only ever substitutes a result
//! for an identical `(config, scheme, trace)` run, or for a PL(K) run that
//! provably repeats its PL(2) twin step for step — so figure outputs are
//! **bit-identical** at any thread count, with memoization on or off.
//! `crates/dmamem/tests/sweep_determinism.rs` property-tests exactly that.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dma_trace::Trace;
use simcore::obs::LiveState;
use simcore::par;
use simcore::prof::{EngineProfile, Phase};

use crate::config::{PlConfig, Scheme, SystemConfig};
use crate::controller::pl::agrees_with_two_groups;
use crate::metrics::SimResult;
use crate::system::ServerSimulator;

// The engine moves these across worker threads; keep the requirement
// visible at compile time rather than deep inside a closure error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimResult>();
    assert_send_sync::<Trace>();
    assert_send_sync::<SystemConfig>();
    assert_send_sync::<Scheme>();
};

/// A generated trace shared across sweep jobs: an [`Arc<Trace>`] plus the
/// cache key identifying how it was generated.
#[derive(Debug, Clone)]
pub struct SharedTrace {
    key: Arc<str>,
    trace: Arc<Trace>,
}

impl SharedTrace {
    /// Wraps an already-built trace under an explicit identity key.
    ///
    /// The key must uniquely describe the trace's contents (generator
    /// parameters, duration, seed); two different traces under one key
    /// would alias in the memo table.
    pub fn new(key: impl Into<String>, trace: Trace) -> Self {
        SharedTrace {
            key: Arc::from(key.into()),
            trace: Arc::new(trace),
        }
    }

    /// The identity key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The shared trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

/// One sweep job: a full simulation of `scheme` on `config` over `trace`.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// System configuration for the run.
    pub config: SystemConfig,
    /// Scheme under evaluation.
    pub scheme: Scheme,
    /// The (shared) input trace.
    pub trace: SharedTrace,
}

impl SimJob {
    /// Creates a job.
    pub fn new(config: SystemConfig, scheme: Scheme, trace: SharedTrace) -> Self {
        SimJob {
            config,
            scheme,
            trace,
        }
    }

    /// The memoization key: injective over `(config, scheme, trace key)`.
    ///
    /// Built from `Debug` output; Rust formats floats as the shortest
    /// string that round-trips, so distinct configurations always produce
    /// distinct keys (property-tested in this module and in
    /// `tests/sweep_determinism.rs`).
    pub fn memo_key(&self) -> String {
        // \u{1} cannot appear in Debug output of these plain data types,
        // so the three parts cannot bleed into each other.
        format!(
            "{:?}\u{1}{:?}\u{1}{}",
            self.config, self.scheme, self.trace.key
        )
    }

    /// The job's PL(2) twin when its PL has more than two groups: the same
    /// configuration, trace and scheme, with two groups.
    fn pl2_twin(&self) -> Option<SimJob> {
        let pl = self.scheme.pl.filter(|pl| pl.groups > 2)?;
        Some(SimJob {
            scheme: Scheme {
                pl: Some(PlConfig { groups: 2, ..pl }),
                ..self.scheme
            },
            ..self.clone()
        })
    }
}

/// Memoization statistics of a [`SweepCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Jobs answered from the result cache (or deduplicated in-batch).
    pub hits: u64,
    /// Simulations executed, PL(2) twins run for a batch included.
    pub misses: u64,
    /// Jobs with more than two PL groups answered by their PL(2) twin's
    /// run (see [`SweepCtx::run_batch`]).
    pub equiv_hits: u64,
    /// Traces served from the trace cache.
    pub trace_hits: u64,
    /// Traces generated.
    pub trace_misses: u64,
}

/// Aggregated engine self-profile across every simulation a [`SweepCtx`]
/// actually executed (memo hits do not re-run the engine, so they do not
/// re-count). Every field is deterministic: sums and maxima of per-run
/// deterministic counters commute, so totals are bit-identical at any
/// thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfTotals {
    /// Simulations executed.
    pub sims: u64,
    /// Events dispatched across all runs.
    pub events: u64,
    /// Calendar heap pushes across all runs.
    pub heap_pushes: u64,
    /// Calendar heap pops across all runs.
    pub heap_pops: u64,
    /// Max calendar depth over all runs.
    pub max_heap_depth: u64,
    /// DMA transfers allocated across all runs.
    pub transfers: u64,
    /// Chip-level DMA-memory requests allocated across all runs.
    pub requests: u64,
    /// Requests booked in bulk by periodic train batches across all runs.
    pub batched_requests: u64,
    /// Events of chips with no DMA work run from the engine's side list
    /// instead of the queue, across all runs.
    pub deferred_events: u64,
    /// Per-phase call counts, indexed in [`Phase::ALL`] order.
    pub phase_calls: [u64; 4],
}

impl ProfTotals {
    /// The counter growth since an `earlier` snapshot of the same
    /// context. Monotonic counters are differenced; `max_heap_depth` is
    /// kept from `self` (a lifetime max cannot be differenced — use
    /// [`SweepCtx::take_window_max_depth`] for per-window maxima).
    pub fn since(&self, earlier: &ProfTotals) -> ProfTotals {
        let sub4 = |a: [u64; 4], b: [u64; 4]| [a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]];
        ProfTotals {
            sims: self.sims - earlier.sims,
            events: self.events - earlier.events,
            heap_pushes: self.heap_pushes - earlier.heap_pushes,
            heap_pops: self.heap_pops - earlier.heap_pops,
            max_heap_depth: self.max_heap_depth,
            transfers: self.transfers - earlier.transfers,
            requests: self.requests - earlier.requests,
            batched_requests: self.batched_requests - earlier.batched_requests,
            deferred_events: self.deferred_events - earlier.deferred_events,
            phase_calls: sub4(self.phase_calls, earlier.phase_calls),
        }
    }
}

/// Atomic accumulator behind [`SweepCtx::prof_totals`]: every executed
/// simulation folds its [`EngineProfile`] in with commutative ops
/// (adds and maxes), so the totals are order-independent.
#[derive(Debug, Default)]
struct ProfAccum {
    sims: AtomicU64,
    events: AtomicU64,
    heap_pushes: AtomicU64,
    heap_pops: AtomicU64,
    depth_max: AtomicU64,
    depth_window_max: AtomicU64,
    transfers: AtomicU64,
    requests: AtomicU64,
    batched_requests: AtomicU64,
    deferred_events: AtomicU64,
    phase_calls: [AtomicU64; 4],
}

impl ProfAccum {
    fn record(&self, p: &EngineProfile) {
        self.sims.fetch_add(1, Ordering::Relaxed);
        self.events.fetch_add(p.events, Ordering::Relaxed);
        self.heap_pushes.fetch_add(p.heap_pushes, Ordering::Relaxed);
        self.heap_pops.fetch_add(p.heap_pops, Ordering::Relaxed);
        self.depth_max
            .fetch_max(p.max_heap_depth, Ordering::Relaxed);
        self.depth_window_max
            .fetch_max(p.max_heap_depth, Ordering::Relaxed);
        self.transfers.fetch_add(p.transfers, Ordering::Relaxed);
        self.requests.fetch_add(p.requests, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(p.batched_requests, Ordering::Relaxed);
        self.deferred_events
            .fetch_add(p.deferred_events, Ordering::Relaxed);
        for (calls, phase) in self.phase_calls.iter().zip(Phase::ALL) {
            calls.fetch_add(p.phases.get(phase).calls, Ordering::Relaxed);
        }
    }

    fn totals(&self) -> ProfTotals {
        ProfTotals {
            sims: self.sims.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            heap_pushes: self.heap_pushes.load(Ordering::Relaxed),
            heap_pops: self.heap_pops.load(Ordering::Relaxed),
            max_heap_depth: self.depth_max.load(Ordering::Relaxed),
            transfers: self.transfers.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            deferred_events: self.deferred_events.load(Ordering::Relaxed),
            phase_calls: self
                .phase_calls
                .each_ref()
                .map(|a| a.load(Ordering::Relaxed)),
        }
    }
}

/// The sweep engine: a thread pool plus result and trace caches.
///
/// # Example
///
/// ```
/// use dmamem::sweep::{SimJob, SweepCtx};
/// use dmamem::{Scheme, SystemConfig};
/// use dma_trace::TraceGen;
/// use simcore::SimDuration;
///
/// let ctx = SweepCtx::new(2);
/// let trace = ctx.trace("demo", || {
///     dma_trace::SyntheticStorageGen::default().generate(SimDuration::from_us(200), 7)
/// });
/// let jobs = vec![
///     SimJob::new(SystemConfig::default(), Scheme::baseline(), trace.clone()),
///     SimJob::new(SystemConfig::default(), Scheme::dma_ta(0.5), trace.clone()),
///     // Duplicate of the first job: memoized, simulated only once.
///     SimJob::new(SystemConfig::default(), Scheme::baseline(), trace),
/// ];
/// let results = ctx.run_batch(jobs);
/// assert_eq!(results[0].energy, results[2].energy);
/// assert_eq!(ctx.memo_stats().misses, 2);
/// ```
#[derive(Debug)]
pub struct SweepCtx {
    threads: usize,
    memoize: bool,
    live: Option<Arc<LiveState>>,
    prof: ProfAccum,
    // simlint::allow(nondet-iter, "memo cache: results are read back per key, never iterated; order cannot reach sim output")
    memo: Mutex<HashMap<Arc<str>, Arc<SimResult>>>,
    // simlint::allow(nondet-iter, "trace cache: keyed lookups only, never iterated; order cannot reach sim output")
    traces: Mutex<HashMap<Arc<str>, SharedTrace>>,
    hits: AtomicU64,
    misses: AtomicU64,
    equiv_hits: AtomicU64,
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
}

impl SweepCtx {
    /// Creates a sweep context running jobs on up to `threads` workers
    /// (`0` = all available cores), with memoization enabled.
    pub fn new(threads: usize) -> Self {
        SweepCtx {
            threads: par::resolve_threads(threads),
            memoize: true,
            live: None,
            prof: ProfAccum::default(),
            // simlint::allow(nondet-iter, "memo cache construction; see field comment — lookups only")
            memo: Mutex::new(HashMap::new()),
            // simlint::allow(nondet-iter, "trace cache construction; see field comment — lookups only")
            traces: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            equiv_hits: AtomicU64::new(0),
            trace_hits: AtomicU64::new(0),
            trace_misses: AtomicU64::new(0),
        }
    }

    /// A single-threaded context, for one-off calls of the figure
    /// runners.
    pub fn serial() -> Self {
        SweepCtx::new(1)
    }

    /// Enables or disables result memoization (traces stay cached either
    /// way). Exists so tests can prove memoization does not change
    /// results; sweeps want it on.
    pub fn with_memoize(mut self, on: bool) -> Self {
        self.memoize = on;
        self
    }

    /// Attaches shared live-telemetry state: every batch that actually
    /// simulates becomes a wave in [`LiveState`], every executed job
    /// bumps the done-count and heartbeat, the `dmamem.sweep.*` progress
    /// counters mirror into the live `/metrics` snapshot, and every
    /// simulator gets the state for its sim-clock watermark. Simulated
    /// results are byte-identical with or without this — progress flows
    /// one way, out of the sweep.
    pub fn with_live(mut self, live: Arc<LiveState>) -> Self {
        self.live = Some(live);
        self
    }

    /// The attached live-telemetry state, if any.
    pub fn live(&self) -> Option<&Arc<LiveState>> {
        self.live.as_ref()
    }

    /// Aggregated engine self-profile over every simulation executed so
    /// far (memo hits excluded — they ran no engine).
    pub fn prof_totals(&self) -> ProfTotals {
        self.prof.totals()
    }

    /// Returns the max calendar depth seen since the last call and
    /// resets the window — lets a figure harness attribute heap depth
    /// per figure while [`ProfTotals::max_heap_depth`] stays lifetime.
    pub fn take_window_max_depth(&self) -> u64 {
        self.prof.depth_window_max.swap(0, Ordering::Relaxed)
    }

    /// Runs one job's simulator and folds the run's profile into the
    /// accumulator.
    fn simulate(&self, job: SimJob) -> Arc<SimResult> {
        let mut sim = ServerSimulator::new(job.config, job.scheme);
        if let Some(live) = &self.live {
            sim = sim.with_live(Arc::clone(live));
        }
        let r = Arc::new(sim.run(job.trace.trace()));
        self.prof.record(&r.profile);
        if let Some(live) = &self.live {
            live.job_done();
            live.add_engine_events(r.profile.events);
            let (wave, done, total) = live.progress();
            live.counter_set("dmamem.sweep.wave", wave);
            live.counter_set("dmamem.sweep.jobs_done", done);
            live.counter_set("dmamem.sweep.jobs_total", total);
        }
        r
    }

    /// Worker threads in use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Memoization statistics so far.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            equiv_hits: self.equiv_hits.load(Ordering::Relaxed),
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
        }
    }

    /// Returns the trace cached under `key`, generating it with `gen` on
    /// first use. The key must uniquely describe the generator, duration,
    /// and seed (see [`SharedTrace::new`]).
    pub fn trace(&self, key: impl Into<String>, gen: impl FnOnce() -> Trace) -> SharedTrace {
        let key: Arc<str> = Arc::from(key.into());
        // simlint::allow(panic-path, "lock poisoning means a sibling sweep thread already panicked; propagating the abort is the only sound continuation")
        let mut traces = self.traces.lock().expect("trace cache lock poisoned");
        if let Some(t) = traces.get(&key) {
            self.trace_hits.fetch_add(1, Ordering::Relaxed);
            return t.clone();
        }
        self.trace_misses.fetch_add(1, Ordering::Relaxed);
        let shared = SharedTrace {
            key: Arc::clone(&key),
            trace: Arc::new(gen()),
        };
        traces.insert(key, shared.clone());
        shared
    }

    /// Runs one job (memoized). Equivalent to a one-job [`run_batch`].
    pub fn run(
        &self,
        config: &SystemConfig,
        scheme: Scheme,
        trace: &SharedTrace,
    ) -> Arc<SimResult> {
        self.run_batch(vec![SimJob::new(config.clone(), scheme, trace.clone())])
            .pop()
            // simlint::allow(panic-path, "run_batch returns exactly one result per job by construction; a miscount is a logic bug, not a runtime input")
            .expect("one job in, one result out")
    }

    /// Runs a batch of jobs, in parallel, and returns their results in
    /// job order.
    ///
    /// With memoization on, jobs whose key already has a cached result —
    /// or that repeat an earlier job in this same batch — do not
    /// simulate, and the batch runs in two waves. Wave one runs every job
    /// but those whose PL has more than two groups, plus each such job's
    /// PL(2) twin: the same configuration, trace and scheme with two
    /// groups. Wave two answers each of those jobs from its twin when, at
    /// the twin's largest hot-chip count, K groups own the same chips as
    /// two do ([`agrees_with_two_groups`]); the rest simulate. Everything
    /// that simulates runs on the work-stealing pool. With memoization
    /// off, every job simulates.
    pub fn run_batch(&self, jobs: Vec<SimJob>) -> Vec<Arc<SimResult>> {
        if !self.memoize {
            self.misses.fetch_add(jobs.len() as u64, Ordering::Relaxed);
            if let Some(live) = &self.live {
                if !jobs.is_empty() {
                    live.begin_wave(jobs.len() as u64);
                }
            }
            return par::map(self.threads, jobs, |job| self.simulate(job));
        }

        let keys: Vec<Arc<str>> = jobs.iter().map(|j| Arc::from(j.memo_key())).collect();
        let twins: Vec<Option<(Arc<str>, SimJob)>> = jobs
            .iter()
            .map(|j| j.pl2_twin().map(|t| (Arc::from(t.memo_key()), t)))
            .collect();
        // The batch's own jobs go first, so a twin that repeats one of
        // them is not counted twice.
        let mut wave: Vec<(&Arc<str>, &SimJob, Part<'_>)> = Vec::new();
        for ((job, key), twin) in jobs.iter().zip(&keys).zip(&twins) {
            if twin.is_none() {
                wave.push((key, job, Part::Job));
            }
        }
        for (key, job) in twins.iter().flatten() {
            wave.push((key, job, Part::Twin));
        }
        self.run_wave(wave);
        let mut wave = Vec::new();
        for ((job, key), twin) in jobs.iter().zip(&keys).zip(&twins) {
            if let Some((twin_key, _)) = twin {
                wave.push((key, job, Part::Equiv(twin_key)));
            }
        }
        self.run_wave(wave);

        // simlint::allow(panic-path, "lock poisoning means a sibling sweep thread already panicked; propagating the abort is the only sound continuation")
        let memo = self.memo.lock().expect("memo cache lock poisoned");
        keys.iter()
            // simlint::allow(panic-path, "every key was memo-cached, answered by its twin or simulated and inserted by the waves above; absence is a logic bug worth aborting on")
            .map(|k| Arc::clone(memo.get(k).expect("every batch key resolved")))
            .collect()
    }

    /// Resolves one wave of [`run_batch`](SweepCtx::run_batch): the
    /// first occurrence of each key the memo lacks is answered by its
    /// twin ([`Part::Equiv`]) or simulated, and every result lands in the
    /// memo.
    fn run_wave(&self, wave: Vec<(&Arc<str>, &SimJob, Part<'_>)>) {
        let mut pending: Vec<(Arc<str>, SimJob)> = Vec::new();
        {
            // simlint::allow(panic-path, "lock poisoning means a sibling sweep thread already panicked; propagating the abort is the only sound continuation")
            let mut memo = self.memo.lock().expect("memo cache lock poisoned");
            // simlint::allow(nondet-iter, "first-occurrence dedup set: membership tests only, never iterated")
            let mut claimed: HashMap<&str, ()> = HashMap::new();
            for (key, job, part) in wave {
                if memo.contains_key(key) || claimed.contains_key(key.as_ref()) {
                    if !matches!(part, Part::Twin) {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
                if let Part::Equiv(twin_key) = part {
                    if let Some(r) = memo.get(twin_key).and_then(|twin| twin_answer(job, twin)) {
                        memo.insert(Arc::clone(key), r);
                        self.equiv_hits.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
                claimed.insert(key, ());
                self.misses.fetch_add(1, Ordering::Relaxed);
                pending.push((Arc::clone(key), job.clone()));
            }
        }
        if let Some(live) = &self.live {
            // Only waves that actually simulate count; fully memoized
            // ones finish instantly and would skew progress.
            if !pending.is_empty() {
                live.begin_wave(pending.len() as u64);
            }
        }
        let fresh = par::map(self.threads, pending, |(key, job)| {
            (key, self.simulate(job))
        });
        // simlint::allow(panic-path, "lock poisoning means a sibling sweep thread already panicked; propagating the abort is the only sound continuation")
        let mut memo = self.memo.lock().expect("memo cache lock poisoned");
        for (key, r) in fresh {
            memo.insert(key, r);
        }
    }
}

/// What a job of a [`SweepCtx::run_wave`] stands for.
enum Part<'a> {
    /// A job of the batch.
    Job,
    /// The PL(2) twin of a job of the batch; a hit on it is not counted.
    Twin,
    /// A job of the batch with more than two PL groups, answered by the
    /// result under its twin's key when the group layouts agree.
    Equiv(&'a Arc<str>),
}

/// The result of `job`, a PL(K > 2) run, taken from its PL(2) `twin`'s
/// run if every plan of the twin chose a hot-chip count at which K groups
/// lay out as two do. From equal states the two runs then make equal
/// plans, so by induction over the plans they are the same run; only the
/// scheme label differs. `None` when the layouts part at some plan.
fn twin_answer(job: &SimJob, twin: &SimResult) -> Option<Arc<SimResult>> {
    let pl = job.scheme.pl?;
    agrees_with_two_groups(pl.groups, twin.max_hot_chips, job.config.chips).then(|| {
        Arc::new(SimResult {
            scheme: job.scheme.label(),
            ..twin.clone()
        })
    })
}

impl Default for SweepCtx {
    fn default() -> Self {
        SweepCtx::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dma_trace::TraceGen;
    use simcore::SimDuration;

    fn tiny_trace(ctx: &SweepCtx, seed: u64) -> SharedTrace {
        ctx.trace(format!("tiny|{seed}"), || {
            dma_trace::SyntheticStorageGen {
                pages: 4096,
                ..Default::default()
            }
            .generate(SimDuration::from_us(300), seed)
        })
    }

    fn small_config() -> SystemConfig {
        SystemConfig {
            pages: 4096,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn duplicate_jobs_simulate_once_and_share_results() {
        let ctx = SweepCtx::new(2);
        let trace = tiny_trace(&ctx, 5);
        let jobs: Vec<SimJob> = (0..6)
            .map(|_| SimJob::new(small_config(), Scheme::baseline(), trace.clone()))
            .collect();
        let results = ctx.run_batch(jobs);
        assert_eq!(results.len(), 6);
        for r in &results[1..] {
            assert!(Arc::ptr_eq(&results[0], r), "memo must share the Arc");
        }
        let stats = ctx.memo_stats();
        assert_eq!((stats.hits, stats.misses), (5, 1));
    }

    #[test]
    fn memo_persists_across_batches() {
        let ctx = SweepCtx::serial();
        let trace = tiny_trace(&ctx, 5);
        let a = ctx.run(&small_config(), Scheme::baseline(), &trace);
        let b = ctx.run(&small_config(), Scheme::baseline(), &trace);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.memo_stats().misses, 1);
    }

    #[test]
    fn trace_cache_generates_once_per_key() {
        let ctx = SweepCtx::serial();
        let a = tiny_trace(&ctx, 5);
        let b = tiny_trace(&ctx, 5);
        let c = tiny_trace(&ctx, 6);
        assert!(Arc::ptr_eq(&a.trace, &b.trace));
        assert!(!Arc::ptr_eq(&a.trace, &c.trace));
        let stats = ctx.memo_stats();
        assert_eq!((stats.trace_hits, stats.trace_misses), (1, 2));
    }

    #[test]
    fn memo_keys_distinguish_every_tuple_part() {
        let ctx = SweepCtx::serial();
        let trace = tiny_trace(&ctx, 5);
        let other_trace = tiny_trace(&ctx, 6);
        let base = SimJob::new(small_config(), Scheme::baseline(), trace.clone());
        let variants = [
            SimJob::new(
                SystemConfig {
                    chips: 16,
                    pages: 4096,
                    ..SystemConfig::default()
                },
                Scheme::baseline(),
                trace.clone(),
            ),
            SimJob::new(small_config(), Scheme::dma_ta(0.0), trace.clone()),
            SimJob::new(small_config(), Scheme::dma_ta(0.1), trace.clone()),
            // Floats that print alike under naive rounding must not
            // collide: shortest-roundtrip Debug keeps them distinct.
            SimJob::new(small_config(), Scheme::dma_ta(0.1 + 1e-12), trace.clone()),
            SimJob::new(small_config(), Scheme::dma_ta_pl(0.1, 2), trace.clone()),
            SimJob::new(small_config(), Scheme::dma_ta_pl(0.1, 3), trace),
            SimJob::new(small_config(), Scheme::baseline(), other_trace),
        ];
        let base_key = base.memo_key();
        let mut seen = std::collections::HashSet::new();
        seen.insert(base_key.clone());
        for v in &variants {
            let k = v.memo_key();
            assert_ne!(k, base_key);
            assert!(seen.insert(k), "memo key collision for {v:?}");
        }
    }

    #[test]
    fn pl_jobs_take_their_twins_result() {
        // Too short for a PL plan, so every layout agrees.
        let ctx = SweepCtx::new(2);
        let trace = tiny_trace(&ctx, 5);
        let job = |g| SimJob::new(small_config(), Scheme::dma_ta_pl(0.5, g), trace.clone());
        let r = ctx.run_batch(vec![job(2), job(3), job(3)]);
        assert_eq!(r[0].max_hot_chips, 0);
        assert_eq!(
            (r[1].scheme.as_str(), r[1].energy.clone()),
            ("DMA-TA-PL(3)", r[0].energy.clone())
        );
        assert!(Arc::ptr_eq(&r[1], &r[2]));
        let stats = ctx.memo_stats();
        assert_eq!((stats.misses, stats.equiv_hits, stats.hits), (1, 1, 1));
        // A twin outside the batch runs as a simulation of its own; one
        // already in the memo is not counted.
        let _ = ctx.run_batch(vec![job(6)]);
        let lone = SweepCtx::serial();
        let _ = lone.run_batch(vec![SimJob::new(
            small_config(),
            Scheme::dma_ta_pl(0.5, 6),
            tiny_trace(&lone, 5),
        )]);
        let (a, b) = (ctx.memo_stats(), lone.memo_stats());
        assert_eq!((a.misses, a.equiv_hits, a.hits), (1, 2, 1));
        assert_eq!((b.misses, b.equiv_hits, b.hits), (1, 1, 0));
    }

    #[test]
    fn memoize_off_still_returns_identical_results() {
        let on = SweepCtx::new(2);
        let off = SweepCtx::new(2).with_memoize(false);
        let jobs = |ctx: &SweepCtx| {
            let trace = tiny_trace(ctx, 9);
            vec![
                SimJob::new(small_config(), Scheme::baseline(), trace.clone()),
                SimJob::new(small_config(), Scheme::baseline(), trace.clone()),
                SimJob::new(small_config(), Scheme::dma_ta(0.5), trace),
            ]
        };
        let a = on.run_batch(jobs(&on));
        let b = off.run_batch(jobs(&off));
        assert_eq!(off.memo_stats().hits, 0);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.energy, y.energy);
            assert_eq!(x.dma_requests, y.dma_requests);
            assert_eq!(x.transfers, y.transfers);
        }
    }

    #[test]
    fn prof_totals_accumulate_and_window_resets() {
        let ctx = SweepCtx::new(2);
        let trace = tiny_trace(&ctx, 5);
        assert_eq!(ctx.prof_totals(), ProfTotals::default());
        let _ = ctx.run(&small_config(), Scheme::baseline(), &trace);
        let t = ctx.prof_totals();
        assert_eq!(t.sims, 1);
        assert!(t.events > 0 && t.heap_pushes >= t.heap_pops);
        assert!(t.max_heap_depth > 0);
        // Loop phases dispatch every event; the stats phase runs once per sim.
        assert_eq!(t.phase_calls.iter().sum::<u64>(), t.events + t.sims);
        assert_eq!(ctx.take_window_max_depth(), t.max_heap_depth);
        assert_eq!(ctx.take_window_max_depth(), 0, "window resets on take");
        // A memo hit runs no engine, so nothing new accumulates.
        let _ = ctx.run(&small_config(), Scheme::baseline(), &trace);
        let d = ctx.prof_totals().since(&t);
        assert_eq!((d.sims, d.events, d.heap_pushes), (0, 0, 0));
    }
}
