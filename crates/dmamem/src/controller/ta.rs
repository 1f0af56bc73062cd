//! Temporal alignment (DMA-TA): slack accounting and the release rule.
//!
//! Paper Section 4.1.2. The controller may delay the *first* DMA-memory
//! request of a transfer whose target chip is in a low-power mode. A global
//! **slack** account bounds the delays so that the average request service
//! time stays within `(1 + mu) * T`:
//!
//! * every arriving DMA-memory request credits `mu * T`;
//! * each epoch pessimistically debits `epoch_length * n_pending`;
//! * waking a chip debits `wake_latency * n_pending(chip)`;
//! * processor interference debits `proc_service * n_pending(chip)`.
//!
//! A chip releases its gathered requests when either `k = ceil(Rm/Rb)`
//! transfers are pending for it (full utilization needs no more) or the
//! projected queueing delay `n * U / 2` reaches the available slack, with
//! `U = m * T * ceil(r / k)`.

use simcore::SimDuration;

/// The global performance-guarantee account (picosecond slack).
///
/// Negative slack means the guarantee is currently not being maintained;
/// the release rule prevents the controller from *adding* delay in that
/// state.
///
/// # Example
///
/// ```
/// use dmamem::controller::ta::SlackAccount;
/// use simcore::SimDuration;
///
/// let mut s = SlackAccount::new(0.5, SimDuration::from_ns(8));
/// s.credit_request();
/// assert_eq!(s.slack_ps(), 4_000.0); // mu * T = 4 ns
/// ```
#[derive(Debug, Clone)]
pub struct SlackAccount {
    slack_ps: f64,
    mu: f64,
    t_req: SimDuration,
    credited: u64,
    debited_epoch_ps: f64,
    debited_wake_ps: f64,
    debited_proc_ps: f64,
    debited_queue_ps: f64,
    min_slack_ps: f64,
}

impl SlackAccount {
    /// Creates an empty account for budget `mu` and reference request time
    /// `T`.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is negative or not finite, or `T` is zero.
    pub fn new(mu: f64, t_req: SimDuration) -> Self {
        assert!(mu >= 0.0 && mu.is_finite(), "invalid mu: {mu}");
        assert!(!t_req.is_zero(), "zero reference request time");
        SlackAccount {
            slack_ps: 0.0,
            mu,
            t_req,
            credited: 0,
            debited_epoch_ps: 0.0,
            debited_wake_ps: 0.0,
            debited_proc_ps: 0.0,
            debited_queue_ps: 0.0,
            min_slack_ps: 0.0,
        }
    }

    /// Current slack in picoseconds (may be negative).
    pub fn slack_ps(&self) -> f64 {
        self.slack_ps
    }

    /// The budget `mu`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Requests credited so far.
    pub fn credited_requests(&self) -> u64 {
        self.credited
    }

    /// Credits `mu * T` for one arriving DMA-memory request; returns the
    /// credited amount in picoseconds (for audit-trail mirroring).
    pub fn credit_request(&mut self) -> f64 {
        let amount = self.mu * self.t_req.as_ps() as f64;
        self.slack_ps += amount;
        self.credited += 1;
        amount
    }

    /// Epoch debit: every pending request is pessimistically assumed to
    /// wait the whole epoch.
    pub fn debit_epoch(&mut self, epoch: SimDuration, pending_total: usize) {
        let d = epoch.as_ps() as f64 * pending_total as f64;
        self.slack_ps -= d;
        self.debited_epoch_ps += d;
        self.note();
    }

    /// Wake debit: the activation latency delays every request pending for
    /// that chip.
    pub fn debit_wake(&mut self, wake_latency: SimDuration, pending_on_chip: usize) {
        let d = wake_latency.as_ps() as f64 * pending_on_chip as f64;
        self.slack_ps -= d;
        self.debited_wake_ps += d;
        self.note();
    }

    /// Processor-interference debit: a processor access occupies the chip
    /// for `service`, delaying the chip's pending DMA requests.
    pub fn debit_proc(&mut self, service: SimDuration, pending_on_chip: usize) {
        let d = service.as_ps() as f64 * pending_on_chip as f64;
        self.slack_ps -= d;
        self.debited_proc_ps += d;
        self.note();
    }

    /// Queueing debit: a served DMA-memory request waited this long at the
    /// chip beyond its service time (oversubscription when more than `k`
    /// streams converge on one chip). Charged after the fact so the
    /// release rule tightens when alignment starts to queue.
    pub fn debit_queue(&mut self, waited_ps: f64) {
        debug_assert!(waited_ps >= 0.0);
        self.slack_ps -= waited_ps;
        self.debited_queue_ps += waited_ps;
        self.note();
    }

    /// Residual debit at release time: delay incurred since the last epoch
    /// boundary (or since arrival, whichever is later) that the epoch
    /// accounting has not charged yet. Without this, a request that arrives
    /// and releases inside a single epoch escapes accounting entirely.
    pub fn debit_residual(&mut self, delay_ps: f64) {
        debug_assert!(delay_ps >= 0.0);
        self.slack_ps -= delay_ps;
        self.debited_epoch_ps += delay_ps;
        self.note();
    }

    /// The lowest slack balance observed (overdraft telemetry).
    pub fn min_slack_ps(&self) -> f64 {
        self.min_slack_ps
    }

    /// Records the current balance into the overdraft telemetry; called by
    /// debit paths.
    fn note(&mut self) {
        if self.slack_ps < self.min_slack_ps {
            self.min_slack_ps = self.slack_ps;
        }
    }

    /// Books `rounds` back-to-back repetitions of the calls `ops`, bit for
    /// bit as making them would. The balance takes every credit and debit
    /// in order, with the minimum checked after each debit, and the queue
    /// debits add up in the same order; the credited count grows in one
    /// step.
    pub fn book_rounds(&mut self, ops: &[SlackOp], rounds: u64) {
        let (mut slack, mut min, mut queue) =
            (self.slack_ps, self.min_slack_ps, self.debited_queue_ps);
        for _ in 0..rounds {
            for op in ops {
                match *op {
                    SlackOp::Credit(amount) => slack += amount,
                    SlackOp::DebitQueue(waited) => {
                        slack -= waited;
                        queue += waited;
                        if slack < min {
                            min = slack;
                        }
                    }
                }
            }
        }
        (self.slack_ps, self.min_slack_ps, self.debited_queue_ps) = (slack, min, queue);
        let credits = ops.iter().filter(|op| matches!(op, SlackOp::Credit(_)));
        self.credited += credits.count() as u64 * rounds;
    }

    /// Total picoseconds debited, by source `(epoch, wake, proc, queue)`.
    pub fn debits_ps(&self) -> (f64, f64, f64, f64) {
        (
            self.debited_epoch_ps,
            self.debited_wake_ps,
            self.debited_proc_ps,
            self.debited_queue_ps,
        )
    }
}

/// One taped slack call of a request-train period (see
/// [`SlackAccount::book_rounds`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlackOp {
    /// [`SlackAccount::credit_request`], with the amount it credited.
    Credit(f64),
    /// [`SlackAccount::debit_queue`], with the delay it debited.
    DebitQueue(f64),
}

/// The per-chip gather/release rule.
#[derive(Debug, Clone, Copy)]
pub struct ReleaseRule {
    /// `k = ceil(Rm / Rb)`: buses needed to saturate a chip.
    pub k: usize,
    /// Total number of I/O buses `r`.
    pub r: usize,
    /// Reference request time `T`.
    pub t_req: SimDuration,
}

impl ReleaseRule {
    /// Creates the rule.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `r` is zero, or `T` is zero.
    pub fn new(k: usize, r: usize, t_req: SimDuration) -> Self {
        assert!(k > 0 && r > 0, "k and r must be positive");
        assert!(!t_req.is_zero(), "zero reference request time");
        ReleaseRule { k, r, t_req }
    }

    /// `U = m * T * ceil(r / k)`: upper bound (ps) on the time to drain all
    /// pending requests, where `m` is the maximum pending count on any one
    /// bus (paper Section 4.1.2).
    pub fn upper_bound_ps(&self, m: usize) -> f64 {
        let groups = self.r.div_ceil(self.k);
        m as f64 * self.t_req.as_ps() as f64 * groups as f64
    }

    /// Decides whether a chip with the given per-bus pending first-request
    /// counts must be released now. `slack_ps` is the global slack.
    ///
    /// Returns `true` when enough transfers are gathered for full
    /// utilization (`n >= k`), or when waiting longer would overrun the
    /// performance budget (`n * U / 2 >= slack`).
    pub fn should_release(&self, per_bus_pending: &[u32], slack_ps: f64) -> bool {
        debug_assert_eq!(per_bus_pending.len(), self.r);
        let n: u32 = per_bus_pending.iter().sum();
        if n == 0 {
            return false;
        }
        if n as usize >= self.k {
            return true;
        }
        // simlint::allow(panic-path, "the slice length is debug-asserted to equal r above, and r >= 1 by construction; max of a non-empty slice")
        let m = *per_bus_pending.iter().max().expect("r > 0") as usize;
        let projected_delay = n as f64 * self.upper_bound_ps(m) / 2.0;
        projected_delay >= slack_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> SimDuration {
        SimDuration::from_ns(8)
    }

    #[test]
    fn credit_and_debit_arithmetic() {
        let mut s = SlackAccount::new(0.25, t());
        for _ in 0..4 {
            // Each credit is mu * T = 2 ns and is reported back.
            assert_eq!(s.credit_request(), 2_000.0);
        }
        // 4 * 0.25 * 8ns = 8 ns.
        assert_eq!(s.slack_ps(), 8_000.0);
        assert_eq!(s.credited_requests(), 4);
        s.debit_epoch(SimDuration::from_ns(1), 3);
        assert_eq!(s.slack_ps(), 5_000.0);
        s.debit_wake(SimDuration::from_ns(2), 2);
        assert_eq!(s.slack_ps(), 1_000.0);
        s.debit_proc(SimDuration::from_ns(2), 1);
        assert_eq!(s.slack_ps(), -1_000.0);
        s.debit_queue(500.0);
        assert_eq!(s.slack_ps(), -1_500.0);
        let (e, w, p, q) = s.debits_ps();
        assert_eq!((e, w, p, q), (3_000.0, 4_000.0, 2_000.0, 500.0));
        assert_eq!(s.min_slack_ps(), -1_500.0);
    }

    #[test]
    fn zero_mu_accrues_no_slack() {
        let mut s = SlackAccount::new(0.0, t());
        for _ in 0..100 {
            s.credit_request();
        }
        assert_eq!(s.slack_ps(), 0.0);
    }

    #[test]
    fn releases_at_k_gathered() {
        let rule = ReleaseRule::new(3, 3, t());
        // Huge slack: only the n >= k condition can trigger.
        let slack = 1e15;
        assert!(!rule.should_release(&[1, 0, 0], slack));
        assert!(!rule.should_release(&[1, 1, 0], slack));
        assert!(rule.should_release(&[1, 1, 1], slack));
    }

    #[test]
    fn releases_when_slack_exhausted() {
        let rule = ReleaseRule::new(3, 3, t());
        // One pending request: U = 1 * 8ns * 1 = 8ns; nU/2 = 4ns.
        assert!(!rule.should_release(&[1, 0, 0], 4_001.0));
        assert!(rule.should_release(&[1, 0, 0], 4_000.0));
        assert!(rule.should_release(&[1, 0, 0], -5.0));
    }

    #[test]
    fn no_pending_never_releases() {
        let rule = ReleaseRule::new(3, 3, t());
        assert!(!rule.should_release(&[0, 0, 0], -1e12));
    }

    #[test]
    fn upper_bound_scales_with_m_and_groups() {
        // r=6 buses, k=3 => 2 groups.
        let rule = ReleaseRule::new(3, 6, t());
        assert_eq!(rule.upper_bound_ps(1), 16_000.0);
        assert_eq!(rule.upper_bound_ps(2), 32_000.0);
        // r=3, k=3 => 1 group.
        let rule = ReleaseRule::new(3, 3, t());
        assert_eq!(rule.upper_bound_ps(2), 16_000.0);
    }

    #[test]
    fn ratio_one_releases_immediately_on_first() {
        // k=1 (bus as fast as memory): gathering is pointless, first
        // request releases at once.
        let rule = ReleaseRule::new(1, 3, t());
        assert!(rule.should_release(&[1, 0, 0], 1e15));
    }
}
