//! Property tests for the controller decision logic (slack account,
//! release rule, PL planning, page map).

use dmamem::controller::pl::{plan_and_apply, GroupLayout, PopularityTracker};
use dmamem::controller::ta::{ReleaseRule, SlackAccount, SlackOp};
use dmamem::{PageMap, PlConfig, SystemConfig};
use mempower::PowerModel;
use proptest::prelude::*;
use simcore::SimDuration;

proptest! {
    /// Booking `k` rounds of a taped period's credits and queue debits
    /// leaves the account bit for bit where `k` more rounds of the calls
    /// would: balance, minimum, per-source debits and credited count.
    #[test]
    fn booked_slack_rounds_equal_calls(
        mu in 0.0f64..2.0,
        opening in 0u64..200_000,
        period in prop::collection::vec((any::<bool>(), 0u64..30_000), 1..8),
        k in 1u64..10_001,
    ) {
        let mut called = SlackAccount::new(mu, SimDuration::from_ps(7_500));
        // Start from a nonzero balance and minimum.
        called.debit_wake(SimDuration::from_ps(opening), 1);
        called.credit_request();
        let run = |s: &mut SlackAccount| {
            period
                .iter()
                .map(|&(credit, ps)| {
                    if credit {
                        SlackOp::Credit(s.credit_request())
                    } else {
                        // Sub-picosecond fractions make the sums round.
                        let waited = ps as f64 * 1.001;
                        s.debit_queue(waited);
                        SlackOp::DebitQueue(waited)
                    }
                })
                .collect::<Vec<_>>()
        };
        let tape = run(&mut called);
        let mut booked = called.clone();
        booked.book_rounds(&tape, k);
        for _ in 0..k {
            run(&mut called);
        }
        let bits = |s: &SlackAccount| {
            let (epoch, wake, proc, queue) = s.debits_ps();
            [s.slack_ps(), s.min_slack_ps(), epoch, wake, proc, queue].map(f64::to_bits)
        };
        prop_assert_eq!(bits(&booked), bits(&called));
        prop_assert_eq!(booked.credited_requests(), called.credited_requests());
    }

    /// Slack arithmetic: balance always equals credits minus debits.
    #[test]
    fn slack_books_balance(
        mu in 0.0f64..50.0,
        ops in prop::collection::vec((0u8..5, 1usize..10), 0..100),
    ) {
        let t = SimDuration::from_ns(8);
        let mut s = SlackAccount::new(mu, t);
        let mut expected = 0.0f64;
        for (op, n) in ops {
            match op {
                0 => {
                    s.credit_request();
                    expected += mu * 8_000.0;
                }
                1 => {
                    s.debit_epoch(SimDuration::from_ns(100), n);
                    expected -= 100_000.0 * n as f64;
                }
                2 => {
                    s.debit_wake(SimDuration::from_ns(60), n);
                    expected -= 60_000.0 * n as f64;
                }
                3 => {
                    s.debit_proc(SimDuration::from_ns(20), n);
                    expected -= 20_000.0 * n as f64;
                }
                _ => {
                    s.debit_queue(n as f64 * 500.0);
                    expected -= n as f64 * 500.0;
                }
            }
        }
        prop_assert!((s.slack_ps() - expected).abs() < 1e-6 * (1.0 + expected.abs()));
        prop_assert!(s.min_slack_ps() <= 0.0 + 1e-9);
    }

    /// Release decisions are monotone in slack: if a chip releases at some
    /// slack level, it also releases at any lower level.
    #[test]
    fn release_monotone_in_slack(
        k in 1usize..6,
        r in 1usize..6,
        raw_pending in prop::collection::vec(0u32..5, 6),
        slack in -1e6f64..1e6,
    ) {
        let pending = raw_pending[..r].to_vec();
        let rule = ReleaseRule::new(k, r, SimDuration::from_ns(8));
        if rule.should_release(&pending, slack) {
            prop_assert!(rule.should_release(&pending, slack - 1000.0));
        }
        // And monotone in pending: adding a request never un-releases.
        if pending.iter().sum::<u32>() > 0 && rule.should_release(&pending, slack) {
            let mut more = pending.clone();
            more[0] += 1;
            prop_assert!(rule.should_release(&more, slack));
        }
    }

    /// Group layouts partition the chips exactly.
    #[test]
    fn group_layout_partitions(groups in 2usize..8, total in 2usize..64) {
        let n_hot = (total - 1).min(total / 2);
        let l = GroupLayout::new(groups, n_hot, total);
        let sum: usize = (0..l.groups()).map(|g| l.chips_in(g)).sum();
        prop_assert_eq!(sum, total);
        // chip_range covers 0..total contiguously.
        let mut cursor = 0;
        for g in 0..l.groups() {
            let (s, e) = l.chip_range(g);
            prop_assert_eq!(s, cursor);
            cursor = e;
            for c in s..e {
                prop_assert_eq!(l.group_of_chip(c), g);
            }
        }
        prop_assert_eq!(cursor, total);
    }

    /// PL planning never corrupts the page map, never exceeds the move
    /// budget (plus one paired eviction/swap), and is idempotent.
    #[test]
    fn pl_plan_preserves_map_invariants(
        accesses in prop::collection::vec(0u64..64, 0..400),
        groups in 2usize..5,
        max_moves in 1usize..64,
    ) {
        let config = SystemConfig {
            chips: 4,
            power_model: PowerModel::rdram().with_chip_bytes(16 * 8192),
            pages: 64,
            ..SystemConfig::default()
        };
        let mut map = PageMap::new_sequential(&config);
        let mut tracker = PopularityTracker::new(64);
        for &p in &accesses {
            tracker.record(p);
        }
        let pl = PlConfig {
            max_moves_per_interval: max_moves,
            min_count_to_migrate: 0,
            ..PlConfig::new(groups)
        };
        let moves = plan_and_apply(&tracker, &mut map, &pl, 16);
        map.check_invariants();
        prop_assert!(moves.len() <= max_moves + 1, "{} > {}", moves.len(), max_moves);
        // Idempotence: re-planning after placement moves nothing (up to the
        // move budget truncation).
        if moves.len() < max_moves {
            let again = plan_and_apply(&tracker, &mut map, &pl, 16);
            prop_assert!(again.is_empty(), "re-plan moved: {again:?}");
        }
    }

    /// Random page moves keep the map consistent.
    #[test]
    fn page_map_random_moves(ops in prop::collection::vec((0u64..64, 0usize..4), 0..200)) {
        let config = SystemConfig {
            chips: 4,
            power_model: PowerModel::rdram().with_chip_bytes(32 * 8192),
            pages: 64,
            ..SystemConfig::default()
        };
        let mut map = PageMap::new_sequential(&config);
        for (page, dst) in ops {
            let _ = map.move_page(page, dst);
        }
        map.check_invariants();
    }
}
