//! Property tests for the simulation substrate.

use proptest::prelude::*;
use simcore::dist::{Empirical, PoissonProcess, Zipf};
use simcore::rng::DetRng;
use simcore::stats::{OnlineStats, SampleSet};
use simcore::{EventQueue, SimDuration, SimTime};

proptest! {
    /// Events always pop in nondecreasing time order, FIFO among ties.
    #[test]
    fn event_queue_orders_any_schedule(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ps(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(id > lid, "FIFO violated among ties");
                }
            }
            last = Some((t, id));
        }
    }

    /// Duration arithmetic is consistent: (a + b) - b == a; ratio inverts
    /// multiplication.
    #[test]
    fn duration_arithmetic_roundtrips(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = SimDuration::from_ps(a);
        let db = SimDuration::from_ps(b);
        prop_assert_eq!((da + db) - db, da);
        prop_assert_eq!(da.saturating_sub(db) + db.saturating_sub(da), if a > b { SimDuration::from_ps(a - b) } else { SimDuration::from_ps(b - a) });
    }

    /// Zipf CDF is monotone, ends at 1, and pmf sums to the CDF.
    #[test]
    fn zipf_cdf_is_a_distribution(n in 1usize..500, alpha in 0.0f64..2.0) {
        let z = Zipf::new(n, alpha);
        let mut acc = 0.0;
        let mut prev = 0.0;
        for rank in 0..n {
            let c = z.cdf(rank);
            prop_assert!(c >= prev - 1e-12);
            acc += z.pmf(rank);
            prop_assert!((acc - c).abs() < 1e-9);
            prev = c;
        }
        prop_assert!((z.cdf(n - 1) - 1.0).abs() < 1e-9);
    }

    /// Zipf samples are valid ranks and deterministic per seed.
    #[test]
    fn zipf_samples_in_range(n in 1usize..1000, seed in 0u64..500) {
        let z = Zipf::new(n, 1.0);
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..100 {
            let s = z.sample(&mut a);
            prop_assert!(s < n);
            prop_assert_eq!(s, z.sample(&mut b));
        }
    }

    /// Poisson arrivals are strictly nondecreasing for any rate.
    #[test]
    fn poisson_monotone(rate in 1.0f64..1e7, seed in 0u64..500) {
        let mut p = PoissonProcess::new(rate);
        let mut rng = DetRng::new(seed);
        let mut prev = SimTime::ZERO;
        for _ in 0..200 {
            let t = p.next_arrival(&mut rng);
            prop_assert!(t >= prev);
            prev = t;
        }
    }

    /// Empirical sampling never returns a zero-weight outcome.
    #[test]
    fn empirical_respects_zero_weights(
        weights in prop::collection::vec(0.0f64..10.0, 2..20),
        seed in 0u64..100,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let d = Empirical::from_weights(&weights);
        let mut rng = DetRng::new(seed);
        for _ in 0..200 {
            let s = d.sample(&mut rng);
            prop_assert!(weights[s] > 0.0, "sampled zero-weight outcome {s}");
        }
    }

    /// Welford matches the naive two-pass computation.
    #[test]
    fn online_stats_match_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.population_variance() - var).abs() < 1e-4 * (1.0 + var));
    }

    /// Recording `k` rounds of values at once matches recording them one
    /// by one, bit for bit.
    #[test]
    fn online_stats_rounds_match_records(
        before in prop::collection::vec(0.0f64..1e3, 0..20),
        xs in prop::collection::vec(0.0f64..1e3, 1..8),
        k in 0u64..10_001,
    ) {
        let mut one = OnlineStats::new();
        for &x in &before {
            one.record(x);
        }
        let mut rounds = one.clone();
        rounds.record_rounds(&xs, k);
        for _ in 0..k {
            for &x in &xs {
                one.record(x);
            }
        }
        let bits = |s: &OnlineStats| {
            (
                s.count(),
                s.mean().to_bits(),
                s.population_variance().to_bits(),
                s.min().map(f64::to_bits),
                s.max().map(f64::to_bits),
            )
        };
        prop_assert_eq!(bits(&rounds), bits(&one));
    }

    /// SampleSet quantiles are actual elements and ordered in q.
    #[test]
    fn quantiles_are_order_statistics(xs in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let mut s = SampleSet::new();
        for &x in &xs {
            s.record(x);
        }
        let q25 = s.quantile(0.25).unwrap();
        let q75 = s.quantile(0.75).unwrap();
        prop_assert!(q25 <= q75);
        prop_assert!(xs.contains(&q25) && xs.contains(&q75));
    }

    /// Shuffle is always a permutation.
    #[test]
    fn shuffle_permutes(n in 0usize..200, seed in 0u64..500) {
        let mut v: Vec<usize> = (0..n).collect();
        DetRng::new(seed).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}
