//! The city's O(1) metric store at city scale: [`StatDigest`]s fed a
//! million samples keep exact counts and Welford means, and P²
//! quantiles accurate to 1%. At small scale, the digest's Welford
//! recurrence matches the two-pass mean and variance.
//!
//! This is the check behind `CityOutcome` and `city_sweep`: the
//! flash-crowd sweep trusts these digests for its p99 latency claims,
//! so their accuracy is pinned here against a known distribution at
//! the 1M-sample scale the city actually produces.

use anc_dsp::DspRng;
use anc_sim::StatDigest;
use proptest::prelude::*;

const SAMPLES: usize = 1_000_000;

#[test]
fn digests_stay_accurate_at_1m_samples() {
    let mut ber = StatDigest::new();
    let mut receiver_ber: Vec<StatDigest> = vec![StatDigest::new(); 4];
    let mut overlap = StatDigest::new();
    let mut latency = StatDigest::new();
    let mut rng = DspRng::seed_from(0xC17F);
    for i in 0..SAMPLES {
        // Round-robin over 4 receivers with uniform BERs and uniform
        // latencies on [0, 100) — distributions whose quantiles are
        // known in closed form.
        let b = rng.uniform() * 0.1;
        ber.push(b);
        receiver_ber[i % 4].push(b);
        overlap.push(rng.uniform());
        latency.push(rng.uniform() * 100.0);
    }

    // Exact bookkeeping.
    assert_eq!(ber.count(), SAMPLES as u64);
    assert_eq!(overlap.count(), SAMPLES as u64);
    assert_eq!(latency.count(), SAMPLES as u64);
    for (r, d) in receiver_ber.iter().enumerate() {
        assert_eq!(d.count(), SAMPLES as u64 / 4, "receiver {r} digest count");
    }

    // Accuracy at scale: Welford means are exact up to rounding, the
    // P² quantile estimates must land within 1% of the analytic
    // quantiles of the uniform distributions fed above.
    assert!((ber.mean() - 0.05).abs() < 1e-3, "ber mean {}", ber.mean());
    assert!(
        (overlap.mean() - 0.5).abs() < 1e-2,
        "overlap mean {}",
        overlap.mean()
    );
    assert!(
        (latency.mean() - 50.0).abs() < 0.1,
        "latency mean {}",
        latency.mean()
    );
    assert!((latency.p50() - 50.0).abs() < 1.0, "p50 {}", latency.p50());
    assert!((latency.p99() - 99.0).abs() < 1.0, "p99 {}", latency.p99());
    assert!(latency.min() >= 0.0 && latency.max() < 100.0);
}

#[test]
fn digest_memory_is_constant_in_sample_count() {
    // Belt and braces for the O(1) claim itself: the digest type is
    // plain `Copy`-sized state, so its footprint cannot depend on how
    // many samples were pushed.
    let mut small = StatDigest::new();
    let mut large = StatDigest::new();
    let mut rng = DspRng::seed_from(9);
    for i in 0..10_000 {
        if i < 10 {
            small.push(rng.uniform());
        }
        large.push(rng.uniform());
    }
    assert_eq!(std::mem::size_of_val(&small), std::mem::size_of_val(&large));
    assert!(std::mem::size_of::<StatDigest>() < 512);
}

proptest! {
    /// Welford matches the two-pass reference.
    #[test]
    fn stat_digest_matches_two_pass_reference(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..200),
    ) {
        let mut s = StatDigest::new();
        xs.iter().for_each(|&x| s.push(x));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6);
        prop_assert!((s.variance() - var).abs() < 1e-4 * var.max(1.0));
    }
}
