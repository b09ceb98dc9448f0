//! Property-based tests for the adaptation layer (ISSUE 9 satellite):
//! the scalar Kalman filters keep positive finite covariance under any
//! finite measurement stream, reject non-finite input with typed errors
//! without poisoning state, converge on constant signals, and the
//! predictor's state digest is a function of its observation stream.

use acs_core::adapt::{Innovation, Q_FLOOR};
use acs_core::{AdaptError, AdaptivePredictor, KalmanFilter, Signal};
use acs_sim::SplitMix64;
use proptest::prelude::*;

/// Feed a seeded 64-observation ratio stream through a fresh predictor
/// and return its exact state digest.
fn digest_for(seed: u64) -> u64 {
    let mut predictor = AdaptivePredictor::default();
    let mut rng = SplitMix64(seed);
    for index in 0..64u64 {
        let kernel = format!("k{}", index % 3);
        let power_ratio = 0.5 + (rng.next_u64() % 1000) as f64 / 500.0;
        let perf_ratio = 0.5 + (rng.next_u64() % 1000) as f64 / 500.0;
        predictor
            .observe_ratios(&kernel, power_ratio, perf_ratio)
            .expect("in-range ratios are always accepted");
    }
    predictor.state_digest()
}

proptest! {
    #[test]
    fn covariance_stays_positive_and_finite(
        x0 in 0.25..4.0f64,
        zs in prop::collection::vec(-10.0..10.0f64, 1..200),
    ) {
        let mut filter = KalmanFilter::new(x0);
        for z in zs {
            let Innovation { residual, variance } =
                filter.update(Signal::Power, z).expect("finite measurements are accepted");
            prop_assert!(variance.is_finite() && variance > 0.0, "S = {variance}");
            prop_assert!(residual.is_finite());
            prop_assert!(filter.p.is_finite() && filter.p > 0.0, "P = {}", filter.p);
            prop_assert!(filter.q >= Q_FLOOR, "Q fell through its floor");
            prop_assert!(filter.x.is_finite());
        }
    }

    #[test]
    fn non_finite_measurements_never_poison_the_filter(
        zs in prop::collection::vec(-10.0..10.0f64, 0..50),
        bad_index in 0usize..3,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bad_index];
        let mut filter = KalmanFilter::new(1.0);
        for z in zs {
            filter.update(Signal::Perf, z).expect("finite measurements are accepted");
        }
        let before = filter;
        let err = filter.update(Signal::Perf, bad).expect_err("non-finite must be rejected");
        let typed = matches!(err, AdaptError::NonFinite { signal: Signal::Perf, .. });
        prop_assert!(typed, "unexpected error {err:?}");
        prop_assert_eq!(filter, before, "a rejected measurement mutated the filter");
        prop_assert!(filter.x.is_finite() && filter.p.is_finite());
    }

    #[test]
    fn filter_converges_on_a_constant_signal(target in 0.5..2.0f64) {
        let mut filter = KalmanFilter::new(1.0);
        for _ in 0..200 {
            filter.update(Signal::Power, target).expect("finite");
        }
        prop_assert!(
            (filter.x - target).abs() < 1e-3,
            "posterior {} did not converge to {target}",
            filter.x
        );
    }

    #[test]
    fn predictor_rejects_bad_feedback_without_state_change(
        measured in 0.01..100.0f64,
        bad_index in 0usize..3,
    ) {
        let bad_predicted = [0.0f64, -3.0, f64::NAN][bad_index];
        let mut predictor = AdaptivePredictor::default();
        predictor.observe("k", measured, measured, 10.0, 5.0).expect("valid observation");
        let before = predictor.state_digest();
        let err = predictor
            .observe("k", measured, measured, bad_predicted, 5.0)
            .expect_err("bad predicted power must be rejected");
        let typed = matches!(
            err,
            AdaptError::NonPositive { signal: Signal::Power, .. }
                | AdaptError::NonFinite { signal: Signal::Power, .. }
        );
        prop_assert!(typed, "unexpected error {err:?}");
        prop_assert_eq!(predictor.state_digest(), before, "rejection mutated the predictor");
    }

    #[test]
    fn predictor_digest_is_a_function_of_the_stream(seed in 0u64..4096) {
        prop_assert_eq!(digest_for(seed), digest_for(seed));
    }
}
