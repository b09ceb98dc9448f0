//! Online adaptation: Kalman-tracked drift estimation over the static model.
//!
//! The offline model (Sections III-B/III-C) is trained once and never looks
//! back — but real machines drift: thermal throttling, component aging, and
//! co-tenant interference move the true power/performance surface away from
//! the cluster-regression prior. This module closes the loop in the style of
//! ALERT-Online (SNIPPETS.md snippet 3): per-(session, kernel) **scalar
//! Kalman filters** track the ratio of measured to predicted power and
//! throughput, a **drift detector** compares innovation-normalized residuals
//! against fixed thresholds, and an [`AdaptivePredictor`] blends the Kalman
//! posterior with the static prior to re-select configurations when the
//! prior has gone stale.
//!
//! Determinism policy for stateful estimators (DESIGN.md §16):
//!
//! - Every update is a fixed sequence of `f64` operations in source order —
//!   no fastmath, no reductions whose order depends on thread count — so
//!   the same observation sequence always produces bit-identical state.
//! - Measurements are fed as **ratios** (measured / predicted) normalized by
//!   a per-kernel baseline learned from the first few observations. The
//!   baseline cancels static-model error (power MAPE can reach 35%), so at
//!   zero drift the tracked signal sits at 1.0 ± sensor noise and the
//!   detector stays silent: the adaptive path answers **bit-for-bit the
//!   static answer** until drift is confirmed.
//! - Non-finite measurements are rejected with a typed [`AdaptError`]
//!   *before* any state is touched — a NaN can never enter a filter.
//! - The exact ratio bits are journaled (serve crate), so crash recovery
//!   replays the identical observation sequence and lands on the identical
//!   posterior; [`AdaptivePredictor::state_digest`] makes that checkable.

use crate::online::PredictedProfile;
use acs_sim::noise::{fnv1a, splitmix64};
use acs_sim::Configuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which measured signal an error or event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Signal {
    /// Package power draw (watts).
    Power,
    /// Throughput (iterations per second).
    Perf,
}

impl std::fmt::Display for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Signal::Power => write!(f, "power"),
            Signal::Perf => write!(f, "perf"),
        }
    }
}

/// Typed adaptation failures. Every rejection leaves all estimator state
/// exactly as it was — a bad measurement can never poison a filter.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptError {
    /// A measurement or prediction was NaN or infinite.
    NonFinite {
        /// Which signal carried the bad value.
        signal: Signal,
        /// The offending value.
        value: f64,
    },
    /// A predicted quantity was zero or negative, so no measured/predicted
    /// ratio exists.
    NonPositive {
        /// Which signal carried the bad prediction.
        signal: Signal,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::NonFinite { signal, value } => {
                write!(f, "non-finite {signal} measurement {value}")
            }
            AdaptError::NonPositive { signal, value } => {
                write!(f, "non-positive predicted {signal} {value}")
            }
        }
    }
}

impl std::error::Error for AdaptError {}

// The adaptation layer's constants, tuned for the simulator's 1%
// multiplicative sensor noise: the bias tolerance (4%) is four sigma away
// from the zero-drift signal, so false re-selections are effectively
// impossible, while a 20%+ drift confirms within `CONFIRM` observations of
// the baseline closing. The filter's own are public: they are what a
// `KalmanFilter` starts from and is held to.

/// Initial process-noise covariance (adapted online, ALERT-style).
pub const Q: f64 = 1e-4;
/// Measurement-noise covariance.
pub const R: f64 = 4e-4;
/// Initial error covariance.
pub const P0: f64 = 1.0;
/// Floor under the adaptive process noise.
pub const Q_FLOOR: f64 = 1e-5;
/// Observations averaged into the per-kernel baseline before any detection
/// begins.
const BASELINE_WINDOW: u32 = 4;
/// Ring size for innovation-normalized residuals (variance detector).
const DETECT_WINDOW: usize = 8;
/// Posterior distance from 1.0 that counts as bias.
const BIAS_TOL: f64 = 0.04;
/// Normalized-innovation variance that counts as a blow-up.
const VAR_BLOWUP: f64 = 9.0;
/// Consecutive biased observations required to confirm drift.
const CONFIRM: u32 = 3;
/// Baseline-relative ratio beyond which the cluster assignment itself is
/// considered wrong (triggers re-classification, once per kernel).
const RECLASSIFY_RATIO: f64 = 1.5;
/// Lower clamp on measured/predicted ratios.
const RATIO_MIN: f64 = 0.25;
/// Upper clamp on measured/predicted ratios.
const RATIO_MAX: f64 = 4.0;

/// One filter step's innovation: the residual and its predicted variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Innovation {
    /// Measurement minus prior estimate.
    pub residual: f64,
    /// Innovation covariance `S = P + R`.
    pub variance: f64,
}

/// A scalar Kalman filter with ALERT-Online's adaptive process noise
/// (`A = H = 1`). The update is a fixed `f64` sequence in source order —
/// identical inputs always produce bit-identical state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KalmanFilter {
    /// Posterior state estimate.
    pub x: f64,
    /// Posterior error covariance.
    pub p: f64,
    /// Adaptive process-noise covariance.
    pub q: f64,
    /// Previous Kalman gain (feeds the adaptive Q update).
    k: f64,
    /// Previous innovation residual.
    y: f64,
}

impl KalmanFilter {
    /// A filter starting at estimate `x0` with covariances [`P0`] and [`Q`].
    pub fn new(x0: f64) -> Self {
        Self { x: x0, p: P0, q: Q, k: 0.0, y: 0.0 }
    }

    /// One measurement update. Non-finite measurements are rejected with a
    /// typed error and the state is left untouched. The operation order is
    /// exactly ALERT-Online's published sequence.
    #[allow(clippy::assign_op_pattern)] // the textbook update equations, verbatim
    pub fn update(&mut self, signal: Signal, z: f64) -> Result<Innovation, AdaptError> {
        if !z.is_finite() {
            return Err(AdaptError::NonFinite { signal, value: z });
        }
        // x = A·x with A = 1 is a no-op; kept implicit.
        self.q = (0.3 * self.q + 0.7 * self.k * self.k * self.y * self.y).max(Q_FLOOR);
        self.p = self.p + self.q;
        self.y = z - self.x;
        let s = self.p + R;
        self.k = self.p / s;
        self.x = self.x + self.k * self.y;
        self.p = (1.0 - self.k) * self.p;
        Ok(Innovation { residual: self.y, variance: s })
    }

    /// Fold this filter's exact state bits into a digest accumulator.
    fn digest_into(&self, mut h: u64) -> u64 {
        for bits in [
            self.x.to_bits(),
            self.p.to_bits(),
            self.q.to_bits(),
            self.k.to_bits(),
            self.y.to_bits(),
        ] {
            h = splitmix64(h ^ bits);
        }
        h
    }
}

/// A typed drift detection, emitted at most once per (kernel, kind, signal).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DriftEvent {
    /// The Kalman posterior moved persistently away from 1.0: the static
    /// model is biased for this kernel. Latches the correction on.
    Bias {
        /// The drifting kernel.
        kernel_id: String,
        /// Which signal drifted.
        signal: Signal,
        /// The posterior ratio estimate at confirmation.
        posterior: f64,
    },
    /// The innovation-normalized residual variance blew past the threshold:
    /// the process became much noisier than the model assumes.
    VarianceBlowup {
        /// The affected kernel.
        kernel_id: String,
        /// Which signal blew up.
        signal: Signal,
        /// Observed normalized-innovation variance.
        ratio: f64,
    },
    /// The baseline-relative ratio left the band the cluster assignment can
    /// explain: the kernel should be re-classified.
    ClusterMismatch {
        /// The mismatched kernel.
        kernel_id: String,
        /// Baseline-relative power ratio at detection.
        power_ratio: f64,
        /// Baseline-relative perf ratio at detection.
        perf_ratio: f64,
    },
}

/// Per-signal estimator state: one Kalman filter plus detector scratch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SignalTracker {
    filter: KalmanFilter,
    /// Ring buffer of innovation-normalized residuals.
    window: Vec<f64>,
    next: usize,
    consecutive: u32,
    bias_confirmed: bool,
    blowup_emitted: bool,
}

impl SignalTracker {
    fn new() -> Self {
        Self {
            filter: KalmanFilter::new(1.0),
            window: Vec::new(),
            next: 0,
            consecutive: 0,
            bias_confirmed: false,
            blowup_emitted: false,
        }
    }

    /// Feed one baseline-normalized measurement; append any detections.
    fn update(
        &mut self,
        signal: Signal,
        z: f64,
        kernel_id: &str,
        events: &mut Vec<DriftEvent>,
    ) -> Result<(), AdaptError> {
        let innovation = self.filter.update(signal, z)?;
        let normalized = innovation.residual / innovation.variance.sqrt();
        if self.window.len() < DETECT_WINDOW {
            self.window.push(normalized);
        } else {
            self.window[self.next] = normalized;
        }
        self.next = (self.next + 1) % DETECT_WINDOW;
        if (self.filter.x - 1.0).abs() > BIAS_TOL {
            self.consecutive += 1;
            if self.consecutive >= CONFIRM && !self.bias_confirmed {
                self.bias_confirmed = true;
                events.push(DriftEvent::Bias {
                    kernel_id: kernel_id.to_string(),
                    signal,
                    posterior: self.filter.x,
                });
            }
        } else {
            self.consecutive = 0;
        }
        if self.window.len() == DETECT_WINDOW && !self.blowup_emitted {
            let n = DETECT_WINDOW as f64;
            let mean = self.window.iter().sum::<f64>() / n;
            let var = self.window.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            if var > VAR_BLOWUP {
                self.blowup_emitted = true;
                events.push(DriftEvent::VarianceBlowup {
                    kernel_id: kernel_id.to_string(),
                    signal,
                    ratio: var,
                });
            }
        }
        Ok(())
    }

    fn digest_into(&self, mut h: u64) -> u64 {
        h = self.filter.digest_into(h);
        for v in &self.window {
            h = splitmix64(h ^ v.to_bits());
        }
        h = splitmix64(h ^ self.next as u64);
        h = splitmix64(h ^ self.consecutive as u64);
        h = splitmix64(h ^ (self.bias_confirmed as u64) ^ ((self.blowup_emitted as u64) << 1));
        h
    }
}

/// Per-kernel adaptation state: a learned baseline plus two signal trackers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct KernelTracker {
    baseline_power_sum: f64,
    baseline_perf_sum: f64,
    baseline_count: u32,
    power: SignalTracker,
    perf: SignalTracker,
    mismatch_emitted: bool,
}

impl KernelTracker {
    fn new() -> Self {
        Self {
            baseline_power_sum: 0.0,
            baseline_perf_sum: 0.0,
            baseline_count: 0,
            power: SignalTracker::new(),
            perf: SignalTracker::new(),
            mismatch_emitted: false,
        }
    }

    fn baseline_power_mean(&self) -> f64 {
        self.baseline_power_sum / self.baseline_count as f64
    }

    fn baseline_perf_mean(&self) -> f64 {
        self.baseline_perf_sum / self.baseline_count as f64
    }

    fn digest_into(&self, mut h: u64) -> u64 {
        h = splitmix64(h ^ self.baseline_power_sum.to_bits());
        h = splitmix64(h ^ self.baseline_perf_sum.to_bits());
        h = splitmix64(h ^ self.baseline_count as u64);
        h = self.power.digest_into(h);
        h = self.perf.digest_into(h);
        splitmix64(h ^ self.mismatch_emitted as u64)
    }
}

/// The measured/predicted correction factors for a kernel with confirmed
/// drift: multiply a predicted quantity by its ratio to estimate the truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptCorrection {
    /// Estimated true power / predicted power.
    pub power_ratio: f64,
    /// Estimated true perf / predicted perf.
    pub perf_ratio: f64,
}

/// The result of feeding one measurement pair through [`AdaptivePredictor::observe`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptOutcome {
    /// The clamped measured/predicted power ratio that was tracked. These
    /// exact bits are what a recovery journal must replay.
    pub power_ratio: f64,
    /// The clamped measured/predicted perf ratio that was tracked.
    pub perf_ratio: f64,
    /// Drift detections triggered by this observation (usually empty).
    pub events: Vec<DriftEvent>,
}

/// An adaptive selection: the chosen configuration plus whether the
/// drift-corrected path changed the answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptSelection {
    /// The selected configuration.
    pub config: Configuration,
    /// True iff a confirmed drift correction moved the selection away from
    /// the static answer.
    pub corrected: bool,
}

/// Blends the static cluster-regression prior with per-kernel Kalman
/// posteriors. Until drift is *confirmed* for a kernel, selection falls
/// through to the bit-identical static path — a predictor that never sees
/// feedback is observationally indistinguishable from no predictor at all.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptivePredictor {
    kernels: BTreeMap<String, KernelTracker>,
    observations: u64,
    drift_events: u64,
    reselections: u64,
    reclassifications: u64,
    /// XOR over `kernels` of each tracker's digest, kept current by
    /// [`observe_ratios`](Self::observe_ratios) so that
    /// [`state_digest`](Self::state_digest) costs the same however many
    /// kernels a session has reported on.
    kernels_digest: u64,
}

impl AdaptivePredictor {
    /// Total measurements accepted.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Total [`DriftEvent`]s emitted.
    pub fn drift_events(&self) -> u64 {
        self.drift_events
    }

    /// Selections the corrected path moved away from the static answer.
    pub fn reselections(&self) -> u64 {
        self.reselections
    }

    /// Kernels flagged for cluster re-classification.
    pub fn reclassifications(&self) -> u64 {
        self.reclassifications
    }

    /// Feed one measured (power, perf) pair against its prediction.
    /// Validation happens before any state is touched: on error the
    /// predictor is exactly as it was.
    pub fn observe(
        &mut self,
        kernel_id: &str,
        measured_power_w: f64,
        measured_perf: f64,
        predicted_power_w: f64,
        predicted_perf: f64,
    ) -> Result<AdaptOutcome, AdaptError> {
        for (signal, value) in [(Signal::Power, measured_power_w), (Signal::Perf, measured_perf)] {
            if !value.is_finite() {
                return Err(AdaptError::NonFinite { signal, value });
            }
        }
        for (signal, value) in [(Signal::Power, predicted_power_w), (Signal::Perf, predicted_perf)]
        {
            if !value.is_finite() {
                return Err(AdaptError::NonFinite { signal, value });
            }
            if value <= 0.0 {
                return Err(AdaptError::NonPositive { signal, value });
            }
        }
        let power_ratio = (measured_power_w / predicted_power_w).clamp(RATIO_MIN, RATIO_MAX);
        let perf_ratio = (measured_perf / predicted_perf).clamp(RATIO_MIN, RATIO_MAX);
        let events = self.observe_ratios(kernel_id, power_ratio, perf_ratio)?;
        Ok(AdaptOutcome { power_ratio, perf_ratio, events })
    }

    /// The canonical state transition: feed exact (already clamped) ratio
    /// values. Crash recovery replays journaled ratio *bits* through this
    /// entry point, so replayed state is bit-identical to the lost state.
    pub fn observe_ratios(
        &mut self,
        kernel_id: &str,
        power_ratio: f64,
        perf_ratio: f64,
    ) -> Result<Vec<DriftEvent>, AdaptError> {
        if !power_ratio.is_finite() {
            return Err(AdaptError::NonFinite { signal: Signal::Power, value: power_ratio });
        }
        if !perf_ratio.is_finite() {
            return Err(AdaptError::NonFinite { signal: Signal::Perf, value: perf_ratio });
        }
        // Only this kernel's tracker can change, whichever way `track`
        // returns: swap its share of the combined digest.
        let before = self.kernel_digest(kernel_id);
        let events = self.track(kernel_id, power_ratio, perf_ratio);
        self.kernels_digest ^= before ^ self.kernel_digest(kernel_id);
        events
    }

    /// One kernel's share of [`state_digest`](Self::state_digest): the
    /// exact bits of its tracker, seeded by its id; 0 before the kernel's
    /// first observation.
    fn kernel_digest(&self, kernel_id: &str) -> u64 {
        self.kernels
            .get(kernel_id)
            .map_or(0, |tracker| tracker.digest_into(splitmix64(fnv1a(kernel_id.as_bytes()))))
    }

    /// The state transition behind `observe_ratios`, for finite ratios.
    fn track(
        &mut self,
        kernel_id: &str,
        power_ratio: f64,
        perf_ratio: f64,
    ) -> Result<Vec<DriftEvent>, AdaptError> {
        let power_ratio = power_ratio.clamp(RATIO_MIN, RATIO_MAX);
        let perf_ratio = perf_ratio.clamp(RATIO_MIN, RATIO_MAX);
        let tracker = self.kernels.entry(kernel_id.to_string()).or_insert_with(KernelTracker::new);
        self.observations += 1;
        let mut events = Vec::new();
        if tracker.baseline_count < BASELINE_WINDOW {
            // Baseline phase: learn what "no drift" looks like for this
            // kernel (absorbs static-model error), detect nothing yet.
            tracker.baseline_power_sum += power_ratio;
            tracker.baseline_perf_sum += perf_ratio;
            tracker.baseline_count += 1;
            return Ok(events);
        }
        let z_power = power_ratio / tracker.baseline_power_mean();
        let z_perf = perf_ratio / tracker.baseline_perf_mean();
        tracker.power.update(Signal::Power, z_power, kernel_id, &mut events)?;
        tracker.perf.update(Signal::Perf, z_perf, kernel_id, &mut events)?;
        if !tracker.mismatch_emitted {
            let hi = RECLASSIFY_RATIO;
            let lo = 1.0 / RECLASSIFY_RATIO;
            if z_power > hi || z_power < lo || z_perf > hi || z_perf < lo {
                tracker.mismatch_emitted = true;
                self.reclassifications += 1;
                events.push(DriftEvent::ClusterMismatch {
                    kernel_id: kernel_id.to_string(),
                    power_ratio: z_power,
                    perf_ratio: z_perf,
                });
            }
        }
        self.drift_events += events.len() as u64;
        Ok(events)
    }

    /// The confirmed drift correction for a kernel, if any. `None` until a
    /// bias detection latched — which is exactly when the adaptive path
    /// starts answering differently from the static path.
    pub fn correction(&self, kernel_id: &str) -> Option<AdaptCorrection> {
        let tracker = self.kernels.get(kernel_id)?;
        if tracker.baseline_count < BASELINE_WINDOW {
            return None;
        }
        if !(tracker.power.bias_confirmed || tracker.perf.bias_confirmed) {
            return None;
        }
        let power_ratio =
            (tracker.baseline_power_mean() * tracker.power.filter.x).clamp(RATIO_MIN, RATIO_MAX);
        let perf_ratio =
            (tracker.baseline_perf_mean() * tracker.perf.filter.x).clamp(RATIO_MIN, RATIO_MAX);
        Some(AdaptCorrection { power_ratio, perf_ratio })
    }

    /// Select a configuration for `kernel_id` under `cap_w`. Without a
    /// confirmed correction this is exactly [`PredictedProfile::select`] —
    /// bit-identical to the static path. With one, the cap is deflated by
    /// the estimated power ratio (a positive scaling preserves frontier
    /// ordering, so correcting the cap is equivalent to correcting every
    /// predicted power and re-walking the frontier).
    pub fn select(
        &mut self,
        kernel_id: &str,
        profile: &PredictedProfile,
        cap_w: f64,
    ) -> AdaptSelection {
        let selection = self.selection(kernel_id, profile, cap_w);
        if selection.corrected {
            self.reselections += 1;
        }
        selection
    }

    /// The selection [`select`](Self::select) would make, without counting
    /// it. The serve path uses this so predictor state stays a pure
    /// function of the observation stream — exactly what the recovery
    /// journal replays — and tallies re-selections in its own metrics.
    pub fn selection(
        &self,
        kernel_id: &str,
        profile: &PredictedProfile,
        cap_w: f64,
    ) -> AdaptSelection {
        let static_config = profile.select(cap_w);
        if let Some(correction) = self.correction(kernel_id) {
            let corrected_cap = cap_w / correction.power_ratio;
            let config = profile.select(corrected_cap);
            if config != static_config {
                return AdaptSelection { config, corrected: true };
            }
        }
        AdaptSelection { config: static_config, corrected: false }
    }

    /// A deterministic digest over the exact bits of all estimator state.
    /// Two predictors that saw the same observation sequence — live or via
    /// journal replay — produce equal digests. Constant time: the
    /// per-kernel part is maintained as observations arrive.
    pub fn state_digest(&self) -> u64 {
        let mut h = splitmix64(0xADA7_5EED ^ self.observations);
        h = splitmix64(h ^ self.drift_events);
        h = splitmix64(h ^ self.reselections);
        h = splitmix64(h ^ self.reclassifications);
        splitmix64(h ^ self.kernels_digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{Frontier, PowerPerfPoint};

    /// A synthetic profile whose frontier spans 10–50 W monotonically.
    fn profile() -> PredictedProfile {
        let space = Configuration::all();
        let points: Vec<PowerPerfPoint> = space
            .iter()
            .enumerate()
            .map(|(i, c)| PowerPerfPoint {
                config: *c,
                power_w: 10.0 + i as f64,
                perf: 1.0 + i as f64 * 0.5,
            })
            .collect();
        PredictedProfile {
            cluster: 0,
            points: points.clone(),
            frontier: Frontier::from_points(points),
        }
    }

    #[test]
    fn filter_converges_to_constant_signal() {
        let mut f = KalmanFilter::new(1.0);
        for _ in 0..64 {
            f.update(Signal::Power, 1.3).unwrap();
        }
        assert!((f.x - 1.3).abs() < 1e-3, "posterior {} should approach 1.3", f.x);
        assert!(f.p > 0.0 && f.p.is_finite());
    }

    #[test]
    fn non_finite_measurement_is_rejected_and_state_untouched() {
        let mut f = KalmanFilter::new(1.0);
        f.update(Signal::Perf, 1.05).unwrap();
        let before = f;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = f.update(Signal::Perf, bad).unwrap_err();
            match err {
                AdaptError::NonFinite { signal, .. } => assert_eq!(signal, Signal::Perf),
                other => panic!("expected NonFinite, got {other:?}"),
            }
            assert_eq!(f, before, "rejected measurement must not move the filter");
        }
    }

    #[test]
    fn zero_drift_selects_bit_identical_to_static() {
        let mut predictor = AdaptivePredictor::default();
        let profile = profile();
        let cap = 30.0;
        let static_config = profile.select(cap);
        // 1%-noise observations around a constant (mis)prediction ratio:
        // static error is absorbed by the baseline, so nothing confirms.
        for i in 0..32u64 {
            let jitter = 1.0 + 0.01 * ((i % 5) as f64 - 2.0) / 2.0;
            let out =
                predictor.observe("k", 24.0 * 1.2 * jitter, 3.0 * 0.9 * jitter, 24.0, 3.0).unwrap();
            assert!(out.events.is_empty(), "zero drift emitted {:?}", out.events);
            let sel = predictor.select("k", &profile, cap);
            assert!(!sel.corrected);
            assert_eq!(sel.config, static_config);
        }
        assert!(predictor.correction("k").is_none());
        assert_eq!(predictor.reselections(), 0);
        assert_eq!(predictor.drift_events(), 0);
    }

    #[test]
    fn sustained_power_drift_confirms_and_corrects_the_cap() {
        let mut predictor = AdaptivePredictor::default();
        let profile = profile();
        let cap = 30.0;
        // Baseline at ratio 1.0, then power runs 30% hot.
        for _ in 0..4 {
            predictor.observe("k", 20.0, 2.0, 20.0, 2.0).unwrap();
        }
        let mut saw_bias = false;
        for _ in 0..24 {
            let out = predictor.observe("k", 26.0, 2.0, 20.0, 2.0).unwrap();
            saw_bias |= out
                .events
                .iter()
                .any(|e| matches!(e, DriftEvent::Bias { signal: Signal::Power, .. }));
        }
        assert!(saw_bias, "a 30% sustained power drift must confirm");
        let correction = predictor.correction("k").expect("confirmed drift has a correction");
        assert!((correction.power_ratio - 1.3).abs() < 0.05, "ratio {}", correction.power_ratio);
        let sel = predictor.select("k", &profile, cap);
        assert!(sel.corrected, "a hot machine under a cap must re-select");
        let corrected_point = profile.point_for(&sel.config);
        let static_point = profile.point_for(&profile.select(cap));
        assert!(
            corrected_point.power_w < static_point.power_w,
            "correction must move the selection down the frontier"
        );
        assert!(corrected_point.power_w * correction.power_ratio <= cap + 1e-9);
        assert_eq!(predictor.reselections(), 1);
    }

    #[test]
    fn gross_mismatch_triggers_reclassification_once() {
        let mut predictor = AdaptivePredictor::default();
        for _ in 0..4 {
            predictor.observe("k", 20.0, 2.0, 20.0, 2.0).unwrap();
        }
        for _ in 0..8 {
            predictor.observe("k", 40.0, 2.0, 20.0, 2.0).unwrap();
        }
        assert_eq!(predictor.reclassifications(), 1, "mismatch latches once per kernel");
    }

    #[test]
    fn replaying_exact_ratio_bits_rebuilds_identical_state() {
        let mut live = AdaptivePredictor::default();
        let mut journal: Vec<(u64, u64)> = Vec::new();
        for i in 0..20u64 {
            let drift = 1.0 + 0.02 * i as f64;
            let out = live.observe("a", 20.0 * drift, 2.0, 20.0, 2.0).unwrap();
            journal.push((out.power_ratio.to_bits(), out.perf_ratio.to_bits()));
        }
        // Selection bumps a counter; replay must reproduce that too.
        let profile = profile();
        let sel = live.select("a", &profile, 30.0);

        let mut replayed = AdaptivePredictor::default();
        for (p, s) in &journal {
            replayed.observe_ratios("a", f64::from_bits(*p), f64::from_bits(*s)).unwrap();
        }
        let sel2 = replayed.select("a", &profile, 30.0);
        assert_eq!(sel, sel2);
        assert_eq!(live.state_digest(), replayed.state_digest());
        assert_eq!(live, replayed);
    }

    #[test]
    fn the_maintained_digest_is_the_digest_of_the_state() {
        // Interleaved kernels, through baseline, drift and a latched
        // mismatch: after every step the running XOR equals one recomputed
        // from every tracker, and a rejected observation leaves it alone.
        let mut predictor = AdaptivePredictor::default();
        let mut digests = std::collections::BTreeSet::new();
        for i in 0..60u64 {
            let kernel = ["a", "b", "c"][(i % 3) as usize];
            let drift = if kernel == "c" { 2.5 } else { 1.0 + 0.01 * i as f64 };
            predictor.observe(kernel, 20.0 * drift, 2.0, 20.0, 2.0).unwrap();
            let recomputed =
                predictor.kernels.keys().fold(0, |x, id| x ^ predictor.kernel_digest(id));
            assert_eq!(predictor.kernels_digest, recomputed, "after observation {i}");
            assert!(digests.insert(predictor.state_digest()), "observation {i} changed nothing");
        }
        assert!(predictor.reclassifications() > 0, "the mismatch path was taken");
        let before = predictor.state_digest();
        assert!(predictor.observe_ratios("a", f64::NAN, 1.0).is_err());
        assert_eq!(predictor.state_digest(), before);
    }

    #[test]
    fn non_positive_prediction_is_typed() {
        let mut predictor = AdaptivePredictor::default();
        match predictor.observe("k", 20.0, 2.0, 0.0, 2.0) {
            Err(AdaptError::NonPositive { signal: Signal::Power, .. }) => {}
            other => panic!("expected NonPositive power, got {other:?}"),
        }
        assert_eq!(predictor.observations(), 0, "rejected observation must not count");
    }

    #[test]
    fn serde_round_trip_preserves_exact_state() {
        let mut predictor = AdaptivePredictor::default();
        for i in 0..12u64 {
            predictor.observe("k", 20.0 + i as f64, 2.0, 20.0, 2.0).unwrap();
        }
        let json = serde_json::to_string(&predictor).unwrap();
        let back: AdaptivePredictor = serde_json::from_str(&json).unwrap();
        assert_eq!(back.state_digest(), predictor.state_digest());
        assert_eq!(back, predictor);
    }
}
