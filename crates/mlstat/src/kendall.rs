//! Kendall rank correlation (Kendall 1938, the paper's reference \[34\]).
//!
//! The frontier-comparison step of Section III-B computes the Kendall rank
//! correlation between the orderings of the configurations shared by two
//! kernels' Pareto frontiers: +1 for identical orderings, −1 for exactly
//! reversed orderings. τ-b additionally corrects for ties.

/// True when rank correlation over `(x, y)` is well-defined: equal
/// lengths, at least one pair, and no NaN/infinite values (a NaN compares
/// false to everything, which would silently count pairs as discordant).
fn defined(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.len() >= 2 && x.iter().chain(y).all(|v| v.is_finite())
}

/// Kendall τ-a: `(concordant − discordant) / (n(n−1)/2)`.
///
/// Returns `None` when the sequences differ in length, have fewer than
/// two elements, or contain non-finite values (rank correlation is
/// undefined in every case).
pub fn tau_a(x: &[f64], y: &[f64]) -> Option<f64> {
    if !defined(x, y) {
        return None;
    }
    let (mut concordant, mut discordant) = (0i64, 0i64);
    for i in 0..x.len() {
        for j in i + 1..x.len() {
            // A pair tied in either sequence is neither concordant nor
            // discordant (note: f64::signum maps +0.0 to 1.0, so the
            // product below handles ties where signum would not).
            let s = (x[i] - x[j]) * (y[i] - y[j]);
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (x.len() * (x.len() - 1) / 2) as f64;
    Some((concordant - discordant) as f64 / pairs)
}

/// Kendall τ-b, correcting for ties in either sequence:
/// `(C − D) / sqrt((C + D + Tx)(C + D + Ty))` where `Tx`/`Ty` count pairs
/// tied only in `x`/`y`.
///
/// Returns `None` for mismatched/short/non-finite input or when either
/// sequence is entirely tied: a degenerate sequence has no ordering to
/// correlate, so the result is "undefined", never NaN.
pub fn tau_b(x: &[f64], y: &[f64]) -> Option<f64> {
    if !defined(x, y) {
        return None;
    }
    // All-tied detection up front: with every pair tied in `x` (or `y`),
    // C = D = T_other = 0 makes the denominator zero below, but spelling
    // the degenerate case out keeps it a contract, not an arithmetic
    // accident.
    let all_tied = |s: &[f64]| s.windows(2).all(|w| w[0] == w[1]);
    if all_tied(x) || all_tied(y) {
        return None;
    }
    let (mut concordant, mut discordant) = (0i64, 0i64);
    let (mut tied_x, mut tied_y) = (0i64, 0i64);
    for i in 0..x.len() {
        for j in i + 1..x.len() {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            match (dx == 0.0, dy == 0.0) {
                (true, true) => {} // tied in both: contributes to neither
                (true, false) => tied_x += 1,
                (false, true) => tied_y += 1,
                (false, false) => {
                    if dx.signum() == dy.signum() {
                        concordant += 1;
                    } else {
                        discordant += 1;
                    }
                }
            }
        }
    }
    let n0x = (concordant + discordant + tied_x) as f64;
    let n0y = (concordant + discordant + tied_y) as f64;
    let denom = (n0x * n0y).sqrt();
    if denom == 0.0 {
        return None;
    }
    Some((concordant - discordant) as f64 / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_orderings_give_one() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(tau_a(&x, &x), Some(1.0));
        assert_eq!(tau_b(&x, &x), Some(1.0));
    }

    #[test]
    fn reversed_orderings_give_minus_one() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(tau_a(&x, &y), Some(-1.0));
        assert_eq!(tau_b(&x, &y), Some(-1.0));
    }

    #[test]
    fn independent_orderings_near_zero() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 1.0, 4.0, 3.0];
        // 4 concordant, 2 discordant → (4-2)/6 = 1/3
        assert!((tau_a(&x, &y).unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tau_is_symmetric() {
        let x = [3.0, 1.0, 4.0, 1.5, 5.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.5];
        assert_eq!(tau_a(&x, &y), tau_a(&y, &x));
        assert_eq!(tau_b(&x, &y), tau_b(&y, &x));
    }

    #[test]
    fn tau_b_handles_ties() {
        let x = [1.0, 1.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let t = tau_b(&x, &y).unwrap();
        // C=5, D=0, Tx=1, Ty=0 → 5/sqrt(6*5) ≈ 0.9129
        assert!((t - 5.0 / (30.0f64).sqrt()).abs() < 1e-12);
        // τ-a counts the tied pair as neither: (5-0)/6
        assert!((tau_a(&x, &y).unwrap() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_are_none() {
        assert_eq!(tau_a(&[1.0], &[1.0]), None);
        assert_eq!(tau_a(&[1.0, 2.0], &[1.0]), None);
        assert_eq!(tau_b(&[], &[]), None);
        // All tied in x: denominator zero.
        assert_eq!(tau_b(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn all_tied_inputs_are_none_never_nan() {
        // Tied in y, in both, and a two-element tie.
        assert_eq!(tau_b(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]), None);
        assert_eq!(tau_b(&[2.0, 2.0], &[2.0, 2.0]), None);
        assert_eq!(tau_b(&[0.0, 0.0], &[0.0, 0.0]), None);
        // τ-a stays defined (it divides by the pair count, not the tie
        // correction) and reports zero correlation.
        assert_eq!(tau_a(&[1.0, 1.0], &[1.0, 1.0]), Some(0.0));
    }

    #[test]
    fn non_finite_inputs_are_none() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(tau_a(&[1.0, bad, 3.0], &[1.0, 2.0, 3.0]), None);
            assert_eq!(tau_b(&[1.0, bad, 3.0], &[1.0, 2.0, 3.0]), None);
            assert_eq!(tau_b(&[1.0, 2.0, 3.0], &[bad, 2.0, 3.0]), None);
        }
        // A NaN must not masquerade as an all-tied or discordant pair.
        assert_eq!(tau_b(&[f64::NAN, f64::NAN], &[1.0, 2.0]), None);
    }

    #[test]
    fn tau_in_unit_range() {
        let x = [0.3, 0.7, 0.1, 0.9, 0.5, 0.2];
        let y = [0.8, 0.2, 0.6, 0.1, 0.9, 0.4];
        for t in [tau_a(&x, &y).unwrap(), tau_b(&x, &y).unwrap()] {
            assert!((-1.0..=1.0).contains(&t));
        }
    }
}
