//! Multivariate ordinary-least-squares regression — the model family of
//! Section III-B:
//!
//! * performance: `P_perf = (a₁x₁ + … + aₙxₙ) · S_perf` (no intercept;
//!   scaling relative to the sample-configuration performance), and
//! * power: `P_power = b₀ + b₁x₁ + … + bₙxₙ` (with intercept),
//!
//! where the `xᵢ` are the configuration variables and their products (the
//! caller's design columns). Fitting solves the normal equations by Cholesky, falling back
//! to a small ridge penalty when the design is rank-deficient (e.g. a
//! training cluster whose kernels never vary one knob).
//!
//! Both models of a cluster and device are fitted over the same rows, so
//! a [`Design`] builds their Gram once, with the intercept column; the
//! no-intercept Gram is its lower-right block, bit for bit. A cluster's
//! rows are one block of configuration rows per member, so a `Design`
//! also serves that block stacked any number of times, each count's Gram
//! continued from the one before.

use crate::matrix::{Matrix, MatrixError};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::OnceLock;

/// A fitted linear model `y ≈ β·x (+ β₀)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    /// Coefficients; when `intercept` is true, `coeffs[0]` is β₀ and the
    /// remaining entries align with the design columns.
    pub coeffs: Vec<f64>,
    /// Whether the model includes an intercept column.
    pub intercept: bool,
    /// Coefficient of determination on the training data.
    pub r_squared: f64,
    /// Ridge penalty that was needed to fit (0 when OLS succeeded).
    pub ridge_lambda: f64,
    /// Root-mean-square training residual — a (crude) per-prediction
    /// uncertainty scale usable for confidence-aware selection.
    pub residual_rmse: f64,
    /// Standard error of each coefficient (same layout as `coeffs`), from
    /// the classical OLS covariance `σ²·(XᵀX)⁻¹`. Empty when there are no
    /// residual degrees of freedom (as many parameters as observations).
    pub coef_std_errors: Vec<f64>,
}

/// Errors from model fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer observations than parameters even ridge cannot rescue sanely.
    NoData,
    /// Underlying linear-algebra failure.
    Matrix(MatrixError),
    /// Response/row count mismatch.
    Dimension(String),
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::NoData => write!(f, "no observations"),
            FitError::Matrix(e) => write!(f, "linear algebra: {e}"),
            FitError::Dimension(msg) => write!(f, "dimension: {msg}"),
        }
    }
}

impl std::error::Error for FitError {}

impl From<MatrixError> for FitError {
    fn from(e: MatrixError) -> Self {
        FitError::Matrix(e)
    }
}

/// Design rows prepared for any number of fits over them, or over them
/// stacked up to a fixed number of times: the rows behind a column of
/// ones, and the Gram of each stacking. A fit with an intercept factors
/// the whole Gram; one without factors its lower-right block, which holds
/// exactly the sums the no-intercept Gram would (the ones column only adds
/// the first row and column).
#[derive(Debug, Clone)]
pub struct Design {
    /// The block, `b × (p + 1)`, column 0 all ones.
    x: Matrix,
    /// `grams[c]` is `xᵀx` over `c + 1` stacked copies of the block,
    /// `(p + 1) × (p + 1)`, built on first use from `grams[c - 1]`.
    grams: Vec<OnceLock<Matrix>>,
}

impl Design {
    /// Prepare non-empty, rectangular design rows (already expanded).
    pub fn new<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self, FitError> {
        Self::repeated(rows, 1)
    }

    /// Prepare rows that a fit may stack up to `copies` times: a fit
    /// over `c` copies reads `c` blocks of responses, response `r`
    /// against row `r mod rows.len()`.
    pub fn repeated<R: AsRef<[f64]>>(rows: &[R], copies: usize) -> Result<Self, FitError> {
        let Some(first) = rows.first() else {
            return Err(FitError::NoData);
        };
        let p = first.as_ref().len();
        if rows.iter().any(|r| r.as_ref().len() != p) {
            return Err(FitError::Dimension("ragged design rows".into()));
        }
        let mut data = Vec::with_capacity(rows.len() * (p + 1));
        for r in rows {
            data.push(1.0);
            data.extend_from_slice(r.as_ref());
        }
        let x = Matrix::from_rows(rows.len(), p + 1, data)?;
        Ok(Self { x, grams: (0..copies).map(|_| OnceLock::new()).collect() })
    }

    /// The Gram of `copies` (in `1..=grams.len()`) stacked blocks.
    fn gram(&self, copies: usize) -> &Matrix {
        self.grams[copies - 1].get_or_init(|| match copies {
            1 => self.x.gram(),
            _ => self.x.gram_after(self.gram(copies - 1).clone()),
        })
    }

    /// Fit `y ≈ X β`, with β₀ in front when `intercept` is set, over as
    /// many stacked copies of the rows as `y` has blocks of responses.
    pub fn fit(&self, y: &[f64], intercept: bool) -> Result<LinearModel, FitError> {
        let b = self.x.rows();
        let copies = y.len() / b;
        if !y.len().is_multiple_of(b) || copies == 0 || copies > self.grams.len() {
            return Err(FitError::Dimension(format!(
                "{} responses are not 1 to {} copies of {b} design rows",
                y.len(),
                self.grams.len()
            )));
        }
        // The columns this model reads: all, or all but the ones.
        let from = usize::from(!intercept);
        let p = self.x.cols() - from;
        // Xᵀy over the stacked rows, response by response.
        let mut xty = vec![0.0; self.x.cols()];
        for block in y.chunks_exact(b) {
            for (r, &yr) in block.iter().enumerate() {
                for (o, a) in xty.iter_mut().zip(self.x.row(r)) {
                    *o += a * yr;
                }
            }
        }
        let xty = &xty[from..];
        let gram = self.gram(copies);
        let gram =
            if intercept { Cow::Borrowed(gram) } else { Cow::Owned(gram.trailing_block(from)) };

        // OLS, with ridge fallback for rank-deficient designs. The Gram is
        // factored once; the coefficients and every standard-error column
        // below are substitutions against that factor.
        let (factor, ridge_lambda) = match gram.cholesky() {
            Ok(factor) => (factor, 0.0),
            Err(MatrixError::Singular) => {
                // Scale the penalty with the trace so it is dimensionless.
                let trace: f64 = (0..p).map(|i| gram[(i, i)]).sum();
                let lambda = 1e-6 * (trace / p as f64).max(1e-12);
                let mut ridged = gram.into_owned();
                ridged.add_diagonal(lambda);
                (ridged.cholesky()?, lambda)
            }
            Err(e) => return Err(e.into()),
        };
        let coeffs = factor.solve(xty)?;

        // R² on training data: one prediction per row of the block, read
        // by every copy.
        let yhat: Vec<f64> = (0..b)
            .map(|r| self.x.row(r)[from..].iter().zip(&coeffs).map(|(a, c)| a * c).sum::<f64>())
            .collect();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let residuals = y.chunks_exact(b).flat_map(|block| block.iter().zip(&yhat));
        let ss_res: f64 = residuals.map(|(a, f)| (a - f).powi(2)).sum();
        let ss_tot: f64 = y.iter().map(|a| (a - mean).powi(2)).sum();
        let r_squared = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };
        let residual_rmse = (ss_res / y.len() as f64).sqrt();

        // Coefficient standard errors: sqrt of diag(σ²·(XᵀX)⁻¹), with the
        // unbiased residual variance estimate: one column of the inverse
        // of the (possibly ridged) Gram per coefficient.
        let dof = y.len().saturating_sub(p);
        let mut coef_std_errors = Vec::new();
        if dof > 0 {
            let sigma2 = ss_res / dof as f64;
            coef_std_errors.reserve_exact(p);
            let mut e = vec![0.0; p];
            for j in 0..p {
                e[j] = 1.0;
                let col = factor.solve(&e)?;
                e[j] = 0.0;
                coef_std_errors.push((sigma2 * col[j].max(0.0)).sqrt());
            }
        }

        Ok(LinearModel {
            coeffs,
            intercept,
            r_squared,
            ridge_lambda,
            residual_rmse,
            coef_std_errors,
        })
    }
}

impl LinearModel {
    /// Fit `y ≈ X β` by OLS on the given design rows (already expanded;
    /// no intercept is added when `intercept` is false): a [`Design`] fit
    /// once.
    pub fn fit(rows: &[Vec<f64>], y: &[f64], intercept: bool) -> Result<Self, FitError> {
        if y.is_empty() {
            return Err(FitError::NoData);
        }
        Design::new(rows)?.fit(y, intercept)
    }

    /// Predict the response for one (already expanded) feature row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.intercept {
            self.coeffs[0] + self.coeffs[1..].iter().zip(x).map(|(c, v)| c * v).sum::<f64>()
        } else {
            self.coeffs.iter().zip(x).map(|(c, v)| c * v).sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_planted_model_with_intercept() {
        // y = 3 + 2 x1 - x2
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i * i % 7) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 + 2.0 * r[0] - r[1]).collect();
        let m = LinearModel::fit(&rows, &y, true).unwrap();
        assert!((m.coeffs[0] - 3.0).abs() < 1e-9);
        assert!((m.coeffs[1] - 2.0).abs() < 1e-9);
        assert!((m.coeffs[2] + 1.0).abs() < 1e-9);
        assert!((m.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(m.ridge_lambda, 0.0);
    }

    #[test]
    fn recovers_planted_model_without_intercept() {
        // y = 0.5 x1 + 4 x2, no intercept.
        let rows: Vec<Vec<f64>> =
            (1..15).map(|i| vec![i as f64, ((i * 3) % 5) as f64 + 1.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 0.5 * r[0] + 4.0 * r[1]).collect();
        let m = LinearModel::fit(&rows, &y, false).unwrap();
        assert!((m.coeffs[0] - 0.5).abs() < 1e-9);
        assert!((m.coeffs[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn predict_matches_fit() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 1.0 + 2.0 * r[0]).collect();
        let m = LinearModel::fit(&rows, &y, true).unwrap();
        assert!((m.predict(&[100.0]) - 201.0).abs() < 1e-6);
    }

    #[test]
    fn recovers_interaction_model() {
        // y = x1 + x2 + 0.5 x1 x2 over a grid.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for a in 0..5 {
            for b in 0..5 {
                let x = [a as f64, b as f64];
                rows.push(vec![x[0], x[1], x[0] * x[1]]);
                y.push(x[0] + x[1] + 0.5 * x[0] * x[1]);
            }
        }
        let m = LinearModel::fit(&rows, &y, false).unwrap();
        assert!((m.coeffs[0] - 1.0).abs() < 1e-9);
        assert!((m.coeffs[1] - 1.0).abs() < 1e-9);
        assert!((m.coeffs[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rank_deficient_falls_back_to_ridge() {
        // Second column is a copy of the first: singular gram.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
        let m = LinearModel::fit(&rows, &y, false).unwrap();
        assert!(m.ridge_lambda > 0.0);
        // Ridge splits the weight across the duplicated columns; the
        // prediction is still right.
        assert!((m.predict(&[2.0, 2.0]) - 6.0).abs() < 1e-3);
    }

    #[test]
    fn errors_reported() {
        assert_eq!(LinearModel::fit(&[], &[], true), Err(FitError::NoData));
        assert!(matches!(
            LinearModel::fit(&[vec![1.0]], &[1.0, 2.0], true),
            Err(FitError::Dimension(_))
        ));
        assert!(matches!(
            LinearModel::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0], true),
            Err(FitError::Dimension(_))
        ));
    }

    #[test]
    fn a_stacked_design_fits_the_repeated_rows() {
        let block: Vec<Vec<f64>> =
            (0..4).map(|i| vec![f64::from(i), f64::from(i * i % 3)]).collect();
        let design = Design::repeated(&block, 3).unwrap();
        for copies in [2, 1, 3] {
            let rows: Vec<Vec<f64>> = block.iter().cycle().take(4 * copies).cloned().collect();
            let y: Vec<f64> = (0..rows.len()).map(|r| (r * 7 % 5) as f64).collect();
            for intercept in [false, true] {
                assert_eq!(design.fit(&y, intercept), LinearModel::fit(&rows, &y, intercept));
            }
        }
        // A partial block, more copies than prepared, or none.
        for n in [6, 16, 0] {
            let err = design.fit(&vec![1.0; n], true);
            assert!(matches!(err, Err(FitError::Dimension(_))), "{n} responses: {err:?}");
        }
    }

    #[test]
    fn constant_response_has_unit_r_squared() {
        let rows: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 5];
        let m = LinearModel::fit(&rows, &y, true).unwrap();
        assert!((m.predict(&[3.0]) - 7.0).abs() < 1e-9);
        assert_eq!(m.r_squared, 1.0);
    }

    #[test]
    fn std_errors_shrink_with_sample_size() {
        let gen = |n: usize| {
            let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 13) as f64]).collect();
            let y: Vec<f64> = rows
                .iter()
                .enumerate()
                .map(|(i, r)| 2.0 * r[0] + ((i * 2654435761) % 100) as f64 / 50.0 - 1.0)
                .collect();
            LinearModel::fit(&rows, &y, true).unwrap()
        };
        let small = gen(20);
        let large = gen(500);
        assert_eq!(small.coef_std_errors.len(), 2);
        assert!(large.coef_std_errors[1] < small.coef_std_errors[1]);
        // The true slope lies within a few standard errors.
        assert!((large.coeffs[1] - 2.0).abs() < 4.0 * large.coef_std_errors[1]);
    }

    #[test]
    fn exact_fit_has_zero_std_errors() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] + 1.0).collect();
        let m = LinearModel::fit(&rows, &y, true).unwrap();
        for se in &m.coef_std_errors {
            assert!(*se < 1e-6, "exact fit should have ~0 std errors, got {se}");
        }
    }

    #[test]
    fn noisy_fit_has_reasonable_r_squared() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        // Deterministic pseudo-noise.
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| 2.0 * r[0] + ((i * 2654435761) % 100) as f64 / 100.0 - 0.5)
            .collect();
        let m = LinearModel::fit(&rows, &y, true).unwrap();
        assert!(m.r_squared > 0.99, "r² = {}", m.r_squared);
    }
}
