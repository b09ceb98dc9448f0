//! # acs-mlstat — statistics and machine-learning substrate
//!
//! The paper's offline stage is built from four classic statistical tools,
//! all reimplemented here from scratch so the reproduction has no opaque
//! dependencies:
//!
//! * [`regression`] — multivariate OLS linear models with first-order
//!   interaction expansion (the paper's `lm`-style cluster models),
//! * [`kendall`] — Kendall rank correlation (τ-a, τ-b) for comparing
//!   Pareto-frontier orderings,
//! * [`cluster`] — PAM (k-medoids) relational clustering on a
//!   dissimilarity matrix, standing in for the R `fossil` package,
//! * [`tree`] — a CART classification tree with Gini impurity, standing in
//!   for `rpart`; the online stage classifies a new kernel by walking it.
//!
//! [`matrix`] supplies the small dense linear algebra, and [`validate`] the
//! leave-one-group-out cross-validation protocol of Section V-C.
//!
//! ```
//! use acs_mlstat::{pam, tau_a, Dissimilarity, LinearModel};
//!
//! // Regression: recover y = 1 + 2x.
//! let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
//! let y: Vec<f64> = rows.iter().map(|r| 1.0 + 2.0 * r[0]).collect();
//! let m = LinearModel::fit(&rows, &y, true).unwrap();
//! assert!((m.predict(&[100.0]) - 201.0).abs() < 1e-6);
//!
//! // Rank correlation and clustering.
//! assert_eq!(tau_a(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), Some(1.0));
//! let mut d = Dissimilarity::zeros(4);
//! d.set(0, 1, 0.1); d.set(2, 3, 0.1);
//! d.set(0, 2, 1.0); d.set(0, 3, 1.0); d.set(1, 2, 1.0); d.set(1, 3, 1.0);
//! let c = pam(&d, 2);
//! assert_eq!(c.assignment[0], c.assignment[1]);
//! assert_ne!(c.assignment[0], c.assignment[2]);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod describe;
pub mod kendall;
pub mod matrix;
pub mod regression;
pub mod tree;
pub mod validate;

pub use cluster::{pam, silhouette, Clustering, Dissimilarity};
pub use describe::{histogram, pearson, quantile, ranks, spearman};
pub use kendall::{tau_a, tau_b};
pub use matrix::{Cholesky, Matrix, MatrixError};
pub use regression::{interaction_len, with_interactions, Design, FitError, LinearModel};
pub use tree::{ClassificationTree, TreeError, TreeParams};
pub use validate::{
    leave_one_group_out, leave_one_out, mean, median, std_dev, weighted_mean, Fold,
};
