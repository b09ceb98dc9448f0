//! Small dense row-major matrices and the linear solvers the regression
//! models need. The design matrices here are tiny (tens of rows, ~10
//! columns), so simple, numerically careful O(n³) algorithms are the right
//! tool — no external linear-algebra dependency required.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Errors from matrix construction and solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Dimensions do not match the data length or the operation.
    Dimension(String),
    /// The system is singular (or not positive definite for Cholesky).
    Singular,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Dimension(msg) => write!(f, "dimension mismatch: {msg}"),
            MatrixError::Singular => write!(f, "matrix is singular"),
        }
    }
}

impl std::error::Error for MatrixError {}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from row-major data.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MatrixError> {
        if data.len() != rows * cols {
            return Err(MatrixError::Dimension(format!(
                "{rows}x{cols} needs {} elements, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        #[allow(clippy::needless_range_loop)] // parallel-array indexing is the clear form here
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != other.rows {
            return Err(MatrixError::Dimension(format!(
                "{}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if self.cols != v.len() {
            return Err(MatrixError::Dimension(format!(
                "{}x{} * vec{}",
                self.rows,
                self.cols,
                v.len()
            )));
        }
        Ok((0..self.rows).map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum()).collect())
    }

    /// Gram matrix `Aᵀ A` (symmetric positive semi-definite).
    pub fn gram(&self) -> Matrix {
        self.gram_after(Matrix::zeros(self.cols, self.cols))
    }

    /// The Gram of some rows stacked above this matrix's, given theirs:
    /// the upper triangle is a running sum, added row by row from zero,
    /// so continuing it over these rows gives `gram` of the stacked
    /// matrix to the last bit.
    // Inlined, each caller's loop sees where `g`'s buffer was allocated;
    // called out of line it ran about 15 % slower.
    #[inline(always)]
    pub(crate) fn gram_after(&self, mut g: Matrix) -> Matrix {
        let n = self.cols;
        assert_eq!((g.rows, g.cols), (n, n), "the Gram above must be {n}x{n}");
        for r in 0..self.rows {
            let row = self.row(r);
            for (i, &ri) in row.iter().enumerate() {
                if ri == 0.0 {
                    continue;
                }
                // Row i of the upper triangle, from the diagonal on.
                for (g_ij, rj) in g.data[i * n + i..(i + 1) * n].iter_mut().zip(&row[i..]) {
                    *g_ij += ri * rj;
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// The lower-right square block from row and column `from` on.
    pub fn trailing_block(&self, from: usize) -> Matrix {
        let n = self.rows.min(self.cols).saturating_sub(from);
        let mut data = Vec::with_capacity(n * n);
        for r in from..from + n {
            data.extend_from_slice(&self.row(r)[from..from + n]);
        }
        Matrix { rows: n, cols: n, data }
    }

    /// `Aᵀ y` for a response vector.
    pub fn t_vec(&self, y: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if self.rows != y.len() {
            return Err(MatrixError::Dimension(format!(
                "Aᵀy: A has {} rows, y has {}",
                self.rows,
                y.len()
            )));
        }
        let mut out = vec![0.0; self.cols];
        #[allow(clippy::needless_range_loop)] // r indexes both the matrix rows and y
        for r in 0..self.rows {
            let row = self.row(r);
            let yr = y[r];
            for (o, a) in out.iter_mut().zip(row) {
                *o += a * yr;
            }
        }
        Ok(out)
    }

    /// Cholesky-factor a symmetric positive-definite matrix, `A = L Lᵀ`.
    /// Fails with [`MatrixError::Singular`] when the matrix is not
    /// (numerically) positive definite.
    pub fn cholesky(&self) -> Result<Cholesky, MatrixError> {
        let n = self.rows;
        if self.cols != n {
            return Err(MatrixError::Dimension(format!(
                "cholesky needs a square matrix, got {n}x{}",
                self.cols
            )));
        }
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    // Relative tolerance: a pivot that collapses to noise
                    // relative to the original diagonal means the matrix is
                    // numerically rank-deficient.
                    let tol = 1e-10 * self[(i, i)].abs().max(1e-300);
                    if sum <= tol || !sum.is_finite() {
                        return Err(MatrixError::Singular);
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(Cholesky { n, l })
    }

    /// Solve the symmetric positive-definite system `self · x = b` by
    /// Cholesky decomposition. Fails with [`MatrixError::Singular`] when
    /// the matrix is not (numerically) positive definite.
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
        self.cholesky()?.solve(b)
    }

    /// Solve a general square system `self · x = b` by Gaussian elimination
    /// with partial pivoting.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
        let n = self.rows;
        if self.cols != n || b.len() != n {
            return Err(MatrixError::Dimension("solve needs square A and matching b".into()));
        }
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let pivot = (col..n)
                .max_by(|&i, &j| a[i * n + col].abs().partial_cmp(&a[j * n + col].abs()).unwrap())
                .unwrap();
            if a[pivot * n + col].abs() < 1e-12 {
                return Err(MatrixError::Singular);
            }
            if pivot != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot * n + k);
                }
                x.swap(col, pivot);
            }
            for row in col + 1..n {
                let factor = a[row * n + col] / a[col * n + col];
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                x[row] -= factor * x[col];
            }
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in i + 1..n {
                sum -= a[i * n + k] * x[k];
            }
            x[i] = sum / a[i * n + i];
        }
        Ok(x)
    }

    /// Add `lambda` to the diagonal (ridge regularization), in place.
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }
}

/// The lower-triangular factor `L` of a symmetric positive-definite
/// `A = L Lᵀ` ([`Matrix::cholesky`]): factor once, solve against any
/// number of right-hand sides.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    n: usize,
    /// Row-major `n × n`; the strict upper triangle stays zero.
    l: Vec<f64>,
}

impl Cholesky {
    /// Solve `A · x = b` by forward then back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
        let (n, l) = (self.n, &self.l);
        if b.len() != n {
            return Err(MatrixError::Dimension(format!(
                "{n}x{n} factor against a right-hand side of {}",
                b.len()
            )));
        }
        // Forward substitution: L z = b.
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i * n + k] * z[k];
            }
            z[i] = sum / l[i * n + i];
        }
        // Back substitution: Lᵀ x = z.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = z[i];
            for k in i + 1..n {
                sum -= l[k * n + i] * x[k];
            }
            x[i] = sum / l[i * n + i];
        }
        Ok(x)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn identity_solve_is_identity() {
        let i = Matrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        approx(&i.solve(&b).unwrap(), &b, 1e-12);
        approx(&i.solve_spd(&b).unwrap(), &b, 1e-12);
    }

    #[test]
    fn solve_known_system() {
        // [2 1; 1 3] x = [3; 5]  =>  x = [4/5, 7/5]
        let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        approx(&x, &[0.8, 1.4], 1e-12);
        let x2 = a.solve_spd(&[3.0, 5.0]).unwrap();
        approx(&x2, &[0.8, 1.4], 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        approx(&x, &[3.0, 2.0], 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]), Err(MatrixError::Singular));
        assert_eq!(a.solve_spd(&[1.0, 2.0]), Err(MatrixError::Singular));
    }

    #[test]
    fn not_positive_definite_detected() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert_eq!(a.solve_spd(&[1.0, 1.0]), Err(MatrixError::Singular));
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert_eq!(g, explicit);
    }

    #[test]
    fn gram_continues_over_stacked_rows() {
        let top = Matrix::from_rows(2, 2, vec![1.0, 0.0, 0.5, -2.0]).unwrap();
        let bottom = Matrix::from_rows(1, 2, vec![3.0, 0.25]).unwrap();
        let stacked = Matrix::from_rows(3, 2, vec![1.0, 0.0, 0.5, -2.0, 3.0, 0.25]).unwrap();
        assert_eq!(bottom.gram_after(top.gram()), stacked.gram());
    }

    #[test]
    fn trailing_block_is_the_lower_right_corner() {
        let a = Matrix::from_rows(3, 3, (1..=9).map(f64::from).collect()).unwrap();
        assert_eq!(a.trailing_block(0), a);
        assert_eq!(a.trailing_block(1), Matrix::from_rows(2, 2, vec![5.0, 6.0, 8.0, 9.0]).unwrap());
        assert_eq!(a.trailing_block(3).rows(), 0);
    }

    #[test]
    fn t_vec_matches_transpose_matvec() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = [1.0, -1.0, 2.0];
        approx(&a.t_vec(&y).unwrap(), &a.transpose().matvec(&y).unwrap(), 1e-12);
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 0.0, 2.0, 0.0, 1.0, -1.0]).unwrap();
        approx(&a.matvec(&[1.0, 2.0, 3.0]).unwrap(), &[7.0, -1.0], 1e-12);
    }

    #[test]
    fn dimension_errors() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.matvec(&[1.0]), Err(MatrixError::Dimension(_))));
        assert!(matches!(a.matmul(&Matrix::zeros(2, 2)), Err(MatrixError::Dimension(_))));
        assert!(matches!(a.t_vec(&[1.0]), Err(MatrixError::Dimension(_))));
        assert!(matches!(a.solve(&[1.0, 1.0]), Err(MatrixError::Dimension(_))));
        assert!(matches!(a.cholesky(), Err(MatrixError::Dimension(_))));
        assert!(matches!(a.solve_spd(&[1.0, 1.0]), Err(MatrixError::Dimension(_))));
        assert!(matches!(Matrix::identity(2).solve_spd(&[1.0]), Err(MatrixError::Dimension(_))));
        assert!(matches!(Matrix::from_rows(2, 2, vec![1.0]), Err(MatrixError::Dimension(_))));
    }

    #[test]
    fn ridge_makes_singular_solvable() {
        let mut g = Matrix::from_rows(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        g.add_diagonal(0.1);
        assert!(g.solve_spd(&[1.0, 1.0]).is_ok());
    }

    #[test]
    fn one_factor_serves_many_right_hand_sides() {
        let a = Matrix::from_rows(3, 3, vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0]).unwrap();
        let factor = a.cholesky().unwrap();
        for rhs in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, -1.0, 0.5]] {
            let x = factor.solve(&rhs).unwrap();
            assert_eq!(x, a.solve_spd(&rhs).unwrap());
            approx(&a.matvec(&x).unwrap(), &rhs, 1e-12);
        }
    }

    #[test]
    fn solve_random_spd_roundtrip() {
        // A = BᵀB + I is SPD; verify A·solve(A, b) == b.
        let b_mat = Matrix::from_rows(
            4,
            4,
            vec![
                0.5, -1.2, 2.0, 0.3, 1.1, 0.7, -0.4, 0.9, -2.0, 0.1, 0.8, 1.5, 0.2, -0.6, 1.0, -1.1,
            ],
        )
        .unwrap();
        let mut a = b_mat.gram();
        a.add_diagonal(1.0);
        let rhs = [1.0, 2.0, -1.0, 0.5];
        let x = a.solve_spd(&rhs).unwrap();
        approx(&a.matvec(&x).unwrap(), &rhs, 1e-9);
        let x2 = a.solve(&rhs).unwrap();
        approx(&x, &x2, 1e-9);
    }
}
