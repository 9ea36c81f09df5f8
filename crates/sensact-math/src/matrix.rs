//! Dense row-major matrices with the operations the rest of the workspace needs:
//! arithmetic, transpose, LU solve/inverse, and Frobenius norms.

use crate::{MathError, Result};

/// A dense row-major `f64` matrix.
///
/// ```
/// use sensact_math::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = a.matmul(&Matrix::identity(2)).unwrap();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A diagonal matrix with the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transposed copy (cache-blocked).
    pub(crate) fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        crate::kernels::transpose_into(self.rows, self.cols, &self.data, &mut t.data);
        t
    }

    /// Matrix product `self * other`, via the auto-dispatching GEMM in
    /// [`crate::kernels`].
    ///
    /// Full IEEE semantics: zeros in `self` are **not** skipped, so NaN and
    /// signed-zero in `other` propagate exactly as written.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Matrix product into a caller-provided output, avoiding the result
    /// allocation: `out = self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `self.cols != other.rows` or
    /// `out` is not `self.rows × other.cols`.
    pub(crate) fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(MathError::ShapeMismatch {
                expected: (self.cols, other.cols),
                found: (other.rows, other.cols),
            });
        }
        if out.shape() != (self.rows, other.cols) {
            return Err(MathError::ShapeMismatch {
                expected: (self.rows, other.cols),
                found: out.shape(),
            });
        }
        crate::kernels::gemm(
            self.rows,
            other.cols,
            self.cols,
            1.0,
            &self.data,
            &other.data,
            0.0,
            &mut out.data,
        );
        Ok(())
    }

    /// `selfᵀ * other` without materialising the transpose; `self` is read
    /// as its transpose, so `self.rows` must equal `other.rows`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `self.rows != other.rows`.
    pub fn tr_matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(MathError::ShapeMismatch {
                expected: (self.rows, self.cols),
                found: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.cols, other.cols);
        crate::kernels::gemm_transa(
            self.cols,
            other.cols,
            self.rows,
            1.0,
            &self.data,
            &other.data,
            0.0,
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// Fused matrix-vector product into a caller-provided buffer:
    /// `out = self * v` with no intermediate allocations.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `v.len() != cols` or
    /// `out.len() != rows`.
    pub(crate) fn matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if v.len() != self.cols {
            return Err(MathError::ShapeMismatch {
                expected: (self.cols, 1),
                found: (v.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(MathError::ShapeMismatch {
                expected: (self.rows, 1),
                found: (out.len(), 1),
            });
        }
        crate::kernels::matvec_into(self.rows, self.cols, &self.data, v, out);
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] on differing shapes.
    pub(crate) fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] on differing shapes.
    pub(crate) fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a - b)
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(MathError::ShapeMismatch {
                expected: self.shape(),
                found: other.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Scaled copy `alpha * self`.
    pub(crate) fn scaled(&self, alpha: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| alpha * x).collect(),
        }
    }

    /// Maximum absolute entry.
    #[cfg(test)]
    pub(crate) fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotSquare`] for non-square matrices.
    #[cfg(test)]
    pub(crate) fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(MathError::NotSquare {
                shape: self.shape(),
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Solve `self * X = B` for a matrix of right-hand sides by LU with
    /// partial pivoting.
    ///
    /// # Errors
    ///
    /// [`MathError::NotSquare`] if the matrix is not square,
    /// [`MathError::ShapeMismatch`] if `b.rows() != rows`, or
    /// [`MathError::Singular`] when a pivot underflows.
    pub(crate) fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if !self.is_square() {
            return Err(MathError::NotSquare {
                shape: self.shape(),
            });
        }
        if b.rows != self.rows {
            return Err(MathError::ShapeMismatch {
                expected: (self.rows, b.cols),
                found: b.shape(),
            });
        }
        let n = self.rows;
        let mut lu = self.clone();
        let mut x = b.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        // LU decomposition with partial pivoting, applied in place.
        for k in 0..n {
            // Pivot search.
            let mut piv = k;
            let mut max = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > max {
                    max = v;
                    piv = r;
                }
            }
            if max < 1e-12 {
                return Err(MathError::Singular);
            }
            if piv != k {
                for c in 0..n {
                    lu.data.swap(k * n + c, piv * n + c);
                }
                for c in 0..x.cols {
                    x.data.swap(k * x.cols + c, piv * x.cols + c);
                }
                perm.swap(k, piv);
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / pivot;
                lu[(r, k)] = factor;
                for c in (k + 1)..n {
                    let v = lu[(k, c)];
                    lu[(r, c)] -= factor * v;
                }
                for c in 0..x.cols {
                    let v = x[(k, c)];
                    x[(r, c)] -= factor * v;
                }
            }
        }

        // Back substitution.
        for c in 0..x.cols {
            for r in (0..n).rev() {
                let mut s = x[(r, c)];
                for k in (r + 1)..n {
                    s -= lu[(r, k)] * x[(k, c)];
                }
                x[(r, c)] = s / lu[(r, r)];
            }
        }
        Ok(x)
    }

    /// Determinant via LU decomposition.
    ///
    /// # Errors
    ///
    /// [`MathError::NotSquare`] for non-square input.
    #[cfg(test)]
    pub(crate) fn determinant(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(MathError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows;
        let mut lu = self.clone();
        let mut det = 1.0;
        for k in 0..n {
            let mut piv = k;
            let mut max = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > max {
                    max = v;
                    piv = r;
                }
            }
            if max < 1e-14 {
                return Ok(0.0);
            }
            if piv != k {
                for c in 0..n {
                    lu.data.swap(k * n + c, piv * n + c);
                }
                det = -det;
            }
            let pivot = lu[(k, k)];
            det *= pivot;
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / pivot;
                for c in (k + 1)..n {
                    let v = lu[(k, c)];
                    lu[(r, c)] -= factor * v;
                }
            }
        }
        Ok(det)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn identity_is_multiplicative_neutral() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let p = m.matmul(&Matrix::identity(3)).unwrap();
        assert_eq!(p, m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(MathError::ShapeMismatch { .. })));
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
    }

    #[test]
    fn solve_recovers_solution() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x_true = [1.0, -2.0];
        let b = Matrix::from_vec(2, 1, a.matvec(&x_true).unwrap());
        let x = a.solve_matrix(&b).unwrap();
        assert!((x[(0, 0)] - 1.0).abs() < 1e-10);
        assert!((x[(1, 0)] + 2.0).abs() < 1e-10);
    }

    #[test]
    fn solve_needs_pivoting() {
        // Leading zero pivot forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a
            .solve_matrix(&Matrix::from_rows(&[&[2.0], &[3.0]]))
            .unwrap();
        assert!((x[(0, 0)] - 3.0).abs() < 1e-12);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(
            a.solve_matrix(&Matrix::identity(2)),
            Err(MathError::Singular)
        );
        assert_eq!(a.determinant().unwrap(), 0.0);
    }

    #[test]
    fn determinant_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!((a.determinant().unwrap() + 2.0).abs() < 1e-12);
        assert!((Matrix::identity(5).determinant().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trace_of_square_only() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 5.0]]);
        assert_eq!(s.trace().unwrap(), 7.0);
        assert!(matches!(
            Matrix::zeros(2, 3).trace(),
            Err(MathError::NotSquare { .. })
        ));
    }

    #[test]
    fn diag_constructor() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace().unwrap(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn display_renders_rows() {
        let m = Matrix::identity(2);
        let s = m.to_string();
        assert!(s.contains('['));
        assert_eq!(s.lines().count(), 2);
    }

    /// Random matrix with entries in `[-3, 3)` plus diagonal dominance, which
    /// guarantees invertibility.
    fn rand_invertible(rng: &mut StdRng, n: usize) -> Matrix {
        let mut v: Vec<f64> = (0..n * n).map(|_| rng.random_range(-3.0..3.0)).collect();
        for i in 0..n {
            v[i * n + i] += 10.0;
        }
        Matrix::from_vec(n, n, v)
    }

    fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| rng.random_range(-3.0..3.0))
                .collect(),
        )
    }

    #[test]
    fn prop_solve_matches_matvec() {
        let mut rng = StdRng::seed_from_u64(0x3A7201);
        for _ in 0..64 {
            let a = rand_invertible(&mut rng, 4);
            let x: Vec<f64> = (0..4).map(|_| rng.random_range(-5.0..5.0)).collect();
            let b = Matrix::from_vec(4, 1, a.matvec(&x).unwrap());
            let x2 = a.solve_matrix(&b).unwrap().data;
            for (u, v) in x.iter().zip(&x2) {
                assert!((u - v).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn prop_det_of_product() {
        let mut rng = StdRng::seed_from_u64(0x3A7202);
        for _ in 0..64 {
            let a = rand_invertible(&mut rng, 3);
            let b = rand_invertible(&mut rng, 3);
            let dab = a.matmul(&b).unwrap().determinant().unwrap();
            let da = a.determinant().unwrap();
            let db = b.determinant().unwrap();
            assert!((dab - da * db).abs() < 1e-6 * dab.abs().max(1.0));
        }
    }

    #[test]
    fn prop_transpose_of_product() {
        let mut rng = StdRng::seed_from_u64(0x3A7203);
        for _ in 0..64 {
            let a = rand_invertible(&mut rng, 3);
            let b = rand_invertible(&mut rng, 3);
            let lhs = a.matmul(&b).unwrap().transpose();
            let rhs = b.transpose().matmul(&a.transpose()).unwrap();
            assert!(lhs.sub(&rhs).unwrap().max_abs() < 1e-9);
        }
    }

    #[test]
    fn matmul_propagates_nan() {
        // Regression: the old zero-skip fast path returned 0 where IEEE says
        // NaN (a zero row in A times a NaN entry in B).
        let a = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[f64::NAN, 1.0], &[2.0, 3.0]]);
        let c = a.matmul(&b).unwrap();
        assert!(c[(0, 0)].is_nan(), "0 * NaN must propagate NaN");
        assert!(c[(1, 0)].is_nan());
        assert!((c[(0, 1)] - 0.0).abs() < 1e-15);
    }

    #[test]
    fn tr_matmul_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(0x3A7205);
        for &(m, n, k) in &[(1, 1, 1), (3, 4, 5), (8, 2, 9), (1, 7, 3)] {
            let at = rand_matrix(&mut rng, k, m);
            let b = rand_matrix(&mut rng, k, n);
            let expect = at.transpose().matmul(&b).unwrap();
            let got = at.tr_matmul(&b).unwrap();
            assert!(expect.sub(&got).unwrap().max_abs() <= 1e-12);
        }
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Matrix::from_vec(2, 2, vec![f64::NAN; 4]);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
        let mut wrong = Matrix::zeros(3, 2);
        assert!(matches!(
            a.matmul_into(&b, &mut wrong),
            Err(MathError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_into_overwrites_its_buffer() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut y = [0.0; 3];
        m.matvec_into(&[1.0, -1.0], &mut y).unwrap();
        assert_eq!(y, [-1.0, -1.0, -1.0]);
        let mut short = [0.0; 2];
        assert!(m.matvec_into(&[1.0, 1.0], &mut short).is_err());
        // A reused buffer through a `rows × 0` matrix is overwritten too.
        let mut stale = [f64::NAN, 7.0];
        Matrix::zeros(2, 0).matvec_into(&[], &mut stale).unwrap();
        assert_eq!(stale, [0.0, 0.0]);
    }
}
