//! # sensact-math
//!
//! Numerical substrate for the `sensact` workspace: dense linear algebra,
//! eigen-decomposition, discrete-time LQR synthesis, running statistics and the
//! evaluation metrics used throughout the paper reproduction (ROC-AUC, average
//! precision, endpoint error).
//!
//! Everything is implemented from scratch on `f64` with no external numerics
//! dependencies, so the whole workspace stays buildable offline.
//!
//! ## Example
//!
//! ```
//! use sensact_math::{Matrix, lqr::{dlqr_finite, LqrProblem}};
//!
//! // Double integrator: x' = [[1, dt], [0, 1]] x + [[0], [dt]] u
//! let dt = 0.1;
//! let a = Matrix::from_rows(&[&[1.0, dt], &[0.0, 1.0]]);
//! let b = Matrix::from_rows(&[&[0.0], &[dt]]);
//! let q = Matrix::identity(2);
//! let r = Matrix::identity(1);
//! let gains = dlqr_finite(&LqrProblem::new(a, b, q, r), 200).expect("solvable");
//! assert_eq!(gains[0].feedback.shape(), (1, 2));
//! ```

pub mod complex;
pub mod eigen;
pub mod kernels;
pub mod lqr;
pub mod matrix;
pub mod metrics;
pub mod rng;
pub mod simd;
pub mod stats;
pub mod vector;

pub use complex::Complex64;
pub use matrix::Matrix;
pub use rng::StdRng;
pub use stats::RunningStats;

/// Error type for all fallible numerical routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MathError {
    /// Operand shapes are incompatible (`expected` vs `found`, row-major `(rows, cols)`).
    ShapeMismatch {
        /// Shape the operation required.
        expected: (usize, usize),
        /// Shape that was supplied.
        found: (usize, usize),
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Offending shape.
        shape: (usize, usize),
    },
    /// A matrix is singular (or numerically so) where an inverse/solve was required.
    Singular,
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// An argument was outside its documented domain.
    InvalidArgument(&'static str),
}

impl std::fmt::Display for MathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected:?}, found {found:?}")
            }
            MathError::NotSquare { shape } => write!(f, "matrix is not square: {shape:?}"),
            MathError::Singular => write!(f, "matrix is singular"),
            MathError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            MathError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for MathError {}

/// Convenience alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, MathError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = MathError::ShapeMismatch {
            expected: (2, 2),
            found: (3, 1),
        };
        assert!(e.to_string().contains("expected (2, 2)"));
        assert!(MathError::Singular.to_string().contains("singular"));
        assert!(MathError::NoConvergence { iterations: 7 }
            .to_string()
            .contains('7'));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MathError>();
    }
}
