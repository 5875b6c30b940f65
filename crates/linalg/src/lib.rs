//! # pmc-linalg
//!
//! Small, dependency-free dense linear algebra for the `pmcpower`
//! workspace.
//!
//! This crate provides exactly the numerical kernels required by the
//! statistical layer ([`pmc-stats`]) of the power-modeling pipeline:
//!
//! * a row-major dense [`Matrix`] with the usual structural operations,
//! * [Cholesky](chol::Cholesky) factorization of symmetric positive
//!   definite matrices (used for normal-equation solves — the
//!   streaming fit of the online-learning loop factors its exact
//!   `XᵀX` after every observation — and SPD inverses, e.g. `(XᵀX)⁻¹`
//!   in OLS covariance computations),
//! * Householder [QR](qr::Qr) factorization with a least-squares solver
//!   (the numerically preferred path for regression fits),
//! * triangular solves and small utility routines.
//!
//! The matrices in the power-modeling workload are tiny by HPC standards
//! (thousands of rows, tens of columns), so the implementations favour
//! clarity, numerical robustness and cache-friendly row-major traversal
//! over blocked/SIMD sophistication. All routines are deterministic and
//! allocation patterns are explicit, per the workspace performance
//! guidelines.
//!
//! ## Example
//!
//! ```
//! use pmc_linalg::Matrix;
//!
//! // Solve the least-squares problem min ||Ax - b|| for a tall matrix.
//! let a = Matrix::from_rows(&[
//!     &[1.0, 1.0],
//!     &[1.0, 2.0],
//!     &[1.0, 3.0],
//! ]).unwrap();
//! let b = [6.0, 9.0, 12.0];
//! let x = a.least_squares(&b).unwrap();
//! assert!((x[0] - 3.0).abs() < 1e-10);
//! assert!((x[1] - 3.0).abs() < 1e-10);
//! ```

// Index loops mirror the textbook formulations of the kernels and are
// clearer than iterator chains for matrix math.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chol;
mod error;
mod matrix;
mod qr;
mod triangular;
mod vecops;

pub use chol::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use qr::Qr;
pub use triangular::{solve_lower, solve_upper};
pub use vecops::{axpy, dot, mean, norm2, scale, sub};

/// Convenience result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
