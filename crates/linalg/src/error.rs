//! Error type shared by all fallible linear-algebra routines.

use std::fmt;

/// Errors produced by the linear-algebra kernels.
///
/// Every variant carries enough context to diagnose the failing call
/// without a debugger; the statistical layer maps these onto its own
/// error type with the regression context attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        right: (usize, usize),
    },
    /// A matrix expected to be symmetric positive definite was not
    /// (a non-positive pivot was encountered at the given index).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// A matrix was numerically rank deficient (a negligible diagonal
    /// entry was found in a triangular factor at the given index).
    RankDeficient {
        /// Index of the negligible diagonal entry.
        column: usize,
    },
    /// A routine received an empty matrix or vector where data was
    /// required.
    Empty {
        /// Human-readable description of the operation that failed.
        op: &'static str,
    },
    /// Dimensions supplied to a constructor were inconsistent with the
    /// amount of data provided.
    BadConstruction {
        /// Expected number of elements.
        expected: usize,
        /// Provided number of elements.
        got: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, left, right } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotPositiveDefinite { pivot } => write!(
                f,
                "matrix is not positive definite (non-positive pivot at index {pivot})"
            ),
            LinalgError::RankDeficient { column } => write!(
                f,
                "matrix is numerically rank deficient (negligible diagonal at column {column})"
            ),
            LinalgError::Empty { op } => write!(f, "empty input to {op}"),
            LinalgError::BadConstruction { expected, got } => write!(
                f,
                "constructor dimension mismatch: expected {expected} elements, got {got}"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinalgError::ShapeMismatch {
            op: "matmul",
            left: (2, 3),
            right: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }

    #[test]
    fn rank_deficient_display_names_column() {
        let e = LinalgError::RankDeficient { column: 7 };
        assert!(e.to_string().contains('7'));
    }
}
