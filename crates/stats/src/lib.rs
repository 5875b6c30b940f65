//! # pmc-stats
//!
//! The statistical machinery behind the PMC-based power-modeling paper:
//!
//! * [`ols`] — ordinary least squares with classical **and**
//!   heteroscedasticity-consistent covariance estimators (HC0–HC3; the
//!   paper uses HC3, following Walker et al. and Long & Ervin 2000),
//! * [`online`] — streaming OLS over exact sufficient statistics,
//!   solved through a fresh Cholesky factor of `XᵀX` after every
//!   observation (the serving tier's online-learning loop),
//! * [`vif`] — Variance Inflation Factors, the multicollinearity
//!   diagnostic that gates counter selection (VIF > 10 ⇒ unstable model),
//! * [`descriptive`] — means/variances and the Pearson correlation
//!   coefficient used for the counter-significance analysis (paper §V),
//! * [`metrics`] — MAPE / MAE / RMSE error metrics,
//! * [`kfold`] — k-fold cross-validation with random indexing (paper
//!   §IV-B, 10-fold),
//! * [`diagnostics`] — residual diagnostics (Breusch–Pagan
//!   heteroscedasticity test, Durbin–Watson).
//!
//! Everything is deterministic given an RNG seed, pure CPU, and built on
//! the workspace's own [`pmc_linalg`] kernels (QR for the offline fit,
//! Cholesky for the streaming fit and for SPD inverses in the
//! covariance sandwiches).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod descriptive;
pub mod diagnostics;
mod error;
pub mod kfold;
pub mod metrics;
pub mod ols;
pub mod online;
pub mod rng;
pub mod vif;

pub use descriptive::{mean, pearson, population_variance, sample_variance, stddev, Summary};
pub use diagnostics::{breusch_pagan, durbin_watson, BreuschPagan};
pub use error::StatsError;
pub use kfold::{cross_validate, CvOutcome, Fold, KFold};
pub use metrics::{mae, mape, max_ape, rmse, ErrorMetrics};
pub use ols::{CovarianceKind, OlsFit, OlsOptions};
pub use online::OnlineOls;
pub use rng::SplitMix64;
pub use vif::{mean_vif, vif_all, vif_for};

/// Convenience result alias for fallible statistics operations.
pub type Result<T> = std::result::Result<T, StatsError>;
