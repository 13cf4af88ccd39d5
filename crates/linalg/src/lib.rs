//! Dense linear algebra and regression substrate for ConvMeter.
//!
//! The ConvMeter performance model (Beringer et al., ICPP '24) reduces runtime
//! prediction to fitting a handful of coefficients by ordinary least squares
//! over at most a few thousand benchmark observations. This crate provides
//! exactly that machinery, from scratch:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with the small set of
//!   operations regression needs (products, transpose, slicing).
//! * [`qr`] — Householder QR factorisation and least-squares solving. QR is
//!   preferred over the normal equations because the ConvMeter design matrix
//!   (FLOPs, Inputs, Outputs columns) is strongly collinear across ConvNets,
//!   and squaring the condition number would be reckless.
//! * [`regression`] — [`regression::LinearRegression`] (OLS with optional
//!   intercept and optional ridge damping).
//! * [`stats`] — the goodness-of-fit metrics the paper reports: R², RMSE,
//!   NRMSE (range-normalised), and MAPE.
//! * [`cv`] — K-fold and leave-one-group-out splitters. Leave-one-group-out
//!   is how the paper obtains per-ConvNet error rates: each network's own
//!   data points are excluded from the training set used to predict it.
//!
//! Everything is deterministic; nothing allocates during prediction.

#![warn(missing_docs)]

pub mod cv;
pub mod diagnostics;
pub mod matrix;
pub mod qr;
pub mod regression;
pub mod robust;
pub mod stats;

pub use cv::{KFold, LeaveOneGroupOut, Split};
pub use diagnostics::ResidualProfile;
pub use matrix::Matrix;
pub use qr::condition_estimate;
pub use regression::{FitError, FitSummary, LinearRegression};
pub use robust::{HuberRegression, RobustFit, RobustReport, HUBER_K};
pub use stats::{mae, mape, mean, nrmse, r_squared, rmse, std_dev};
