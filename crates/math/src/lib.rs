//! Numerics substrate for the `qlink` quantum-network stack.
//!
//! This crate deliberately implements the small amount of numerical
//! machinery the rest of the workspace needs instead of pulling in a
//! general-purpose linear-algebra dependency:
//!
//! * [`Complex`] — double-precision complex numbers,
//! * [`CMatrix`] — dense complex matrices (the quantum substrate only ever
//!   manipulates registers of a handful of qubits, so dense is right),
//! * [`bessel`] — the modified-Bessel-function ratio `I1(x)/I0(x)` used by
//!   the optical-phase-uncertainty dephasing model (paper eq. (28),
//!   computed with a continued-fraction method in the spirit of Amos),
//! * [`stats`] — streaming summary statistics used by the evaluation
//!   harness (mean / standard deviation / standard error, and the
//!   *relative difference* metric of Section 6.1),
//! * [`solve`] — bisection root finding for a monotone `f`, plain
//!   bisection's answer from a few Illinois steps and the midpoints they
//!   leave open, used by the Fidelity Estimation Unit to invert `F(α)`
//!   when translating a requested `Fmin` into a bright-state population `α`.

pub mod bessel;
pub mod complex;
pub mod matrix;
pub mod solve;
pub mod stats;

pub use complex::Complex;
pub use matrix::CMatrix;
