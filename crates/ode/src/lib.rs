//! # harvsim-ode
//!
//! Ordinary-differential-equation integration machinery for the linearised
//! state-space simulation technique of [Wang et al., DATE 2011] and for the
//! Newton–Raphson baseline it is compared against.
//!
//! The crate provides two families of integrators over the same
//! [`OdeSystem`] abstraction:
//!
//! * **Explicit methods** ([`explicit`]) — Forward Euler, Heun, classic
//!   Runge–Kutta 4 and, most importantly, the variable-step
//!   [Adams–Bashforth](explicit::AdamsBashforth) multi-step formula of orders
//!   1–4 that the paper uses (Eq. 5). Explicit methods advance the state in a
//!   single feed-forward sweep with no per-step nonlinear solve, which is the
//!   source of the paper's speed-up.
//! * **Implicit methods** ([`implicit`]) — Backward Euler and the trapezoidal
//!   rule, each solving a nonlinear algebraic system per step with the
//!   [`newton`] module's Newton–Raphson iteration. These reproduce the
//!   behaviour of the commercial HDL/SPICE solvers in the paper's Tables I and
//!   II and serve as the accuracy reference.
//!
//! Supporting modules:
//!
//! * [`exponential`] — the exact (exponential-Euler) update kernel for the
//!   stiff partition of a partitioned IMEX march, with a cached
//!   `h·ϕ₁(h·A_ss)` propagator.
//! * [`newton`] — damped Newton–Raphson with analytic or finite-difference
//!   Jacobians.
//! * [`stability`] — the explicit-stability step limit of Eq. 7, via the cheap
//!   diagonal-dominance rule or the exact spectral radius.
//! * [`step_control`] — local-truncation-error based adaptive step sizing.
//! * [`solution`] — the [`SampleSink`] output channel the march-in-time
//!   solvers write through (dense decimated recording is just one sink),
//!   trajectory recording, interpolation and waveform metrics (RMS windows,
//!   maximum deviation between waveforms, …).
//!
//! # Example: integrating a damped oscillator with Adams–Bashforth
//!
//! ```
//! use harvsim_ode::explicit::{AdamsBashforth, ExplicitIntegrator};
//! use harvsim_ode::problem::FnOdeSystem;
//! use harvsim_linalg::DVector;
//!
//! # fn main() -> Result<(), harvsim_ode::OdeError> {
//! // x'' = -x  written as first-order system.
//! let system = FnOdeSystem::new(2, |_t, x: &DVector, dx: &mut DVector| {
//!     dx[0] = x[1];
//!     dx[1] = -x[0];
//! });
//! let mut ab = AdamsBashforth::new(3)?;
//! let x0 = DVector::from_slice(&[1.0, 0.0]);
//! let trajectory = ab.integrate(&system, &x0, 0.0, 1.0, 1e-3)?;
//! let end = trajectory.last_state();
//! assert!((end[0] - 1.0f64.cos()).abs() < 1e-4);
//! # Ok(())
//! # }
//! ```
//!
//! [Wang et al., DATE 2011]: https://doi.org/10.1109/DATE.2011.5763084

#![forbid(unsafe_code)]
// `!(x > 0.0)`-style negated comparisons are the validation idiom throughout
// this workspace: unlike `x <= 0.0` they also reject NaN, which is exactly
// what the parameter checks need. Clippy's suggested `partial_cmp` rewrite
// obscures that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

mod error;
pub mod explicit;
pub mod exponential;
pub mod implicit;
pub mod newton;
pub mod problem;
pub mod solution;
pub mod stability;
pub mod step_control;

pub use error::OdeError;
pub use problem::{FnOdeSystem, OdeSystem};
pub use solution::{DecimatedRecorder, SampleSink, Trajectory};

/// Convenient result alias used across the crate.
pub type Result<T, E = OdeError> = std::result::Result<T, E>;
