//! Abstractions describing the systems of ODEs the integrators operate on.

use harvsim_linalg::{DMatrix, DVector};

/// A (possibly nonlinear, possibly time-varying) system of first-order ODEs
/// `ẋ = f(t, x)`.
///
/// This is the interface every integrator in the crate consumes. The harvester
/// component blocks implement richer traits in `harvsim-core`; once assembled
/// and linearised they are presented to the integrators through this trait.
pub trait OdeSystem {
    /// Number of state variables.
    fn dimension(&self) -> usize;

    /// Evaluates the derivative `dx = f(t, x)`.
    ///
    /// Implementations must write all `self.dimension()` entries of `dx`.
    fn eval(&self, t: f64, x: &DVector, dx: &mut DVector);

    /// Evaluates the Jacobian `∂f/∂x` at `(t, x)`.
    ///
    /// The default implementation uses central finite differences, which is
    /// adequate for the implicit baseline solvers; systems with cheap analytic
    /// Jacobians (such as the linearised state-space models) should override it.
    fn jacobian(&self, t: f64, x: &DVector) -> DMatrix {
        let n = self.dimension();
        let mut jac = DMatrix::zeros(n, n);
        let mut x_pert = x.clone();
        let mut f_plus = DVector::zeros(n);
        let mut f_minus = DVector::zeros(n);
        for j in 0..n {
            let scale = x[j].abs().max(1.0);
            let h = 1e-7 * scale;
            x_pert[j] = x[j] + h;
            self.eval(t, &x_pert, &mut f_plus);
            x_pert[j] = x[j] - h;
            self.eval(t, &x_pert, &mut f_minus);
            x_pert[j] = x[j];
            for i in 0..n {
                jac[(i, j)] = (f_plus[i] - f_minus[i]) / (2.0 * h);
            }
        }
        jac
    }
}

/// An [`OdeSystem`] defined by a closure, convenient for tests and examples.
///
/// # Example
///
/// ```
/// use harvsim_ode::problem::{FnOdeSystem, OdeSystem};
/// use harvsim_linalg::DVector;
///
/// let decay = FnOdeSystem::new(1, |_t, x: &DVector, dx: &mut DVector| dx[0] = -x[0]);
/// let mut dx = DVector::zeros(1);
/// decay.eval(0.0, &DVector::from_slice(&[2.0]), &mut dx);
/// assert_eq!(dx[0], -2.0);
/// ```
pub struct FnOdeSystem<F>
where
    F: Fn(f64, &DVector, &mut DVector),
{
    dimension: usize,
    f: F,
}

impl<F> FnOdeSystem<F>
where
    F: Fn(f64, &DVector, &mut DVector),
{
    /// Wraps the closure `f` as an ODE system of the given dimension.
    pub fn new(dimension: usize, f: F) -> Self {
        FnOdeSystem { dimension, f }
    }
}

impl<F> OdeSystem for FnOdeSystem<F>
where
    F: Fn(f64, &DVector, &mut DVector),
{
    fn dimension(&self) -> usize {
        self.dimension
    }

    fn eval(&self, t: f64, x: &DVector, dx: &mut DVector) {
        (self.f)(t, x, dx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_system_evaluates_closure() {
        let sys = FnOdeSystem::new(2, |t, x: &DVector, dx: &mut DVector| {
            dx[0] = x[1] + t;
            dx[1] = -x[0];
        });
        assert_eq!(sys.dimension(), 2);
        let mut dx = DVector::zeros(2);
        sys.eval(1.0, &DVector::from_slice(&[2.0, 3.0]), &mut dx);
        assert_eq!(dx.as_slice(), &[4.0, -2.0]);
    }

    #[test]
    fn finite_difference_jacobian_of_linear_system_is_exact() {
        let sys = FnOdeSystem::new(2, |_t, x: &DVector, dx: &mut DVector| {
            dx[0] = 2.0 * x[0] - x[1];
            dx[1] = 0.5 * x[0] + 3.0 * x[1];
        });
        let jac = sys.jacobian(0.0, &DVector::from_slice(&[1.0, 1.0]));
        assert!((jac[(0, 0)] - 2.0).abs() < 1e-6);
        assert!((jac[(0, 1)] + 1.0).abs() < 1e-6);
        assert!((jac[(1, 0)] - 0.5).abs() < 1e-6);
        assert!((jac[(1, 1)] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn finite_difference_jacobian_of_nonlinear_system() {
        let sys = FnOdeSystem::new(1, |_t, x: &DVector, dx: &mut DVector| dx[0] = x[0] * x[0]);
        let jac = sys.jacobian(0.0, &DVector::from_slice(&[3.0]));
        assert!((jac[(0, 0)] - 6.0).abs() < 1e-5);
    }
}
