use std::fmt;

use harvsim_blocks::BlockError;
use harvsim_digital::KernelError;
use harvsim_linalg::LinalgError;
use harvsim_ode::OdeError;

/// Errors produced by the simulation engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration value was outside its accepted range.
    InvalidConfiguration(String),
    /// The assembled system is not well-posed (e.g. the number of algebraic
    /// constraints does not match the number of terminal nets, or `Jyy` is
    /// singular so the terminal variables cannot be eliminated).
    IllPosedSystem(String),
    /// An underlying block-model error.
    Block(BlockError),
    /// An underlying linear-algebra error.
    Linalg(LinalgError),
    /// An underlying ODE-integration error.
    Ode(OdeError),
    /// An underlying digital-kernel error.
    Kernel(KernelError),
    /// A checkpoint could not be decoded (truncated, corrupted, or written by
    /// an incompatible format version / configuration encoding).
    Checkpoint(crate::checkpoint::CheckpointError),
    /// An on-disk session-store operation failed (I/O, corruption, or a
    /// manifest/frame disagreement — see [`crate::store::StoreError`]).
    Store(crate::store::StoreError),
    /// [`crate::Session::fork`] refused: the fork could not be exact (see
    /// [`crate::session::ForkRefusal`] for the cases).
    Fork(crate::session::ForkRefusal),
    /// A failure attributed to one scenario of a batch or sweep: `label`
    /// names the originating configuration (the scenario id, or the sweep
    /// point's `scenario+param=value` path), so a failed grid point is
    /// identifiable from the error alone instead of by its position in a
    /// `Vec<Result<…>>`.
    Scenario {
        /// Label of the scenario/sweep point that failed.
        label: String,
        /// The underlying failure.
        source: Box<CoreError>,
    },
}

impl CoreError {
    /// Wraps this error with the label of the scenario that produced it
    /// (idempotent for already-labelled errors: the innermost label wins and
    /// no second layer is added).
    pub fn for_scenario(self, label: impl Into<String>) -> CoreError {
        match self {
            already @ CoreError::Scenario { .. } => already,
            source => CoreError::Scenario { label: label.into(), source: Box::new(source) },
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfiguration(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::IllPosedSystem(msg) => write!(f, "ill-posed system: {msg}"),
            CoreError::Block(err) => write!(f, "block model error: {err}"),
            CoreError::Linalg(err) => write!(f, "linear algebra error: {err}"),
            CoreError::Ode(err) => write!(f, "integration error: {err}"),
            CoreError::Kernel(err) => write!(f, "digital kernel error: {err}"),
            CoreError::Checkpoint(err) => write!(f, "checkpoint error: {err}"),
            CoreError::Store(err) => write!(f, "session store error: {err}"),
            CoreError::Fork(refusal) => write!(f, "fork refused: {refusal}"),
            CoreError::Scenario { label, source } => write!(f, "scenario `{label}`: {source}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Block(err) => Some(err),
            CoreError::Linalg(err) => Some(err),
            CoreError::Ode(err) => Some(err),
            CoreError::Kernel(err) => Some(err),
            CoreError::Checkpoint(err) => Some(err),
            CoreError::Store(err) => Some(err),
            CoreError::Scenario { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<BlockError> for CoreError {
    fn from(err: BlockError) -> Self {
        CoreError::Block(err)
    }
}

impl From<LinalgError> for CoreError {
    fn from(err: LinalgError) -> Self {
        CoreError::Linalg(err)
    }
}

impl From<OdeError> for CoreError {
    fn from(err: OdeError) -> Self {
        CoreError::Ode(err)
    }
}

impl From<KernelError> for CoreError {
    fn from(err: KernelError) -> Self {
        CoreError::Kernel(err)
    }
}

impl From<crate::checkpoint::CheckpointError> for CoreError {
    fn from(err: crate::checkpoint::CheckpointError) -> Self {
        CoreError::Checkpoint(err)
    }
}

impl From<crate::session::ForkRefusal> for CoreError {
    fn from(refusal: crate::session::ForkRefusal) -> Self {
        CoreError::Fork(refusal)
    }
}

impl From<crate::store::StoreError> for CoreError {
    fn from(err: crate::store::StoreError) -> Self {
        CoreError::Store(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let err: CoreError = LinalgError::NotSquare { rows: 1, cols: 2 }.into();
        assert!(err.to_string().contains("linear algebra"));
        let err: CoreError = OdeError::InvalidParameter("x".into()).into();
        assert!(err.to_string().contains("integration"));
        let err: CoreError =
            BlockError::InvalidParameter { name: "m", value: 0.0, constraint: "positive" }.into();
        assert!(err.to_string().contains("block"));
        let err: CoreError = KernelError::TargetInThePast {
            target: harvsim_digital::SimTime::ZERO,
            now: harvsim_digital::SimTime::from_secs(1),
        }
        .into();
        assert!(err.to_string().contains("kernel"));
        assert!(CoreError::InvalidConfiguration("bad".into()).to_string().contains("bad"));
        assert!(CoreError::IllPosedSystem("why".into()).to_string().contains("why"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn scenario_labelling_wraps_once_and_chains_the_source() {
        let inner = CoreError::InvalidConfiguration("duration must be positive".into());
        let labelled = inner.clone().for_scenario("scenario1+load=2e4");
        assert!(labelled.to_string().contains("scenario1+load=2e4"));
        assert!(labelled.to_string().contains("duration must be positive"));
        match &labelled {
            CoreError::Scenario { label, source } => {
                assert_eq!(label, "scenario1+load=2e4");
                assert_eq!(source.as_ref(), &inner);
            }
            other => panic!("expected a Scenario wrapper, got {other:?}"),
        }
        // Idempotent: a second labelling keeps the innermost attribution.
        let twice = labelled.clone().for_scenario("outer");
        assert_eq!(twice, labelled);
        assert!(std::error::Error::source(&labelled).is_some());
    }
}
