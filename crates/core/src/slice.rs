//! The one slice executor under both the batch
//! [`crate::service::SessionService`] and the front-door
//! [`crate::server::Server`]: materialise a parked session, advance it one
//! slice, bill it, then finish it or checkpoint and persist it. The callers
//! only choose which session runs next and what becomes of it afterwards.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::{Fault, FaultPlan, FaultSite};
use crate::session::{Session, SessionReport, Simulation};
use crate::store::SessionStore;
use crate::CoreError;

/// A session parked between slices.
pub(crate) enum Parked {
    /// Admitted, never ran.
    Fresh(Box<Simulation>),
    /// Live session kept resident.
    Live(Box<Session>),
    /// Checkpoint bytes (evicted, paused, or recovered at admission).
    Frozen(Arc<Vec<u8>>),
    /// Only in the store (recovered at server start, not yet loaded).
    Stored,
}

/// How a slice ended.
pub(crate) enum SliceOutcome {
    /// A panic escaped the slice (stringified payload): the session is
    /// quarantined, and its last persisted frame stays where it was.
    Panicked(String),
    /// An engine, model or restore error.
    Failed(CoreError),
    /// The session simulated its whole span.
    Finished(Box<SessionReport>),
    /// Preempted at a step boundary; `frame` is the checkpoint just taken.
    Preempted { session: Box<Session>, frame: Arc<Vec<u8>> },
}

/// What one slice produced, with its accounting.
pub(crate) struct Slice {
    pub(crate) outcome: SliceOutcome,
    /// Whether the slice thawed the session from checkpoint bytes.
    pub(crate) restored: bool,
    /// Growth of the session's live engine time across the slice.
    pub(crate) billed: Duration,
    /// Store writes or removals that failed after retries.
    pub(crate) degraded: usize,
    /// Simulated time reached; 0 if the session never materialised.
    pub(crate) time_s: f64,
    /// Accepted steps so far, both engines, open segment included.
    pub(crate) steps: u64,
}

impl Slice {
    fn unrun(outcome: SliceOutcome, restored: bool) -> Option<Slice> {
        let billed = Duration::ZERO;
        Some(Slice { outcome, restored, billed, degraded: 0, time_s: 0.0, steps: 0 })
    }
}

/// The per-slice settings both schedulers share.
pub(crate) struct SliceExecutor<'a> {
    pub(crate) slice_s: f64,
    pub(crate) slice_timeout: Option<Duration>,
    pub(crate) fault_plan: Option<&'a FaultPlan>,
    pub(crate) store: Option<&'a SessionStore>,
}

impl SliceExecutor<'_> {
    /// Runs one slice of session `id` under `catch_unwind`, so an escaped
    /// panic becomes [`SliceOutcome::Panicked`]. `None` means the fault plan
    /// killed the service at this slice boundary.
    ///
    /// `carries_billing` marks the first slice of a store-recovered session:
    /// it bills from zero, booking the engine time carried in the frame, and
    /// arms the identity backstop (a frame whose scenario label disagrees
    /// with the id it is keyed under never runs as that session).
    pub(crate) fn run_slice(
        &self,
        id: &str,
        parked: Parked,
        carries_billing: bool,
    ) -> Option<Slice> {
        panic::catch_unwind(AssertUnwindSafe(|| self.advance(id, parked, carries_billing)))
            .unwrap_or_else(|payload| {
                Slice::unrun(SliceOutcome::Panicked(panic_payload(payload)), false)
            })
    }

    fn advance(&self, id: &str, parked: Parked, carries_billing: bool) -> Option<Slice> {
        match self.fault_plan.and_then(|p| p.decide(FaultSite::SliceBoundary, 0)) {
            Some(Fault::KillService) => return None,
            Some(Fault::Panic) => panic!("{}", FaultPlan::PANIC_MESSAGE),
            _ => {}
        }
        let restored = matches!(parked, Parked::Frozen(_) | Parked::Stored);
        let session = match parked {
            Parked::Fresh(simulation) => simulation.start().map(Box::new),
            Parked::Live(session) => Ok(session),
            Parked::Frozen(bytes) => self.thaw(&bytes),
            Parked::Stored => self.load(id).and_then(|bytes| self.thaw(&bytes)),
        };
        let mut session = match session {
            Ok(session) => session,
            Err(err) => return Slice::unrun(SliceOutcome::Failed(err), restored),
        };
        if let Some(label) =
            session.scenario_label().filter(|label| carries_billing && label != &id)
        {
            let err = CoreError::InvalidConfiguration(format!(
                "recovered checkpoint keyed `{id}` belongs to scenario `{label}`"
            ));
            return Slice::unrun(SliceOutcome::Failed(err), restored);
        }
        // Live engine time is monotone and rides inside checkpoints, so the
        // per-slice deltas telescope to the final report's total.
        let billed_before =
            if carries_billing { Duration::ZERO } else { live_progress(&session).0 };
        let deadline = self.slice_timeout.map(|budget| Instant::now() + budget);
        let advanced = session.run_until_deadline(session.time() + self.slice_s, deadline);
        let (engine_time, steps) = live_progress(&session);
        let billed = engine_time.saturating_sub(billed_before);
        let time_s = session.time();
        let account = |outcome, degraded: bool| {
            Some(Slice { outcome, restored, billed, degraded: degraded.into(), time_s, steps })
        };
        if let Err(err) = advanced {
            return account(SliceOutcome::Failed(err), false);
        }
        if session.is_finished() {
            // A failed removal degrades: the entry re-runs idempotently.
            let degraded =
                self.store.is_some_and(|store| store.is_active(id) && store.remove(id).is_err());
            return account(SliceOutcome::Finished(Box::new(session.report())), degraded);
        }
        self.inject_panic(FaultSite::CheckpointEncode, 0);
        let frame = match session.checkpoint() {
            Ok(bytes) => Arc::new(bytes),
            Err(err) => return account(SliceOutcome::Failed(err), false),
        };
        // A failed put degrades: the caller's resident copy still carries the
        // session; only crash-recoverability of this slice is lost.
        let degraded = self.store.is_some_and(|store| store.put(id, &frame).is_err());
        account(SliceOutcome::Preempted { session, frame }, degraded)
    }

    fn thaw(&self, bytes: &[u8]) -> Result<Box<Session>, CoreError> {
        self.inject_panic(FaultSite::CheckpointDecode, bytes.len());
        Session::restore(bytes).map(Box::new)
    }

    fn load(&self, id: &str) -> Result<Vec<u8>, CoreError> {
        let loaded = match self.store {
            Some(store) => store.get(id).map_err(|err| err.to_string()),
            None => Err("no store attached".into()),
        };
        loaded.map_err(|err| {
            CoreError::InvalidConfiguration(format!(
                "store-backed session `{id}` failed to load: {err}"
            ))
        })
    }

    fn inject_panic(&self, site: FaultSite, len: usize) {
        if let Some(Fault::Panic) = self.fault_plan.and_then(|p| p.decide(site, len)) {
            panic!("{}", FaultPlan::PANIC_MESSAGE);
        }
    }
}

/// Live engine time (both engines) and accepted steps, open segment included.
fn live_progress(session: &Session) -> (Duration, u64) {
    let stats = session.live_engine_stats();
    let (engine, baseline) = (stats.state_space, stats.baseline);
    (engine.cpu_time + baseline.cpu_time, (engine.steps + baseline.steps) as u64)
}

/// Stringifies a caught panic payload (`&str`/`String`; else a placeholder).
fn panic_payload(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => "non-string panic payload".into(),
        },
    }
}

/// Validates the slice options both schedulers share; `owner` names the
/// scheduler in the message.
pub(crate) fn validate_options(
    owner: &str,
    slice_s: f64,
    workers: Option<usize>,
) -> Result<(), CoreError> {
    if !(slice_s > 0.0) {
        return Err(CoreError::InvalidConfiguration(format!(
            "{owner} slice must be positive, got {slice_s}"
        )));
    }
    if workers == Some(0) {
        return Err(CoreError::InvalidConfiguration(format!(
            "{owner} worker count must be at least 1"
        )));
    }
    Ok(())
}
