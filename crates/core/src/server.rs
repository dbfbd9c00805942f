//! The session service's front door: a long-lived server that admits,
//! schedules, checkpoints and bills [`Session`]s on behalf of external
//! clients speaking the [`crate::protocol`] wire grammar — over a unix
//! socket, over stdin/stdout, or in-process via [`Server::execute`].
//!
//! # Architecture
//!
//! A [`Server`] owns a crash-safe [`SessionStore`] and a worker pool that
//! advances admitted sessions one time slice at a time. Each slice runs
//! through the crate's one slice executor, the same code the batch
//! [`crate::service::SessionService`] runs, so checkpoint-on-preempt
//! durability, panic quarantine, billing and the deterministic
//! [`FaultPlan`] hooks are one implementation; the run queue is the shared
//! class queue ([`JobClass`] priority, EDF within class, starvation-proof
//! aging). This module owns what is specific to a front door: the protocol,
//! the entry lifecycle and the offer ledger. Sessions arrive one `submit` at
//! a time, can be paused/resumed/cancelled mid-run or drained, and survive
//! server restarts — a new [`Server::start`] over the same
//! store directory re-adopts every session the manifest records, and a
//! resubmission of a known id is **idempotent**: it re-admits from the
//! stored frame (or just reports the live state), never double-admits and
//! never double-bills.
//!
//! # Hardening
//!
//! - **Admission control**: [`ServerOptions::class_capacity`] bounds each
//!   class's accept queue; submits beyond it are shed with a typed
//!   [`WireError::Overloaded`] and counted in [`ServerStats::shed`].
//! - **Graceful drain**: the `drain` command stops admissions, lets
//!   in-flight slices finish, persists every resident session through the
//!   store (sealing the manifest), and shuts the workers down — the
//!   [`DrainReport`] accounts for every entry. A (fault-injected or real)
//!   kill *during* drain is recoverable: the store is manifest-consistent
//!   after every individual persist, so a restart resumes bit-identically.
//! - **Protocol faults**: connection handlers run the fault-injected
//!   [`FrameReader`]/[`FrameWriter`]; hostile bytes produce typed errors and
//!   never touch admitted sessions.
//!
//! Commands execute atomically under one state lock; slices (the expensive
//! part) run outside it.
//!
//! [`Session`]: crate::session::Session

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::checkpoint::fnv1a64;
use crate::fault::{Fault, FaultPlan, FaultSite};
use crate::protocol::{
    parse_command, Command, FrameReader, FrameWriter, ProtocolError, Response, ServerStats,
    StatusInfo, SubmitSpec, WireError, WireState, MAX_FRAME_LEN,
};
use crate::service::{ClassQueues, JobClass};
use crate::session::SessionReport;
use crate::slice::{self, Parked, Slice, SliceExecutor, SliceOutcome};
use crate::store::SessionStore;
use crate::CoreError;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker thread count; `None` uses available parallelism.
    pub workers: Option<usize>,
    /// Simulated seconds per scheduling slice (see
    /// [`crate::service::ServiceOptions::slice_s`]).
    pub slice_s: f64,
    /// Cooperative per-slice wall-clock watchdog; `None` disarms it.
    pub slice_timeout: Option<Duration>,
    /// Bounded per-class admission: at most this many **resident**
    /// (admitted, unresolved — queued, running or paused) sessions per
    /// class. The front door always has a bound — unbounded accept queues
    /// are how servers die under load. Submits beyond it are shed typed.
    pub class_capacity: usize,
    /// Starvation bound for the class scheduler (see
    /// [`crate::service::ServiceOptions::aging_passes`]).
    pub aging_passes: u64,
    /// Maximum wire frame length for connections handled by this server.
    pub max_frame_len: usize,
    /// Deterministic fault plan: slice boundaries ([`FaultSite::SliceBoundary`]),
    /// checkpoint encode/decode ([`FaultSite::CheckpointEncode`] /
    /// [`FaultSite::CheckpointDecode`]) and the wire sites
    /// ([`FaultSite::WireRead`] / [`FaultSite::WireWrite`]); arm store sites
    /// on the store itself.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: None,
            slice_s: 0.05,
            slice_timeout: None,
            class_capacity: 64,
            aging_passes: 8,
            max_frame_len: MAX_FRAME_LEN,
            fault_plan: None,
        }
    }
}

impl ServerOptions {
    fn validate(&self) -> Result<(), CoreError> {
        slice::validate_options("server", self.slice_s, self.workers)?;
        if self.class_capacity == 0 {
            return Err(CoreError::InvalidConfiguration(
                "server class capacity must admit at least one session".into(),
            ));
        }
        if self.max_frame_len < 64 {
            return Err(CoreError::InvalidConfiguration(format!(
                "server frame limit of {} bytes cannot fit the grammar (min 64)",
                self.max_frame_len
            )));
        }
        Ok(())
    }
}

/// What a completed drain accounted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Resident sessions whose latest frame is durable in the store (persisted
    /// by the drain, or already manifest-consistent).
    pub checkpointed: u64,
    /// Admitted-but-never-started sessions: nothing to checkpoint, they
    /// restart fresh when resubmitted after the restart.
    pub not_started: u64,
    /// Wall-clock drain duration.
    pub duration: Duration,
}

/// Entry lifecycle. The entry map is the source of truth; queue tokens are
/// scheduling hints (a token whose entry is no longer `Queued` is dropped at
/// pop, which is how pause/cancel take effect without queue surgery).
#[derive(Debug, Clone, PartialEq)]
enum EntryState {
    Queued,
    Running,
    Paused,
    Done,
    Failed(String),
    Cancelled,
}

struct Entry {
    class: JobClass,
    deadline_s: Option<f64>,
    state: EntryState,
    /// `None` while running and once resolved.
    parked: Option<Parked>,
    billed: Duration,
    queue_latency: Duration,
    slices: u64,
    time_s: f64,
    steps: u64,
    final_state_fnv: Option<u64>,
    recovered: bool,
    pause_requested: bool,
    cancel_requested: bool,
}

impl Entry {
    fn wire_state(&self) -> WireState {
        match self.state {
            EntryState::Queued => WireState::Queued,
            EntryState::Running => WireState::Running,
            EntryState::Paused => WireState::Paused,
            EntryState::Done => WireState::Done,
            EntryState::Failed(_) => WireState::Failed,
            EntryState::Cancelled => WireState::Cancelled,
        }
    }
}

/// A run-queue token: the entry id plus its push timestamp (the unit of the
/// queue-latency ledger).
struct QueueItem {
    id: String,
    enqueued_at: Instant,
}

struct ServerState {
    entries: BTreeMap<String, Entry>,
    queue: ClassQueues<QueueItem>,
    /// Per-class resident (admitted, unresolved) session counts — the
    /// admission-control measure. Queue tokens can be stale; this cannot.
    resident: [u64; JobClass::COUNT],
    /// Slices currently advancing on workers.
    running: usize,
    draining: bool,
    drained: Option<DrainReport>,
    /// Workers exit; accept loops stop.
    shutdown: bool,
    /// A fault-injected service kill: like shutdown, but abrupt — in-flight
    /// work is discarded, drain aborts.
    killed: bool,
    offered: u64,
    admitted: u64,
    resubmitted: u64,
    shed: u64,
    done: u64,
    failed: u64,
    cancelled: u64,
    queue_latency_ns: [u64; JobClass::COUNT],
}

struct ServerShared {
    store: SessionStore,
    options: ServerOptions,
    state: Mutex<ServerState>,
    /// Wakes workers (new queue tokens, shutdown).
    work: Condvar,
    /// Wakes the drain waiter (a running slice retired).
    idle: Condvar,
}

/// The front-door server. Cheap to clone (connection handlers share one
/// state); see the [module docs](self) for the architecture.
#[derive(Clone)]
pub struct Server {
    shared: Arc<ServerShared>,
    /// Worker handles, joined by [`Server::join`].
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Starts a server over `store`: re-adopts every session the store's
    /// manifest records (as paused, resumable entries) and spawns the worker
    /// pool.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfiguration`] for invalid options.
    pub fn start(store: SessionStore, options: ServerOptions) -> Result<Server, CoreError> {
        options.validate()?;
        let mut entries = BTreeMap::new();
        let mut residents = [0u64; JobClass::COUNT];
        for id in store.active_ids() {
            residents[JobClass::Batch.index()] += 1;
            // Store-backed, not yet materialised: the frame loads lazily on
            // the first slice after a resume/resubmit. Class and deadline are
            // not persisted — the resubmission (or a plain `resume`, which
            // keeps the batch default) supplies them.
            entries.insert(
                id,
                Entry {
                    class: JobClass::Batch,
                    deadline_s: None,
                    state: EntryState::Paused,
                    parked: Some(Parked::Stored),
                    billed: Duration::ZERO,
                    queue_latency: Duration::ZERO,
                    slices: 0,
                    time_s: 0.0,
                    steps: 0,
                    final_state_fnv: None,
                    recovered: true,
                    pause_requested: false,
                    cancel_requested: false,
                },
            );
        }
        let default_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let worker_count = options.workers.unwrap_or(default_workers).max(1);
        let aging = options.aging_passes;
        let shared = Arc::new(ServerShared {
            store,
            options,
            state: Mutex::new(ServerState {
                entries,
                queue: ClassQueues::new(aging),
                resident: residents,
                running: 0,
                draining: false,
                drained: None,
                shutdown: false,
                killed: false,
                offered: 0,
                admitted: 0,
                resubmitted: 0,
                shed: 0,
                done: 0,
                failed: 0,
                cancelled: 0,
                queue_latency_ns: [0; JobClass::COUNT],
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server { shared, workers: Arc::new(Mutex::new(workers)) })
    }

    /// The store directory this server persists into.
    pub fn store_dir(&self) -> std::path::PathBuf {
        self.shared.store.dir().to_path_buf()
    }

    /// Whether the server has stopped (drained, or fault-killed).
    pub fn is_shutdown(&self) -> bool {
        let state = lock(&self.shared);
        state.shutdown || state.killed
    }

    /// Joins the worker pool (call after a drain or kill).
    pub fn join(&self) {
        let handles: Vec<_> =
            self.workers.lock().unwrap_or_else(PoisonError::into_inner).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Executes one command against the server state. This is the in-process
    /// face of the protocol — every transport funnels here, and every
    /// command is atomic under the state lock. Total: never panics, every
    /// failure is a typed [`Response::Error`].
    pub fn execute(&self, command: Command) -> Response {
        match command {
            Command::Ping => Response::Pong,
            Command::Submit(spec) => self.submit(spec),
            Command::Pause { id } => self.pause(&id),
            Command::Resume { id } => self.resume(&id),
            Command::Cancel { id } => self.cancel(&id),
            Command::Status { id } => self.status(&id),
            Command::Bill { id } => self.bill(&id),
            Command::Stats => Response::Stats(self.stats()),
            Command::Drain => self.drain(),
        }
    }

    /// Idempotent admission: a known id is reported (and, when it is a
    /// store-recovered entry, re-admitted from its frame) without a second
    /// admission or a second billing; a fresh id passes admission control.
    fn submit(&self, spec: SubmitSpec) -> Response {
        let mut state = lock(&self.shared);
        state.offered += 1;
        if let Some(entry) = state.entries.get_mut(&spec.id) {
            // The idempotency contract: this path never creates a session,
            // so a client retrying a submit whose reply was dropped — or
            // resubmitting its batch after a server restart — is safe.
            if entry.state == EntryState::Paused && entry.recovered && entry.slices == 0 {
                // Store-recovered and never run in this lifetime: adopt the
                // resubmitted class/deadline and re-enqueue from the frame.
                let previous = entry.class;
                entry.class = spec.class;
                entry.deadline_s = spec.deadline_s;
                entry.state = EntryState::Queued;
                let (class, deadline_s, id) = (entry.class, entry.deadline_s, spec.id.clone());
                state.resident[previous.index()] -= 1;
                state.resident[class.index()] += 1;
                state.resubmitted += 1;
                state.queue.push(class, deadline_s, QueueItem { id, enqueued_at: Instant::now() });
                self.shared.work.notify_one();
                return Response::Resubmitted { id: spec.id, state: WireState::Queued };
            }
            let wire = entry.wire_state();
            state.resubmitted += 1;
            return Response::Resubmitted { id: spec.id, state: wire };
        }
        if state.draining {
            return Response::Error(WireError::Draining);
        }
        let class = spec.class;
        let depth = state.resident[class.index()];
        let capacity = self.shared.options.class_capacity as u64;
        if depth >= capacity {
            state.shed += 1;
            return Response::Error(WireError::Overloaded { class, depth, capacity });
        }
        state.admitted += 1;
        state.resident[class.index()] += 1;
        let simulation = Box::new(spec.simulation());
        state.entries.insert(
            spec.id.clone(),
            Entry {
                class,
                deadline_s: spec.deadline_s,
                state: EntryState::Queued,
                parked: Some(Parked::Fresh(simulation)),
                billed: Duration::ZERO,
                queue_latency: Duration::ZERO,
                slices: 0,
                time_s: 0.0,
                steps: 0,
                final_state_fnv: None,
                recovered: false,
                pause_requested: false,
                cancel_requested: false,
            },
        );
        state.queue.push(
            class,
            spec.deadline_s,
            QueueItem { id: spec.id.clone(), enqueued_at: Instant::now() },
        );
        self.shared.work.notify_one();
        Response::Submitted { id: spec.id, class, depth: depth + 1 }
    }

    fn pause(&self, id: &str) -> Response {
        let mut state = lock(&self.shared);
        let Some(entry) = state.entries.get_mut(id) else {
            return Response::Error(WireError::UnknownSession { id: id.into() });
        };
        match entry.state {
            EntryState::Queued => {
                // The queue token goes stale; the parked session stays put
                // (and stays resident — paused work still holds its seat).
                entry.state = EntryState::Paused;
                Response::Paused { id: id.into() }
            }
            EntryState::Running => {
                // Takes effect at the slice boundary — the session is parked
                // as checkpoint bytes instead of being requeued.
                entry.pause_requested = true;
                Response::Paused { id: id.into() }
            }
            EntryState::Paused => Response::Paused { id: id.into() },
            _ => Response::Error(WireError::InvalidState {
                id: id.into(),
                state: entry.wire_state(),
            }),
        }
    }

    fn resume(&self, id: &str) -> Response {
        let mut state = lock(&self.shared);
        if state.draining {
            return Response::Error(WireError::Draining);
        }
        let Some(entry) = state.entries.get_mut(id) else {
            return Response::Error(WireError::UnknownSession { id: id.into() });
        };
        match entry.state {
            EntryState::Paused => {
                entry.state = EntryState::Queued;
                let (class, deadline_s) = (entry.class, entry.deadline_s);
                state.queue.push(
                    class,
                    deadline_s,
                    QueueItem { id: id.into(), enqueued_at: Instant::now() },
                );
                self.shared.work.notify_one();
                Response::Resumed { id: id.into() }
            }
            EntryState::Running => {
                // Cancels a pending pause; idempotent otherwise.
                entry.pause_requested = false;
                Response::Resumed { id: id.into() }
            }
            EntryState::Queued => Response::Resumed { id: id.into() },
            _ => Response::Error(WireError::InvalidState {
                id: id.into(),
                state: entry.wire_state(),
            }),
        }
    }

    fn cancel(&self, id: &str) -> Response {
        let mut state = lock(&self.shared);
        let Some(entry) = state.entries.get_mut(id) else {
            return Response::Error(WireError::UnknownSession { id: id.into() });
        };
        match entry.state {
            EntryState::Queued | EntryState::Paused => {
                entry.state = EntryState::Cancelled;
                entry.parked = None;
                let class = entry.class;
                state.cancelled += 1;
                state.resident[class.index()] -= 1;
                // Best-effort: a failed removal leaves a frame a restart
                // would re-adopt; the cancelled state still answers status
                // in this lifetime.
                let _ = self.shared.store.is_active(id) && self.shared.store.remove(id).is_ok();
                Response::Cancelled { id: id.into() }
            }
            EntryState::Running => {
                entry.cancel_requested = true;
                Response::Cancelled { id: id.into() }
            }
            EntryState::Cancelled => Response::Cancelled { id: id.into() },
            _ => Response::Error(WireError::InvalidState {
                id: id.into(),
                state: entry.wire_state(),
            }),
        }
    }

    fn status(&self, id: &str) -> Response {
        let state = lock(&self.shared);
        let Some(entry) = state.entries.get(id) else {
            return Response::Error(WireError::UnknownSession { id: id.into() });
        };
        Response::Status(StatusInfo {
            id: id.into(),
            class: entry.class,
            state: entry.wire_state(),
            time_s: entry.time_s,
            steps: entry.steps,
            billed_ns: entry.billed.as_nanos(),
            recovered: entry.recovered,
            final_state_fnv: entry.final_state_fnv,
        })
    }

    fn bill(&self, id: &str) -> Response {
        let state = lock(&self.shared);
        let Some(entry) = state.entries.get(id) else {
            return Response::Error(WireError::UnknownSession { id: id.into() });
        };
        Response::Billed { id: id.into(), billed_ns: entry.billed.as_nanos() }
    }

    /// A point-in-time snapshot of the aggregate counters.
    pub fn stats(&self) -> ServerStats {
        let state = lock(&self.shared);
        let mut depths = [0u64; JobClass::COUNT];
        for class in JobClass::ALL {
            depths[class.index()] = state.resident[class.index()];
        }
        ServerStats {
            draining: state.draining,
            offered: state.offered,
            admitted: state.admitted,
            resubmitted: state.resubmitted,
            shed: state.shed,
            done: state.done,
            failed: state.failed,
            cancelled: state.cancelled,
            depths,
            queue_latency_ns: state.queue_latency_ns,
        }
    }

    /// Graceful drain: stop admissions and scheduling, wait out in-flight
    /// slices, persist every resident session (sealing the store manifest
    /// with each write), then shut the worker pool down. Idempotent — a
    /// second `drain` returns the same report.
    fn drain(&self) -> Response {
        let started = Instant::now();
        let mut state = lock(&self.shared);
        if let Some(report) = state.drained {
            return drained_response(report);
        }
        if state.killed {
            return Response::Error(WireError::Failed("server was killed".into()));
        }
        state.draining = true;
        // Workers stop popping once draining; wait for in-flight slices.
        while state.running > 0 && !state.killed {
            state = self.shared.idle.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        if state.killed {
            return Response::Error(WireError::Failed("server was killed during drain".into()));
        }
        let plan = self.shared.options.fault_plan.as_deref();
        let mut checkpointed = 0u64;
        let mut not_started = 0u64;
        let ids: Vec<String> = state.entries.keys().cloned().collect();
        for id in ids {
            let entry = state.entries.get_mut(&id).expect("id just listed");
            if !matches!(entry.state, EntryState::Queued | EntryState::Paused) {
                continue;
            }
            // The kill-during-drain torture: a crash between two persists
            // leaves a manifest-consistent store either way.
            if let Some(Fault::KillService) =
                plan.and_then(|p| p.decide(FaultSite::SliceBoundary, 0))
            {
                state.killed = true;
                state.shutdown = true;
                self.shared.work.notify_all();
                self.shared.idle.notify_all();
                return Response::Error(WireError::Failed("server was killed during drain".into()));
            }
            match entry.parked.take() {
                Some(Parked::Fresh(simulation)) => {
                    // Never ran: no frame to persist; it restarts fresh when
                    // resubmitted after the restart.
                    not_started += 1;
                    entry.parked = Some(Parked::Fresh(simulation));
                    entry.state = EntryState::Paused;
                }
                Some(Parked::Live(session)) => match session.checkpoint() {
                    Ok(bytes) => {
                        let frame = Arc::new(bytes);
                        if self.shared.store.put(&id, &frame).is_ok() {
                            checkpointed += 1;
                        }
                        entry.parked = Some(Parked::Frozen(frame));
                        entry.state = EntryState::Paused;
                    }
                    Err(err) => {
                        entry.state = EntryState::Failed(format!("checkpoint failed: {err}"));
                        state.failed += 1;
                    }
                },
                Some(Parked::Frozen(frame)) => {
                    // Re-persist: heals any earlier degraded (failed) write.
                    if self.shared.store.is_active(&id)
                        || self.shared.store.put(&id, &frame).is_ok()
                    {
                        checkpointed += 1;
                    }
                    entry.parked = Some(Parked::Frozen(frame));
                    entry.state = EntryState::Paused;
                }
                stored @ (Some(Parked::Stored) | None) => {
                    // Store-backed (recovered, never materialised): already
                    // durable and manifest-consistent.
                    if self.shared.store.is_active(&id) {
                        checkpointed += 1;
                    }
                    entry.parked = stored;
                    entry.state = EntryState::Paused;
                }
            }
        }
        let report = DrainReport { checkpointed, not_started, duration: started.elapsed() };
        state.drained = Some(report);
        state.shutdown = true;
        self.shared.work.notify_all();
        drained_response(report)
    }

    /// Serves one connection: frames in, typed responses out, faults
    /// injected per the server's plan. Returns when the peer closes cleanly,
    /// the server shuts down, or the connection dies (typed).
    ///
    /// # Errors
    ///
    /// The [`ProtocolError`] that ended the connection, if it did not end
    /// cleanly. Malformed *commands* are not connection errors — they are
    /// answered with `err protocol …` and the connection continues; only
    /// transport-level failures (disconnect, truncation, a frame past the
    /// length bound) close it.
    pub fn handle_connection<R: Read, W: Write>(
        &self,
        read: R,
        write: W,
    ) -> Result<(), ProtocolError> {
        let plan = self.shared.options.fault_plan.clone();
        let mut reader = FrameReader::new(read, self.shared.options.max_frame_len, plan.clone());
        let mut writer = FrameWriter::new(write, plan);
        loop {
            let frame = match reader.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(()),
                Err(err @ (ProtocolError::Disconnected | ProtocolError::Truncated)) => {
                    return Err(err)
                }
                Err(err) => {
                    // Framing is unrecoverable (oversized frame, bad UTF-8,
                    // transport error): answer typed, then close.
                    let reply = Response::Error(WireError::Protocol(err.to_string()));
                    let _ = writer.write_frame(&reply.to_line());
                    return Err(err);
                }
            };
            if frame.trim().is_empty() {
                continue;
            }
            let response = match parse_command(&frame) {
                Ok(command) => self.execute(command),
                Err(err) => Response::Error(WireError::Protocol(err.to_string())),
            };
            let drained = matches!(response, Response::Drained { .. });
            writer.write_frame(&response.to_line())?;
            if drained || self.is_shutdown() {
                return Ok(());
            }
        }
    }

    /// Serves stdin/stdout until the input closes or the server drains.
    ///
    /// # Errors
    ///
    /// The [`ProtocolError`] that ended the stream, as in
    /// [`Server::handle_connection`].
    pub fn serve_stdio(&self) -> Result<(), ProtocolError> {
        self.handle_connection(std::io::stdin().lock(), std::io::stdout().lock())
    }

    /// Binds `path` and serves unix-socket connections (one handler thread
    /// each) until the server shuts down (drain or kill). A stale socket
    /// file at `path` is replaced.
    ///
    /// # Errors
    ///
    /// The bind/accept error, if the listener itself fails.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &std::path::Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        while !self.is_shutdown() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let server = self.clone();
                    std::thread::spawn(move || {
                        let Ok(read_half) = stream.try_clone() else { return };
                        let _ = server.handle_connection(read_half, stream);
                    });
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => {
                    let _ = std::fs::remove_file(path);
                    return Err(err);
                }
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

fn drained_response(report: DrainReport) -> Response {
    Response::Drained {
        checkpointed: report.checkpointed,
        not_started: report.not_started,
        duration_ms: report.duration.as_millis() as u64,
    }
}

impl ServerShared {
    fn executor(&self) -> SliceExecutor<'_> {
        SliceExecutor {
            slice_s: self.options.slice_s,
            slice_timeout: self.options.slice_timeout,
            fault_plan: self.options.fault_plan.as_deref(),
            store: Some(&self.store),
        }
    }
}

fn lock(shared: &ServerShared) -> MutexGuard<'_, ServerState> {
    // Same poison-recovery argument as the batch scheduler: slices panic
    // outside the lock, critical sections stay consistent.
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker: pop a token, validate it against the entry map, run one
/// slice through the executor outside the lock, commit. Stale tokens (their
/// entry paused/cancelled since the push) are dropped here — that is the
/// whole pause/cancel mechanism.
fn worker_loop(shared: &ServerShared) {
    loop {
        let (id, parked, carries_billing) = {
            let mut state = lock(shared);
            loop {
                if state.shutdown || state.killed {
                    return;
                }
                if !state.draining {
                    if let Some((class, item)) = state.queue.pop() {
                        let Some(entry) = state.entries.get_mut(&item.id) else { continue };
                        if entry.state != EntryState::Queued {
                            continue; // stale token
                        }
                        let waited = item.enqueued_at.elapsed();
                        entry.queue_latency += waited;
                        entry.state = EntryState::Running;
                        let carries = entry.recovered && entry.slices == 0;
                        let parked = entry.parked.take().unwrap_or(Parked::Stored);
                        state.queue_latency_ns[class.index()] +=
                            u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
                        state.running += 1;
                        break (item.id, parked, carries);
                    }
                }
                state = shared.work.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let slice = shared.executor().run_slice(&id, parked, carries_billing);
        commit_slice(shared, &id, slice);
    }
}

/// Books a slice (`None`: the fault plan killed the server).
fn commit_slice(shared: &ServerShared, id: &str, slice: Option<Slice>) {
    let mut state = lock(shared);
    state.running -= 1;
    match slice {
        Some(slice) => book_slice(shared, &mut state, id, slice),
        None => {
            state.killed = true;
            state.shutdown = true;
            shared.work.notify_all();
        }
    }
    if state.draining && state.running == 0 {
        shared.idle.notify_all();
    }
}

/// Books a slice into its entry and moves the entry on: requeue, pause
/// (requested or drain-parked), cancel, finish, or fail.
fn book_slice(shared: &ServerShared, state: &mut ServerState, id: &str, slice: Slice) {
    let draining = state.draining;
    let Some(entry) = state.entries.get_mut(id) else { return };
    entry.slices += 1;
    entry.billed += slice.billed;
    // A slice that failed before the engine ran reports zero progress.
    entry.time_s = entry.time_s.max(slice.time_s);
    entry.steps = entry.steps.max(slice.steps);
    let cancel = std::mem::take(&mut entry.cancel_requested);
    let pause = std::mem::take(&mut entry.pause_requested) || draining;
    entry.state = match slice.outcome {
        SliceOutcome::Finished(report) => {
            entry.final_state_fnv = Some(final_state_fnv(&report));
            EntryState::Done
        }
        SliceOutcome::Panicked(payload) => {
            EntryState::Failed(format!("session panicked and was quarantined: {payload}"))
        }
        SliceOutcome::Failed(err) => EntryState::Failed(err.to_string()),
        SliceOutcome::Preempted { .. } if cancel => EntryState::Cancelled,
        // Frozen under pause/drain: the frame is already durable
        // (persist-on-preempt), so a following drain or kill finds it
        // manifest-consistent.
        SliceOutcome::Preempted { frame, .. } if pause => {
            entry.parked = Some(Parked::Frozen(frame));
            EntryState::Paused
        }
        SliceOutcome::Preempted { session, .. } => {
            entry.parked = Some(Parked::Live(session));
            EntryState::Queued
        }
    };
    let (class, deadline_s) = (entry.class, entry.deadline_s);
    match entry.state {
        EntryState::Queued => {
            let item = QueueItem { id: id.into(), enqueued_at: Instant::now() };
            state.queue.push(class, deadline_s, item);
            shared.work.notify_one();
            return;
        }
        EntryState::Running | EntryState::Paused => return,
        EntryState::Done => state.done += 1,
        EntryState::Failed(_) => state.failed += 1,
        EntryState::Cancelled => {
            state.cancelled += 1;
            let _ = shared.store.is_active(id) && shared.store.remove(id).is_ok();
        }
    }
    // Resolved: the entry gives up its class seat.
    state.resident[class.index()] -= 1;
}

/// The wire-level bit-identity witness: FNV-1a over the final state vector's
/// little-endian bytes. Two runs agree on this iff they agree on every bit
/// of the final state.
fn final_state_fnv(report: &SessionReport) -> u64 {
    let mut bytes = Vec::with_capacity(report.final_state.len() * 8);
    for value in report.final_state.as_slice() {
        bytes.extend_from_slice(&value.to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire `status` carries only the `failed` state; the entry keeps
    /// why, and a quarantine says so together with the panic payload.
    #[test]
    fn quarantined_entry_records_the_panic_detail() {
        let dir =
            std::env::temp_dir().join(format!("harvsim-server-quarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = Arc::new(FaultPlan::new(7).with_site(FaultSite::SliceBoundary, 1, 1));
        let options = ServerOptions {
            workers: Some(1),
            slice_s: 0.002,
            fault_plan: Some(plan),
            ..ServerOptions::default()
        };
        let server = Server::start(SessionStore::open(&dir).unwrap(), options).unwrap();
        let mut spec = SubmitSpec::new("victim");
        spec.duration_s = Some(0.01);
        assert!(matches!(server.execute(Command::Submit(spec)), Response::Submitted { .. }));
        let deadline = Instant::now() + Duration::from_secs(60);
        let detail = loop {
            let state = lock(&server.shared).entries.get("victim").map(|e| e.state.clone());
            if let Some(EntryState::Failed(detail)) = state {
                break detail;
            }
            assert!(Instant::now() < deadline, "victim never failed: {state:?}");
            std::thread::sleep(Duration::from_millis(2));
        };
        assert!(detail.starts_with("session panicked and was quarantined: "), "{detail}");
        assert!(detail.contains(FaultPlan::PANIC_MESSAGE), "{detail}");
        server.execute(Command::Drain);
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
