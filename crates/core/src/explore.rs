//! Design-space exploration as a first-class workload.
//!
//! The paper's argument is that a fast mixed-signal engine makes *design
//! studies* of harvester-powered systems practical. This module is that
//! consumer: a declarative [`GridSpec`] (a [`SweepGrid`] cross product plus
//! deterministic subsampling/refinement) driven by an [`Explorer`] that
//!
//! * runs each **shared analogue prefix once**: points that differ only in
//!   their controller settings (the `wdt` axis) march a bit-identical
//!   analogue trajectory until the first controller wake-up, so they form a
//!   *fork group*, run by one worker as a prefix tree — each member is
//!   forked ([`crate::Session::fork`]) off its predecessor just before the
//!   predecessor's first digital event. The fork is exact, so every row is
//!   bit-identical to a standalone cold run of its point, for any worker
//!   count; a grid without a controller axis has groups of one, each run
//!   cold;
//! * executes the groups on a **work-stealing scheduler** — per-worker
//!   deques of groups; an idle worker steals whole groups totalling about
//!   half of a victim's remaining points;
//! * attributes per-point failures as [`CoreError::Scenario`] rows without
//!   aborting the grid;
//! * streams every finished point into a durable append-only **result
//!   store** — one `HVCK` frame per point (payload kind 3) carrying the grid
//!   digest, so [`Explorer::resume`] skips already-stored points, rejects a
//!   store written for a different grid, and resynchronises past corrupted
//!   bytes by scanning for the next verifiable frame;
//! * distils the rows into per-objective summaries and an exact **Pareto
//!   front** over (maximise harvested energy, minimise store-voltage dip,
//!   minimise engine steps). The step count stands in for run cost in the
//!   front because it is deterministic and machine-independent; the measured
//!   engine wall-time rides along in every row as the informational
//!   counterpart.
//!
//! `repro explore` wraps this into a CLI and emits `BENCH_explore.json`;
//! DESIGN.md §12 documents the model and the file format.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use crate::checkpoint::{
    self, fnv1a64, open_frame_with_kind, seal_frame_with_kind, ByteReader, ByteWriter,
    CheckpointError, CHECKPOINT_MAGIC, CHECKSUM_LEN, HEADER_LEN, KIND_EXPLORE_RECORD,
};
use crate::mixed::SimulationEngine;
use crate::probe::{EnvelopeProbe, PowerProbe};
use crate::scenario::{ScenarioConfig, SweepGrid, SweepParameter};
use crate::session::{analogue_key, ProbeId, Session, SessionReport, Simulation};
use crate::store::StoreError;
use crate::CoreError;

/// A declarative description of a design-space grid: a base scenario, an
/// ordered axis list (cross product, last axis innermost/fastest), and a
/// deterministic point subsample.
#[derive(Debug, Clone)]
pub struct GridSpec {
    base: ScenarioConfig,
    axes: Vec<(SweepParameter, Vec<f64>)>,
    subsample: f64,
    seed: u64,
}

impl GridSpec {
    /// Starts a grid over `base` with no axes (a single point).
    pub fn new(base: ScenarioConfig) -> Self {
        GridSpec { base, axes: Vec::new(), subsample: 1.0, seed: 0 }
    }

    /// Appends an axis; the axis added last is the innermost one (fastest
    /// varying).
    pub fn axis(mut self, param: SweepParameter, values: &[f64]) -> Self {
        self.axes.push((param, values.to_vec()));
        self
    }

    /// Keeps a deterministic pseudo-random fraction of the grid (`0 < keep ≤
    /// 1`, seeded): point `i` is kept iff `splitmix64(seed, i)` lands below
    /// `keep`. Dropped points are counted as `skipped` in the report, so the
    /// accounting `offered == completed + failed + skipped` still balances.
    pub fn subsample(mut self, keep: f64, seed: u64) -> Self {
        self.subsample = keep;
        self.seed = seed;
        self
    }

    /// Refines the axis swept by `param` by inserting the midpoint between
    /// every pair of adjacent values (`n` values become `2n − 1`). An axis
    /// with fewer than two values is left unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] if no axis sweeps `param`.
    pub fn refine(mut self, param: SweepParameter) -> Result<Self, CoreError> {
        let axis = self.axes.iter_mut().find(|(p, _)| *p == param).ok_or_else(|| {
            CoreError::InvalidConfiguration(format!(
                "cannot refine axis `{}`: the grid does not sweep it",
                param.label()
            ))
        })?;
        if axis.1.len() >= 2 {
            let mut refined = Vec::with_capacity(axis.1.len() * 2 - 1);
            for pair in axis.1.windows(2) {
                refined.push(pair[0]);
                refined.push(0.5 * (pair[0] + pair[1]));
            }
            refined.push(*axis.1.last().expect("len >= 2"));
            axis.1 = refined;
        }
        Ok(self)
    }

    /// The base configuration every point derives from.
    pub fn base(&self) -> &ScenarioConfig {
        &self.base
    }

    /// The axes in expansion order (last = innermost).
    pub fn axes(&self) -> &[(SweepParameter, Vec<f64>)] {
        &self.axes
    }

    /// Number of points in the full cross product, before subsampling.
    pub fn offered(&self) -> usize {
        self.axes.iter().map(|(_, values)| values.len()).product()
    }

    /// The [`SweepGrid`] this spec expands through — the same builder
    /// `repro table2 --sweep` uses, so the `scenario+p1=v1+p2=v2` label path
    /// is shared verbatim.
    pub fn sweep_grid(&self) -> SweepGrid {
        let mut grid = SweepGrid::new(self.base.clone());
        for (param, values) in &self.axes {
            grid = grid.axis(*param, values);
        }
        grid
    }

    /// Grid identity digest, stamped into every result-store frame header:
    /// FNV-1a over the encoded base configuration, the axis list and the
    /// subsample settings. [`Explorer::resume`] refuses a store whose frames
    /// carry a different digest — resuming someone else's grid would silently
    /// mix incompatible points.
    pub fn digest(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.put_bytes(&checkpoint::encode_config(&self.base));
        w.put_usize(self.axes.len());
        for (param, values) in &self.axes {
            w.put_bytes(param.label().as_bytes());
            w.put_f64_slice(values);
        }
        w.put_f64(self.subsample);
        w.put_u64(self.seed);
        fnv1a64(&w.into_bytes())
    }

    /// Expands the kept points: the full cross product minus the subsampled
    /// ones, each carrying its full-grid index and per-axis values.
    fn plan(&self) -> Result<Vec<PointPlan>, CoreError> {
        if !(self.subsample > 0.0 && self.subsample <= 1.0) {
            return Err(CoreError::InvalidConfiguration(format!(
                "subsample keep fraction must be in (0, 1], got {}",
                self.subsample
            )));
        }
        let lens: Vec<usize> = self.axes.iter().map(|(_, values)| values.len()).collect();
        let configs = self.sweep_grid().expand();
        let mut plans = Vec::with_capacity(configs.len());
        for (index, config) in configs.into_iter().enumerate() {
            if self.subsample < 1.0 {
                // Keep iff the point's hash lands below the keep fraction
                // (53-bit uniform draw) — a pure function of (seed, index),
                // so the kept set is identical for any worker count.
                let draw =
                    (splitmix64(self.seed ^ index as u64) >> 11) as f64 / (1u64 << 53) as f64;
                if draw >= self.subsample {
                    continue;
                }
            }
            let mut values = Vec::with_capacity(self.axes.len());
            let mut rem = index;
            let mut coords = vec![0usize; self.axes.len()];
            for a in (0..self.axes.len()).rev() {
                coords[a] = rem % lens[a];
                rem /= lens[a];
            }
            for (a, (_, axis_values)) in self.axes.iter().enumerate() {
                values.push(axis_values[coords[a]]);
            }
            plans.push(PointPlan { index, config, values });
        }
        Ok(plans)
    }
}

/// SplitMix64 — the deterministic hash behind grid subsampling (same
/// generator family the fault-injection plans use).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One kept grid point, ready to execute.
#[derive(Debug, Clone)]
struct PointPlan {
    /// Position in the *full* cross product (row-major, last axis fastest) —
    /// the stable identity a result-store record is keyed by.
    index: usize,
    config: ScenarioConfig,
    /// One value per axis, in axis order.
    values: Vec<f64>,
}

/// Measured objectives of one completed point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointMetrics {
    /// Supercapacitor energy gained over the run, in joules (final minus
    /// initial stored energy — the *harvested energy* objective, maximised).
    pub energy_gain_j: f64,
    /// Store-voltage dip depth, in volts: first minus minimum envelope
    /// sample of the storage net (minimised).
    pub dip_v: f64,
    /// Engine wall-clock of the run, in seconds — for a forked point only
    /// the time after the fork, so the rows' sum is the work done.
    /// Informational: wall time is not deterministic, so the Pareto front
    /// uses `steps` as the cost axis.
    pub wall_s: f64,
    /// Accepted engine steps of the whole trajectory, equal to a cold run's
    /// — the deterministic, machine-independent run cost (minimised in the
    /// Pareto front). A forked point counts the prefix it shared.
    pub steps: usize,
    /// First storage-voltage envelope sample, in volts.
    pub v_first: f64,
    /// Final storage-voltage envelope sample, in volts.
    pub v_last: f64,
    /// RMS generator output power after the frequency step, in microwatts
    /// (from the streaming [`PowerProbe`]).
    pub rms_after_uw: f64,
    /// Final global state vector.
    pub final_state: Vec<f64>,
}

/// How a grid point ended.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The simulation ran to the end of its span.
    Completed(PointMetrics),
    /// The point failed; the string is the display form of the attributed
    /// [`CoreError::Scenario`] (label + underlying failure).
    Failed(String),
}

/// One grid point's result row — executed this run or recovered from the
/// result store.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Full-grid point index (see [`GridSpec`]).
    pub index: usize,
    /// The point's `scenario+p1=v1+p2=v2` label path.
    pub label: String,
    /// One swept value per axis, in axis order.
    pub values: Vec<f64>,
    /// Whether the point was forked from a shared prefix (false = it ran
    /// from t = 0).
    pub warm: bool,
    /// Whether this row was recovered from the result store instead of
    /// executed in this run.
    pub recovered: bool,
    /// The outcome.
    pub outcome: PointOutcome,
}

impl PointRecord {
    /// The metrics of a completed point, `None` for failures.
    pub fn metrics(&self) -> Option<&PointMetrics> {
        match &self.outcome {
            PointOutcome::Completed(metrics) => Some(metrics),
            PointOutcome::Failed(_) => None,
        }
    }

    /// The attributed error of a failed point, `None` for completions.
    pub fn error(&self) -> Option<&str> {
        match &self.outcome {
            PointOutcome::Completed(_) => None,
            PointOutcome::Failed(message) => Some(message),
        }
    }
}

/// Min/max/mean of one objective over the completed rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveSummary {
    /// Objective name (`energy_gain_j`, `dip_v`, `wall_s`, `steps`).
    pub objective: &'static str,
    /// Smallest value observed.
    pub min: f64,
    /// Largest value observed.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// The outcome of an exploration: every row, the scheduler/fork counters, the balanced point accounting and the exact Pareto front.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Label of the base configuration the grid derives from.
    pub base_label: String,
    /// Axis labels and values, in expansion order.
    pub axes: Vec<(String, Vec<f64>)>,
    /// Subsample keep fraction of the spec.
    pub subsample: f64,
    /// Subsample seed of the spec.
    pub seed: u64,
    /// Full cross-product size.
    pub offered: usize,
    /// Rows that completed (executed or recovered).
    pub completed: usize,
    /// Rows that failed (attributed, not grid-aborting).
    pub failed: usize,
    /// Points not run: subsampled out, or (report-only) not yet stored.
    /// Always `offered − completed − failed`, so the accounting balances.
    pub skipped: usize,
    /// Worker threads requested of the scheduler.
    pub workers: usize,
    /// Worker threads that executed at least one point this run.
    pub threads_used: usize,
    /// Fork groups migrated between workers by stealing.
    pub steals: usize,
    /// Points executed this run that were forked from a shared prefix.
    pub warm_hits: usize,
    /// Points executed this run from t = 0 (group heads, and successors of
    /// members that failed or woke too early to hand over — see DESIGN.md
    /// §12).
    pub cold_starts: usize,
    /// Engine steps actually marched this run: the rows' `steps` minus the
    /// prefixes forked points inherited. Equals the executed rows' step sum
    /// when nothing was forked.
    pub steps_executed: usize,
    /// Rows recovered from the result store instead of re-executed.
    pub resumed: usize,
    /// Corrupt result-store regions skipped while scanning (each region may
    /// have destroyed one or more records; the affected points re-ran).
    pub dropped_regions: usize,
    /// Every row, sorted by point index.
    pub rows: Vec<PointRecord>,
    /// Point indices of the exact Pareto front over (maximise
    /// `energy_gain_j`, minimise `dip_v`, minimise `steps`) among completed
    /// rows, ascending.
    pub pareto_front: Vec<usize>,
    /// Per-objective summaries over completed rows.
    pub summaries: Vec<ObjectiveSummary>,
}

/// How an [`Explorer`] invocation treats the result store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Run every kept point; truncate any existing store.
    Fresh,
    /// Recover intact stored rows, execute only the rest, append.
    Resume,
    /// Recover stored rows and report; execute nothing.
    ReportOnly,
}

/// Executes a [`GridSpec`] on a work-stealing worker pool, forking shared
/// prefixes, with an optional durable result store. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct Explorer {
    spec: GridSpec,
    workers: usize,
    store_path: Option<PathBuf>,
}

impl Explorer {
    /// Creates an explorer over `spec` with the default worker count:
    /// `max(2, available_parallelism)`. Unlike the Table II batch runner —
    /// which falls back to sequential on a single-core host to keep its
    /// wall-clock *measurements* honest — the explorer is a throughput
    /// workload: per-point wall-times are informational (the deterministic
    /// cost axis is the step count), so it always fans out.
    pub fn new(spec: GridSpec) -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2);
        Explorer { spec, workers, store_path: None }
    }

    /// Overrides the worker count (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Attaches a durable result store at `path`: every finished point is
    /// appended as its own sealed frame, so a killed run loses at most the
    /// frame being written.
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// The grid this explorer executes.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Runs the grid from scratch (truncating the result store, if any).
    ///
    /// # Errors
    ///
    /// Propagates spec validation and store I/O failures. Per-point
    /// simulation failures do **not** error the grid — they come back as
    /// attributed [`PointOutcome::Failed`] rows.
    pub fn run(&self) -> Result<ExploreReport, CoreError> {
        self.execute(Mode::Fresh)
    }

    /// Resumes a killed exploration: recovers every intact record from the
    /// result store (skipping corrupt regions), executes only the missing
    /// points — still forking the prefixes they share among themselves —
    /// and appends the new rows.
    ///
    /// A store whose frames carry a different grid digest is rejected with
    /// [`CheckpointError::DigestMismatch`]; a missing store file degrades to
    /// a fresh run.
    ///
    /// # Errors
    ///
    /// Requires a store path ([`Explorer::store`]); propagates store I/O and
    /// digest-mismatch failures.
    pub fn resume(&self) -> Result<ExploreReport, CoreError> {
        if self.store_path.is_none() {
            return Err(CoreError::InvalidConfiguration(
                "resume requires a result store path".into(),
            ));
        }
        self.execute(Mode::Resume)
    }

    /// Recomputes the report (summaries, Pareto front, accounting) from the
    /// result store without executing anything. Points not in the store are
    /// counted as `skipped`.
    ///
    /// # Errors
    ///
    /// Requires a store path; propagates store I/O and digest-mismatch
    /// failures.
    pub fn report_only(&self) -> Result<ExploreReport, CoreError> {
        if self.store_path.is_none() {
            return Err(CoreError::InvalidConfiguration(
                "report-only requires a result store path".into(),
            ));
        }
        self.execute(Mode::ReportOnly)
    }

    fn execute(&self, mode: Mode) -> Result<ExploreReport, CoreError> {
        let digest = self.spec.digest();
        let plans = self.spec.plan()?;
        let offered = self.spec.offered();

        // Recover intact rows from the store (resume / report-only).
        let mut recovered: Vec<PointRecord> = Vec::new();
        let mut dropped_regions = 0usize;
        if mode != Mode::Fresh {
            if let Some(path) = self.store_path.as_ref() {
                if path.exists() {
                    let bytes = std::fs::read(path).map_err(|err| io_error("read", path, err))?;
                    let (records, dropped) = scan_store_bytes(&bytes, digest)?;
                    recovered = records;
                    dropped_regions = dropped;
                }
            }
        }
        let planned: HashSet<usize> = plans.iter().map(|plan| plan.index).collect();
        recovered.retain(|record| planned.contains(&record.index));
        let recovered_indices: HashSet<usize> =
            recovered.iter().map(|record| record.index).collect();

        // Group the points still to run by everything but their controller
        // settings; recovered rows simply leave their group.
        let groups = if mode == Mode::ReportOnly {
            Vec::new()
        } else {
            build_groups(plans, &recovered_indices)
        };

        let mut store_file = match (&self.store_path, mode) {
            (Some(path), Mode::Fresh) => {
                Some(std::fs::File::create(path).map_err(|err| io_error("create", path, err))?)
            }
            (Some(path), Mode::Resume) => Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|err| io_error("append", path, err))?,
            ),
            _ => None,
        };

        // Work-stealing execution: groups are dealt round-robin onto
        // per-worker deques; owners pop LIFO at the back, thieves take whole
        // groups from the front totalling about half the victim's remaining
        // points. Completed records stream back over a channel and are
        // appended (and flushed) to the store one frame at a time, so a kill
        // at any instant loses at most the frame in flight.
        let worker_count = self.workers.min(groups.len()).max(1);
        let queues: Vec<Mutex<VecDeque<Group>>> =
            (0..worker_count).map(|_| Mutex::new(VecDeque::new())).collect();
        let has_work = !groups.is_empty();
        for (i, group) in groups.into_iter().enumerate() {
            queues[i % worker_count].lock().expect("queue lock").push_back(group);
        }
        let steals = AtomicUsize::new(0);
        let engaged = AtomicUsize::new(0);
        let mut executed: Vec<PointRecord> = Vec::new();
        let mut steps_executed = 0usize;
        if has_work {
            let (tx, rx) = mpsc::channel::<Executed>();
            std::thread::scope(|scope| -> Result<(), CoreError> {
                for id in 0..worker_count {
                    let tx = tx.clone();
                    let queues = &queues;
                    let steals = &steals;
                    let engaged = &engaged;
                    scope.spawn(move || worker_loop(id, queues, tx, steals, engaged));
                }
                drop(tx);
                for (record, steps) in rx {
                    if let Some(file) = store_file.as_mut() {
                        let path = self.store_path.as_ref().expect("store file implies path");
                        append_record(file, path, digest, &record)?;
                    }
                    executed.push(record);
                    steps_executed += steps;
                }
                Ok(())
            })?;
        }

        let warm_hits = executed.iter().filter(|record| record.warm).count();
        let cold_starts = executed.len() - warm_hits;
        let resumed = recovered.len();
        let mut rows = recovered;
        rows.extend(executed);
        rows.sort_by_key(|record| record.index);
        let completed = rows.iter().filter(|record| record.metrics().is_some()).count();
        let failed = rows.len() - completed;

        Ok(ExploreReport {
            base_label: self.spec.base.effective_label(),
            axes: self
                .spec
                .axes
                .iter()
                .map(|(param, values)| (param.label().to_string(), values.clone()))
                .collect(),
            subsample: self.spec.subsample,
            seed: self.spec.seed,
            offered,
            completed,
            failed,
            skipped: offered - completed - failed,
            workers: self.workers,
            threads_used: engaged.load(Ordering::Relaxed),
            steals: steals.load(Ordering::Relaxed),
            warm_hits,
            cold_starts,
            steps_executed,
            resumed,
            dropped_regions,
            pareto_front: pareto_front(&rows),
            summaries: summarise(&rows),
            rows,
        })
    }
}

/// A fork group: the kept, not-yet-stored points that differ only in their
/// controller settings, ordered by first digital event (then grid index).
/// They march one analogue trajectory until the earliest wake-up, so one
/// worker runs the group as a prefix tree — each member is forked from its
/// predecessor just before the predecessor's first event, which makes every
/// row bit-identical to a cold run of its own configuration.
struct Group {
    members: Vec<PointPlan>,
}

/// Groups the plans still to run by the digest of their analogue part. A
/// digest collision would only put strangers in one group: their fork is
/// refused (it compares the configurations in full) and the stranger runs
/// cold.
fn build_groups(plans: Vec<PointPlan>, recovered_indices: &HashSet<usize>) -> Vec<Group> {
    let mut slot_of: HashMap<u64, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for plan in plans.into_iter().filter(|plan| !recovered_indices.contains(&plan.index)) {
        let slot = *slot_of.entry(fnv1a64(&analogue_key(&plan.config))).or_insert_with(|| {
            groups.push(Group { members: Vec::new() });
            groups.len() - 1
        });
        groups[slot].members.push(plan);
    }
    for group in &mut groups {
        group.members.sort_by(|a, b| {
            first_event_s(&a.config)
                .total_cmp(&first_event_s(&b.config))
                .then(a.index.cmp(&b.index))
        });
    }
    groups
}

/// Time of a point's first digital event (its first watchdog wake-up),
/// capped at the span end.
fn first_event_s(config: &ScenarioConfig) -> f64 {
    config.controller.watchdog_period_s.min(config.duration_s)
}

/// Where a group member hands over to its successor: two maximal steps
/// before its own first event, so the fork's exactness condition
/// (`time + max_step` within both segment ends) holds wherever the paused
/// step lands. `None` when the engine cannot fork or the point wakes too
/// early to share a prefix worth forking.
fn fork_time_s(config: &ScenarioConfig) -> Option<f64> {
    let SimulationEngine::StateSpace(options) = config.engine else { return None };
    let at = first_event_s(config) - 2.0 * options.max_step;
    (at > 0.0).then_some(at)
}

/// An executed row plus the engine steps this run actually marched for it
/// (the row's own steps minus those inherited at a fork).
type Executed = (PointRecord, usize);

fn worker_loop(
    id: usize,
    queues: &[Mutex<VecDeque<Group>>],
    tx: mpsc::Sender<Executed>,
    steals: &AtomicUsize,
    engaged: &AtomicUsize,
) {
    let mut worked = false;
    loop {
        let own = queues[id].lock().expect("queue lock").pop_back();
        let Some(group) = own.or_else(|| steal(id, queues, steals)) else { break };
        if !worked {
            worked = true;
            engaged.fetch_add(1, Ordering::Relaxed);
        }
        if !execute_group(group, &tx) {
            return;
        }
    }
}

/// Steals work for worker `id`: scans the other queues and takes whole
/// groups from the victim's front totalling about half of its remaining
/// points (`⌈points/2⌉`). Whole groups, because splitting one would re-run
/// the shared prefix; "half the points" (not half the groups) because
/// groups can be unequal. Returns the first stolen group and queues the rest
/// locally.
fn steal(id: usize, queues: &[Mutex<VecDeque<Group>>], steals: &AtomicUsize) -> Option<Group> {
    for offset in 1..queues.len() {
        let victim = (id + offset) % queues.len();
        let mut stolen = {
            let mut queue = queues[victim].lock().expect("queue lock");
            let total: usize = queue.iter().map(|group| group.members.len()).sum();
            if total == 0 {
                continue;
            }
            let target = total.div_ceil(2);
            let mut taken = Vec::new();
            let mut got = 0usize;
            while got < target {
                let Some(group) = queue.pop_front() else { break };
                got += group.members.len();
                taken.push(group);
            }
            taken
        };
        if stolen.is_empty() {
            continue;
        }
        steals.fetch_add(stolen.len(), Ordering::Relaxed);
        let first = stolen.remove(0);
        if !stolen.is_empty() {
            let mut own = queues[id].lock().expect("queue lock");
            own.extend(stolen);
        }
        return Some(first);
    }
    None
}

/// A point's session, ready to run, with the probes the row is measured by
/// and what it inherited if it was forked.
struct PointRun {
    session: Session,
    envelope: ProbeId,
    power: ProbeId,
    forked: bool,
    /// Engine steps and engine time already on the session's books when it
    /// was handed to this point (zero for a cold start).
    inherited_steps: usize,
    inherited_time: Duration,
}

impl PointRun {
    /// Starts `plan` cold, at t = 0.
    fn cold(plan: &PointPlan) -> Result<PointRun, CoreError> {
        plan.config.validate()?;
        let mut session = Simulation::from_config(plan.config.clone()).start()?;
        let (envelope, power) = point_probes(&session, &plan.config);
        let envelope = session.add_probe(envelope);
        let power = session.add_probe(power);
        Ok(PointRun {
            session,
            envelope,
            power,
            forked: false,
            inherited_steps: 0,
            inherited_time: Duration::ZERO,
        })
    }

    /// Forks `plan` off this run's session (see [`Session::fork`]).
    fn fork(&self, plan: &PointPlan) -> Result<PointRun, CoreError> {
        let (envelope, power) = point_probes(&self.session, &plan.config);
        let (session, ids) =
            self.session.fork(plan.config.clone(), vec![Box::new(envelope), Box::new(power)])?;
        let report = session.report();
        Ok(PointRun {
            envelope: ids[0],
            power: ids[1],
            forked: true,
            inherited_steps: engine_steps(&report),
            inherited_time: report.engine_time(),
            session,
        })
    }
}

/// Fresh instances of the probes every point is measured by, in
/// registration order: the storage-voltage envelope and the generator power.
fn point_probes(session: &Session, config: &ScenarioConfig) -> (EnvelopeProbe, PowerProbe) {
    let harvester = session.harvester();
    (
        EnvelopeProbe::terminal(harvester.storage_voltage_net()),
        PowerProbe::new(
            harvester.generator_voltage_net(),
            harvester.generator_current_net(),
            config.frequency_step_time_s,
            config.duration_s,
        ),
    )
}

fn engine_steps(report: &SessionReport) -> usize {
    report.engine_stats.state_space.steps.max(report.engine_stats.baseline.steps)
}

/// Runs one fork group as a prefix tree and streams its rows to `tx`:
/// member k runs to its fork time, member k + 1 is forked off it, then
/// member k runs to the end — at most two live sessions per worker. A
/// member that cannot hand over (an early wake-up, a failure, a refused
/// fork) leaves its successor to start cold. Returns `false` once the
/// receiver is gone.
fn execute_group(group: Group, tx: &mpsc::Sender<Executed>) -> bool {
    let mut next: Option<PointRun> = None;
    for (k, plan) in group.members.iter().enumerate() {
        let successor = group.members.get(k + 1);
        let run = match next.take() {
            Some(run) => Ok(run),
            None => PointRun::cold(plan),
        };
        let outcome = run.and_then(|mut run| {
            if let (Some(successor), Some(at)) = (successor, fork_time_s(&plan.config)) {
                run.session.run_until(at)?;
                next = run.fork(successor).ok();
            }
            finish_point(plan, run)
        });
        let label = plan.config.effective_label();
        let (warm, outcome, steps) = match outcome {
            Ok((warm, metrics, steps)) => (warm, PointOutcome::Completed(metrics), steps),
            Err(err) => {
                (false, PointOutcome::Failed(err.for_scenario(label.clone()).to_string()), 0)
            }
        };
        let record = PointRecord {
            index: plan.index,
            label,
            values: plan.values.clone(),
            warm,
            recovered: false,
            outcome,
        };
        if tx.send((record, steps)).is_err() {
            return false;
        }
    }
    true
}

/// Runs a point to the end and measures it. Returns whether it was forked,
/// its metrics and the engine steps marched for it in this run.
fn finish_point(
    plan: &PointPlan,
    mut run: PointRun,
) -> Result<(bool, PointMetrics, usize), CoreError> {
    // Stored-energy baseline from the point's own initial state (no digital
    // event has acted on the harvester yet).
    let initial = run.session.harvester().initial_state(plan.config.initial_supercap_voltage)?;
    let initial_energy = run.session.harvester().stored_energy(&initial);
    run.session.run_to_end()?;
    let session = &run.session;
    let report = session.report();
    let env = session.probe::<EnvelopeProbe>(run.envelope).expect("envelope keeps its type");
    let rms_after_uw = session
        .probe::<PowerProbe>(run.power)
        .expect("power probe keeps its type")
        .report()
        .rms_after_uw;
    let steps = engine_steps(&report);
    let energy_gain_j = session.harvester().stored_energy(&report.final_state) - initial_energy;
    Ok((
        run.forked,
        PointMetrics {
            energy_gain_j,
            dip_v: (env.first() - env.min()).max(0.0),
            wall_s: report.engine_time().saturating_sub(run.inherited_time).as_secs_f64(),
            steps,
            v_first: env.first(),
            v_last: env.last(),
            rms_after_uw,
            final_state: report.final_state.as_slice().to_vec(),
        },
        steps - run.inherited_steps,
    ))
}

/// The exact Pareto front over completed rows: maximise `energy_gain_j`,
/// minimise `dip_v`, minimise `steps`. O(n²) pairwise dominance scan — exact
/// by construction, and n is a grid size, not a waveform length. Returns the
/// non-dominated rows' point indices, ascending.
fn pareto_front(rows: &[PointRecord]) -> Vec<usize> {
    let completed: Vec<(&PointRecord, &PointMetrics)> =
        rows.iter().filter_map(|row| row.metrics().map(|metrics| (row, metrics))).collect();
    let dominates = |a: &PointMetrics, b: &PointMetrics| {
        let no_worse =
            a.energy_gain_j >= b.energy_gain_j && a.dip_v <= b.dip_v && a.steps <= b.steps;
        let better = a.energy_gain_j > b.energy_gain_j || a.dip_v < b.dip_v || a.steps < b.steps;
        no_worse && better
    };
    let mut front: Vec<usize> = completed
        .iter()
        .filter(|(_, mine)| !completed.iter().any(|(_, other)| dominates(other, mine)))
        .map(|(row, _)| row.index)
        .collect();
    front.sort_unstable();
    front
}

type ObjectiveFn = fn(&PointMetrics) -> f64;

fn summarise(rows: &[PointRecord]) -> Vec<ObjectiveSummary> {
    let metrics: Vec<&PointMetrics> = rows.iter().filter_map(PointRecord::metrics).collect();
    let objectives: [(&'static str, ObjectiveFn); 4] = [
        ("energy_gain_j", |m| m.energy_gain_j),
        ("dip_v", |m| m.dip_v),
        ("wall_s", |m| m.wall_s),
        ("steps", |m| m.steps as f64),
    ];
    objectives
        .iter()
        .map(|(name, extract)| {
            let values: Vec<f64> = metrics.iter().map(|m| extract(m)).collect();
            let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
            for &value in &values {
                min = min.min(value);
                max = max.max(value);
                sum += value;
            }
            let mean = if values.is_empty() { 0.0 } else { sum / values.len() as f64 };
            let (min, max) = if values.is_empty() { (0.0, 0.0) } else { (min, max) };
            ObjectiveSummary { objective: name, min, max, mean }
        })
        .collect()
}

// --- Result store: append-only HVCK frames, one per point -----------------

fn io_error(op: &'static str, path: &Path, err: std::io::Error) -> CoreError {
    CoreError::Store(StoreError::Io {
        op,
        path: path.display().to_string(),
        detail: err.to_string(),
    })
}

/// Encodes one record as a kind-3 frame payload (see DESIGN.md §12 for the
/// field table).
fn encode_record(record: &PointRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(record.index);
    w.put_bytes(record.label.as_bytes());
    w.put_f64_slice(&record.values);
    w.put_bool(record.warm);
    match &record.outcome {
        PointOutcome::Completed(metrics) => {
            w.put_u8(0);
            w.put_f64(metrics.energy_gain_j);
            w.put_f64(metrics.dip_v);
            w.put_f64(metrics.wall_s);
            w.put_f64(metrics.v_first);
            w.put_f64(metrics.v_last);
            w.put_f64(metrics.rms_after_uw);
            w.put_usize(metrics.steps);
            w.put_f64_slice(&metrics.final_state);
        }
        PointOutcome::Failed(message) => {
            w.put_u8(1);
            w.put_bytes(message.as_bytes());
        }
    }
    w.into_bytes()
}

fn decode_record(payload: &[u8]) -> Result<PointRecord, CheckpointError> {
    let mut r = ByteReader::new(payload);
    let index = r.take_usize()?;
    let label = String::from_utf8(r.take_bytes()?.to_vec())
        .map_err(|_| CheckpointError::Malformed("record label is not UTF-8".into()))?;
    let values = r.take_f64_vec()?;
    let warm = r.take_bool()?;
    let outcome = match r.take_u8()? {
        0 => {
            let energy_gain_j = r.take_f64()?;
            let dip_v = r.take_f64()?;
            let wall_s = r.take_f64()?;
            let v_first = r.take_f64()?;
            let v_last = r.take_f64()?;
            let rms_after_uw = r.take_f64()?;
            let steps = r.take_usize()?;
            let final_state = r.take_f64_vec()?;
            PointOutcome::Completed(PointMetrics {
                energy_gain_j,
                dip_v,
                wall_s,
                steps,
                v_first,
                v_last,
                rms_after_uw,
                final_state,
            })
        }
        1 => {
            let message = String::from_utf8(r.take_bytes()?.to_vec())
                .map_err(|_| CheckpointError::Malformed("record error is not UTF-8".into()))?;
            PointOutcome::Failed(message)
        }
        other => {
            return Err(CheckpointError::Malformed(format!("invalid record status byte {other}")))
        }
    };
    r.expect_end()?;
    Ok(PointRecord { index, label, values, warm, recovered: true, outcome })
}

fn append_record(
    file: &mut std::fs::File,
    path: &Path,
    digest: u64,
    record: &PointRecord,
) -> Result<(), CoreError> {
    let frame = seal_frame_with_kind(KIND_EXPLORE_RECORD, digest, &encode_record(record));
    file.write_all(&frame).map_err(|err| io_error("write", path, err))?;
    file.flush().map_err(|err| io_error("flush", path, err))
}

/// Scans a result-store byte string: yields every intact record (first
/// occurrence wins per point index) and the number of corrupt regions
/// skipped. Recovery is resynchronising: after a bad stretch the scanner
/// searches for the next `HVCK` magic and accepts a frame only if it
/// verifies end to end (length in bounds, checksum over every byte), so a
/// flipped or truncated region loses exactly the records it damaged — a
/// corrupt row is never resurrected.
///
/// # Errors
///
/// A frame that *verifies* but carries a different grid digest fails with
/// [`CheckpointError::DigestMismatch`]: the store belongs to another grid
/// and silently mixing points would be worse than refusing.
fn scan_store_bytes(
    bytes: &[u8],
    expected_digest: u64,
) -> Result<(Vec<PointRecord>, usize), CoreError> {
    let mut at = 0usize;
    let mut records: Vec<PointRecord> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut dropped = 0usize;
    let mut in_bad_region = false;
    while at < bytes.len() {
        let Some(start) = find_magic(bytes, at) else {
            in_bad_region = true;
            break;
        };
        if start > at {
            in_bad_region = true;
        }
        match try_frame(&bytes[start..], expected_digest)? {
            Some((record, frame_len)) => {
                if in_bad_region {
                    dropped += 1;
                    in_bad_region = false;
                }
                if seen.insert(record.index) {
                    records.push(record);
                }
                at = start + frame_len;
            }
            None => {
                in_bad_region = true;
                at = start + 1;
            }
        }
    }
    if in_bad_region {
        dropped += 1;
    }
    records.sort_by_key(|record| record.index);
    Ok((records, dropped))
}

fn find_magic(bytes: &[u8], from: usize) -> Option<usize> {
    bytes
        .get(from..)?
        .windows(CHECKPOINT_MAGIC.len())
        .position(|window| window == CHECKPOINT_MAGIC)
        .map(|pos| from + pos)
}

/// Attempts to read one verified frame at the start of `bytes`. `Ok(None)`
/// means "not a valid frame here" (corruption — resync); `Err` means a frame
/// verified end to end but belongs to a different grid.
fn try_frame(
    bytes: &[u8],
    expected_digest: u64,
) -> Result<Option<(PointRecord, usize)>, CoreError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Ok(None);
    }
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let Ok(payload_len) = usize::try_from(payload_len) else { return Ok(None) };
    let Some(total) =
        HEADER_LEN.checked_add(payload_len).and_then(|sum| sum.checked_add(CHECKSUM_LEN))
    else {
        return Ok(None);
    };
    if bytes.len() < total {
        return Ok(None);
    }
    let frame = &bytes[..total];
    let Ok((digest, payload)) = open_frame_with_kind(KIND_EXPLORE_RECORD, frame) else {
        return Ok(None);
    };
    if digest != expected_digest {
        // The checksum passed, so this is a *healthy* frame from a different
        // grid — a hard error, never silent mixing.
        return Err(CoreError::Checkpoint(CheckpointError::DigestMismatch {
            expected: expected_digest,
            found: digest,
        }));
    }
    match decode_record(payload) {
        Ok(record) => Ok(Some((record, total))),
        // A checksum-valid frame that fails decoding is treated as corrupt
        // (dropped, resync) rather than fatal — defence in depth.
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_base() -> ScenarioConfig {
        let mut base = ScenarioConfig::scenario1();
        base.duration_s = 0.06;
        base.frequency_step_time_s = 0.02;
        base
    }

    fn quick_spec() -> GridSpec {
        GridSpec::new(quick_base())
            .axis(SweepParameter::AccelerationAmplitude, &[0.5, 0.7])
            .axis(SweepParameter::InitialSupercapVoltage, &[2.3, 2.5, 2.7])
    }

    #[test]
    fn grid_spec_counts_subsamples_and_refines() {
        let spec = quick_spec();
        assert_eq!(spec.offered(), 6);
        assert_eq!(spec.plan().unwrap().len(), 6);

        // Subsampling keeps a deterministic strict subset.
        let sub = quick_spec().subsample(0.5, 7);
        let kept = sub.plan().unwrap();
        assert!(kept.len() < 6);
        let again = quick_spec().subsample(0.5, 7).plan().unwrap();
        assert_eq!(kept.len(), again.len());
        for (a, b) in kept.iter().zip(&again) {
            assert_eq!(a.index, b.index);
        }
        // A different seed picks a (generally) different subset; still
        // deterministic.
        assert!(quick_spec().subsample(1.0, 0).plan().unwrap().len() == 6);
        assert!(quick_spec().subsample(1.5, 0).plan().is_err());
        assert!(quick_spec().subsample(0.0, 0).plan().is_err());

        // Refinement doubles an axis minus one and errors on unknown axes.
        let refined = quick_spec().refine(SweepParameter::InitialSupercapVoltage).unwrap();
        assert_eq!(refined.axes()[1].1, vec![2.3, 2.4, 2.5, 2.6, 2.7]);
        assert!(quick_spec().refine(SweepParameter::PwlSegments).is_err());

        // The digest tracks the spec identity.
        assert_eq!(quick_spec().digest(), quick_spec().digest());
        assert_ne!(quick_spec().digest(), quick_spec().subsample(0.5, 7).digest());
        assert_ne!(quick_spec().digest(), refined.digest());

        // Point plans carry their axis values in axis order.
        let plans = spec.plan().unwrap();
        assert_eq!(plans[4].index, 4);
        assert_eq!(plans[4].values, vec![0.7, 2.5]);
        assert!(plans[4].config.label.as_deref().unwrap().contains("acc=7e-1"));
    }

    #[test]
    fn record_roundtrip_and_store_scan() {
        let completed = PointRecord {
            index: 3,
            label: "scenario1+acc=7e-1+v0=2.5e0".into(),
            values: vec![0.7, 2.5],
            warm: true,
            recovered: false,
            outcome: PointOutcome::Completed(PointMetrics {
                energy_gain_j: 1.25e-4,
                dip_v: 0.002,
                wall_s: 0.01,
                steps: 1234,
                v_first: 2.5,
                v_last: 2.51,
                rms_after_uw: 117.0,
                final_state: vec![0.0, 1.0, -2.0],
            }),
        };
        let failed = PointRecord {
            index: 4,
            label: "scenario1+stages=0e0".into(),
            values: vec![0.0],
            warm: false,
            recovered: false,
            outcome: PointOutcome::Failed("scenario `scenario1+stages=0e0`: boom".into()),
        };
        let digest = 0xfeed_beef_u64;
        let mut file = Vec::new();
        for record in [&completed, &failed] {
            file.extend_from_slice(&seal_frame_with_kind(
                KIND_EXPLORE_RECORD,
                digest,
                &encode_record(record),
            ));
        }
        let (records, dropped) = scan_store_bytes(&file, digest).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(records.len(), 2);
        assert!(records[0].recovered && records[1].recovered);
        assert_eq!(records[0].outcome, completed.outcome);
        assert_eq!(records[0].label, completed.label);
        assert!(records[0].warm);
        assert_eq!(records[1].outcome, failed.outcome);

        // A flipped byte in the first frame drops exactly that record; the
        // scanner resynchronises on the second.
        let mut corrupt = file.clone();
        corrupt[40] ^= 0x01;
        let (survivors, dropped) = scan_store_bytes(&corrupt, digest).unwrap();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].index, 4);
        assert!(dropped >= 1);

        // Truncation mid-frame keeps the records before the cut.
        let cut = file.len() - 7;
        let (survivors, dropped) = scan_store_bytes(&file[..cut], digest).unwrap();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].index, 3);
        assert_eq!(dropped, 1);

        // A healthy frame from a different grid is a hard mismatch.
        assert!(matches!(
            scan_store_bytes(&file, digest ^ 1),
            Err(CoreError::Checkpoint(CheckpointError::DigestMismatch { .. }))
        ));
    }

    #[test]
    fn explorer_runs_a_small_grid_in_memory() {
        let report = Explorer::new(quick_spec()).workers(2).run().unwrap();
        assert_eq!(report.offered, 6);
        assert_eq!(report.completed, 6);
        assert_eq!(report.failed, 0);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.rows.len(), 6);
        // No controller axis: six groups of one, every point cold, and the
        // steps marched are exactly the rows' steps.
        assert_eq!(report.cold_starts, 6);
        assert_eq!(report.warm_hits, 0);
        let row_steps: usize =
            report.rows.iter().filter_map(|row| row.metrics()).map(|m| m.steps).sum();
        assert_eq!(report.steps_executed, row_steps);
        assert!(report.threads_used >= 1);
        assert!(!report.pareto_front.is_empty());
        // Front members must be completed row indices.
        for index in &report.pareto_front {
            assert!(report.rows.iter().any(|row| row.index == *index && row.metrics().is_some()));
        }
        assert_eq!(report.summaries.len(), 4);
        // Rows arrive sorted by grid index whatever the completion order.
        for pair in report.rows.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }
    }

    #[test]
    fn points_differing_only_in_controller_settings_fork_a_shared_prefix() {
        let spec = GridSpec::new(quick_base())
            .axis(SweepParameter::InitialSupercapVoltage, &[2.4, 2.6])
            .axis(SweepParameter::WatchdogPeriod, &[0.04, 0.02, 0.03]);
        let groups = build_groups(spec.plan().unwrap(), &HashSet::new());
        assert_eq!(groups.len(), 2);
        for group in &groups {
            // Ordered by first wake-up, not by grid position.
            let wakes: Vec<f64> =
                group.members.iter().map(|plan| plan.config.controller.watchdog_period_s).collect();
            assert_eq!(wakes, vec![0.02, 0.03, 0.04]);
        }
        // A recovered row leaves its group.
        let without = build_groups(spec.plan().unwrap(), &HashSet::from([1]));
        assert_eq!(without[0].members.len(), 2);

        let report = Explorer::new(spec).workers(2).run().unwrap();
        assert_eq!(report.completed, 6);
        assert_eq!(report.cold_starts, 2);
        assert_eq!(report.warm_hits, 4);
        let row_steps: usize =
            report.rows.iter().filter_map(|row| row.metrics()).map(|m| m.steps).sum();
        assert!(report.steps_executed < row_steps, "{} vs {row_steps}", report.steps_executed);
    }

    #[test]
    fn failed_points_become_attributed_rows() {
        // Stage count 0 fails validation per point; the grid keeps going.
        let spec = GridSpec::new(quick_base())
            .axis(SweepParameter::MultiplierStages, &[0.0, 5.0])
            .axis(SweepParameter::InitialSupercapVoltage, &[2.4, 2.6]);
        let report = Explorer::new(spec).workers(2).run().unwrap();
        assert_eq!(report.offered, 4);
        assert_eq!(report.failed, 2);
        assert_eq!(report.completed, 2);
        let failure = report.rows.iter().find(|row| row.error().is_some()).unwrap();
        assert!(failure.error().unwrap().contains("stages=0e0"), "{:?}", failure.error());
        // Failures never enter the front.
        for index in &report.pareto_front {
            let row = report.rows.iter().find(|row| row.index == *index).unwrap();
            assert!(row.metrics().is_some());
        }
    }

    #[test]
    fn pareto_front_is_exact_on_a_known_set() {
        let mk = |index: usize, energy: f64, dip: f64, steps: usize| PointRecord {
            index,
            label: format!("p{index}"),
            values: Vec::new(),
            warm: false,
            recovered: false,
            outcome: PointOutcome::Completed(PointMetrics {
                energy_gain_j: energy,
                dip_v: dip,
                wall_s: 0.0,
                steps,
                v_first: 0.0,
                v_last: 0.0,
                rms_after_uw: 0.0,
                final_state: Vec::new(),
            }),
        };
        // p0 dominated by p1; p1, p2, p3 mutually non-dominated.
        let rows = vec![
            mk(0, 1.0, 0.5, 100),
            mk(1, 2.0, 0.5, 100),
            mk(2, 1.5, 0.1, 200),
            mk(3, 2.5, 0.9, 50),
        ];
        assert_eq!(pareto_front(&rows), vec![1, 2, 3]);
        // Identical points do not knock each other out.
        let twins = vec![mk(0, 1.0, 1.0, 10), mk(1, 1.0, 1.0, 10)];
        assert_eq!(pareto_front(&twins), vec![0, 1]);
        assert!(pareto_front(&[]).is_empty());
    }
}
