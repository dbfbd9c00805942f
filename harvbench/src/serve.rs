//! `serve`: an open loop over one client connection. Submits follow a
//! seeded Poisson schedule at a fixed rate to an in-process [`Server`]
//! (`serve_unix`) over a fresh store directory; the client polls `status`
//! until each job is done. Each job is timed from its due time, so a stalled
//! generator shows up as latency, and the generator's own lateness is
//! reported beside it. Each round of the open loop is followed by a closed
//! burst and, with the server idle, by the round's jobs replayed in-process
//! with the server's slice discipline; the replays give the bounded figures.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use harvsim_core::{
    fnv1a64, Client, Command, JobClass, ProtocolError, Response, RetryPolicy, Server,
    ServerOptions, ServerStats, Session, SessionReport, SessionStore, StatusInfo, SubmitSpec,
    WireState,
};

use crate::measure::{
    self, fast_decile, mean, median, percentile, secs, tail, HostSpeed, Scratch, Tracer,
    CALIBRATION_REFERENCE_S,
};
use crate::{Options, Report, Rng, Size};

/// Offered load of the open loop, jobs per second — under a quarter of the
/// capacity measured on the parent (see README.md).
pub const RATE_PER_S: f64 = 12.0;
// The job mix is synthetic: the repository records no traffic. Each number
// below is chosen for what it makes the workload exercise, not measured.
/// Share of jobs in the `batch` class; the rest, most of them, are short
/// `interactive` jobs. A batch job is four times as long, so at one in five
/// each class carries half of the simulated work.
pub const BATCH_FRACTION: f64 = 0.2;
/// Share of batch jobs paused after submission and resumed once paused:
/// half, so the paused path (frame get + restore) and the uninterrupted batch
/// path run equally often.
pub const PAUSE_FRACTION: f64 = 0.5;
/// Simulated seconds per server slice: the server's default. A slice
/// marches for about 2.4 ms on the build host and the fsync'd put of each
/// preempt takes about 0.7 ms (traced p50s), so the preempt path carries a
/// quarter of a slice.
pub const SLICE_S: f64 = 0.05;
/// Simulated span of an interactive job: 2 slices, 1 preempt.
pub const INTERACTIVE_S: f64 = 0.1;
/// Simulated span of a batch job: 8 slices, 7 preempts.
pub const BATCH_S: f64 = 0.4;
/// Store pre-charges the jobs draw from, volts: the serve soak test's 2.5 V
/// and a step either side, so a swapped or stale frame shows in the digest
/// check.
pub const V0_CHOICES: [f64; 3] = [2.4, 2.5, 2.6];
/// Latency limit of an interactive job; later counts as a miss.
pub const INTERACTIVE_LIMIT_MS: f64 = 50.0;
/// Latency limit of a batch job (pause hold included).
pub const BATCH_LIMIT_MS: f64 = 400.0;
/// Client polling period: the latency resolution.
pub const POLL_PERIOD: Duration = Duration::from_millis(1);
/// Jobs of one closed burst, submitted at once in the open loop's class mix
/// without pauses; the rate at which the server drains the run's bursts is
/// `ops_per_s`.
pub const BURST_JOBS: usize = 20;
/// A paused job is paused this long after submission ...
const PAUSE_AFTER: Duration = Duration::from_millis(3);
/// ... and resumed once seen paused, at least this long after the pause.
const PAUSE_HOLD: Duration = Duration::from_millis(5);
/// Measured seconds per round: an open-loop segment, then a burst, then a
/// set-up sample, so every kind of sample is spread over the whole run.
const ROUND_S: f64 = 2.0;
/// Share of a round's seconds given to its open-loop segment; the burst
/// takes most of the rest.
const OPEN_SHARE: f64 = 0.85;
/// Set-up samples (store open + server start + socket bind) after each round.
const SETUP_PER_ROUND: usize = 1;
/// Calibrations and reference writes taken after each round.
const REFERENCES_PER_ROUND: usize = 8;
/// One reference write's time at the reference host speed, seconds: about
/// its median on the build host's disk.
pub const WRITE_REFERENCE_S: f64 = 0.5e-3;
/// Interactive jobs run one by one before the first round, untimed.
const WARMUP_JOBS: usize = 5;
/// How long after the last due time outstanding jobs are still awaited.
const GRACE: Duration = Duration::from_secs(20);

/// One scheduled job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Submit spec (id, class, span, pre-charge).
    pub spec: SubmitSpec,
    /// Due time from the start of its segment.
    pub due: Duration,
    /// Whether the client pauses and then resumes it.
    pub pause: bool,
}

fn job_spec(id: String, class: JobClass, v0: f64) -> SubmitSpec {
    // The load step sits where `table2` puts it: a fifth into the span, at
    // least 0.05 s in.
    let (duration, step_at) = match class {
        JobClass::Interactive => (INTERACTIVE_S, 0.05),
        _ => (BATCH_S, 0.08),
    };
    SubmitSpec {
        id,
        class,
        deadline_s: None,
        scenario: 1,
        duration_s: Some(duration),
        step_at_s: Some(step_at),
        initial_voltage: Some(v0),
    }
}

/// `count` jobs due at `arrivals`, in the exact class mix: round(count ×
/// [`BATCH_FRACTION`]) batch jobs, of which round(batch × [`PAUSE_FRACTION`])
/// are paused when `pauses`, in a seeded order with seeded pre-charges.
fn jobs(rng: &mut Rng, arrivals: &[f64], pauses: bool, tag: &str) -> Vec<Job> {
    let count = arrivals.len();
    let batches = (count as f64 * BATCH_FRACTION).round() as usize;
    let paused = if pauses { (batches as f64 * PAUSE_FRACTION).round() as usize } else { 0 };
    let mut kinds: Vec<(JobClass, bool)> = (0..count)
        .map(|n| match n {
            n if n < paused => (JobClass::Batch, true),
            n if n < batches => (JobClass::Batch, false),
            _ => (JobClass::Interactive, false),
        })
        .collect();
    for i in (1..count).rev() {
        kinds.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    arrivals
        .iter()
        .zip(kinds)
        .enumerate()
        .map(|(n, (&at, (class, pause)))| {
            let v0 = V0_CHOICES[(rng.next_u64() % V0_CHOICES.len() as u64) as usize];
            let spec = job_spec(format!("{tag}-{n}"), class, v0);
            Job { spec, due: Duration::from_secs_f64(at), pause }
        })
        .collect()
}

/// The seeded open-loop schedule: a Poisson process at [`RATE_PER_S`]
/// conditioned on its count — exactly `rate × window` arrivals, uniform over
/// `window` — in the exact class mix, so every seed offers the same load and
/// work; the arrival times, job order, pre-charges and pause choices all come
/// from `seed`.
pub fn schedule(seed: u64, window: Duration, tag: &str) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let count = (RATE_PER_S * secs(window)).round().max(1.0) as usize;
    let mut arrivals: Vec<f64> = (0..count).map(|_| rng.unit() * secs(window)).collect();
    arrivals.sort_by(f64::total_cmp);
    jobs(&mut rng, &arrivals, true, tag)
}

/// A seeded closed burst: [`BURST_JOBS`] jobs all due at once, in the exact
/// class mix, none paused.
pub fn burst(seed: u64, tag: &str) -> Vec<Job> {
    jobs(&mut Rng::new(seed), &[0.0; BURST_JOBS], false, tag)
}

/// FNV-1a-64 over the little-endian bytes of a final state vector — the
/// digest the server reports for a done job.
pub fn state_fnv(report: &SessionReport) -> u64 {
    let bytes: Vec<u8> =
        report.final_state.as_slice().iter().flat_map(|value| value.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// The reference digest of a spec: the same job run sequentially to the end
/// in one session.
fn reference_fnv(spec: &SubmitSpec) -> Result<u64, String> {
    let mut session = spec.simulation().start().map_err(|err| err.to_string())?;
    session.run_to_end().map_err(|err| err.to_string())?;
    Ok(state_fnv(&session.report()))
}

fn spec_key(spec: &SubmitSpec) -> String {
    format!("{}.v0={}", spec.class, spec.initial_voltage.unwrap_or_default())
}

/// Records the digest check of one done job.
pub fn fnv_check(report: &mut Report, id: &str, got: Option<u64>, want: u64) -> bool {
    let passed = got == Some(want);
    if !passed {
        report.check(
            format!("serve: {id} final_state_fnv matches a sequential run"),
            false,
            format!("{got:?} vs {want:016x}"),
        );
    }
    passed
}

/// Records the offer-conservation check of one server lifetime.
pub fn offer_check(report: &mut Report, stats: &ServerStats) -> bool {
    let passed = stats.offered == stats.admitted + stats.shed + stats.resubmitted;
    report.check(
        "serve: offered == admitted + shed + resubmitted",
        passed,
        format!("{} vs {} + {} + {}", stats.offered, stats.admitted, stats.shed, stats.resubmitted),
    );
    passed
}

/// A server listening on a unix socket, with its store.
struct Running {
    server: Server,
    listener: JoinHandle<std::io::Result<()>>,
    socket: PathBuf,
    open: Duration,
    setup: Duration,
}

fn server_workers() -> usize {
    measure::nproc().saturating_sub(1).max(1)
}

/// `SessionStore::open` + `Server::start` + socket bind, timed until a
/// client can connect.
fn start_server(dir: &Path) -> Result<Running, String> {
    std::fs::create_dir_all(dir).map_err(|err| format!("create {}: {err}", dir.display()))?;
    // Socket paths are length-limited; keep them relative where possible.
    let cwd = std::env::current_dir().unwrap_or_default();
    let socket = dir.strip_prefix(&cwd).unwrap_or(dir).join("serve.sock");
    let clock = Instant::now();
    let store =
        SessionStore::open(dir.join("store")).map_err(|err| format!("open store: {err}"))?;
    let open = clock.elapsed();
    let options =
        ServerOptions { workers: Some(server_workers()), slice_s: SLICE_S, ..Default::default() };
    let server = Server::start(store, options).map_err(|err| format!("start server: {err}"))?;
    let listener = {
        let (server, socket) = (server.clone(), socket.clone());
        std::thread::spawn(move || server.serve_unix(&socket))
    };
    loop {
        match UnixStream::connect(&socket) {
            Ok(_) => break,
            Err(_) if clock.elapsed() < Duration::from_secs(10) && !listener.is_finished() => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(err) => {
                stop_server(Running { server, listener, socket, open, setup: clock.elapsed() });
                return Err(format!("server socket never accepted: {err}"));
            }
        }
    }
    Ok(Running { server, listener, socket, open, setup: clock.elapsed() })
}

/// Drains (idempotent if the client already did), then joins the workers and
/// the accept loop.
fn stop_server(running: Running) {
    let _ = running.server.execute(Command::Drain);
    running.server.join();
    let _ = running.listener.join();
}

type Connect = Box<dyn FnMut(&RetryPolicy) -> std::io::Result<(UnixStream, UnixStream)>>;

/// The protocol client plus the per-verb round-trip record.
struct Wire {
    client: Client<UnixStream, Connect>,
    connects: Rc<Cell<u64>>,
    rtt_us: BTreeMap<&'static str, Vec<f64>>,
    errors: u64,
}

impl Wire {
    fn connect(socket: &Path) -> Wire {
        let connects = Rc::new(Cell::new(0));
        let (count, socket) = (Rc::clone(&connects), socket.to_path_buf());
        let connect: Connect = Box::new(move |policy: &RetryPolicy| {
            count.set(count.get() + 1);
            let stream = UnixStream::connect(&socket)?;
            stream.set_read_timeout(Some(policy.deadline))?;
            Ok((stream.try_clone()?, stream))
        });
        Wire {
            client: Client::new(connect, RetryPolicy::default()),
            connects,
            rtt_us: BTreeMap::new(),
            errors: 0,
        }
    }

    fn send(
        &mut self,
        tracer: &mut Tracer,
        verb: &'static str,
        id: &str,
        command: &Command,
    ) -> Result<Response, ProtocolError> {
        let clock = Instant::now();
        let reply = tracer.span(verb, || id.to_string(), |_| self.client.send(command));
        self.rtt_us.entry(verb).or_default().push(secs(clock.elapsed()) * 1e6);
        if reply.is_err() {
            self.errors += 1;
        }
        reply
    }
}

/// What happened to one job.
#[derive(Debug, Clone, Default)]
struct Outcome {
    done: bool,
    latency_ms: f64,
    fnv: Option<u64>,
    billed_ms: f64,
    steps: u64,
    polls: u64,
}

impl Outcome {
    fn finished(info: &StatusInfo, latency: Duration) -> Outcome {
        Outcome {
            done: true,
            latency_ms: secs(latency) * 1e3,
            fnv: info.final_state_fnv,
            billed_ms: info.billed_ns as f64 * 1e-6,
            steps: info.steps,
            polls: 0,
        }
    }
}

/// Per-job client state during the loop.
struct Live {
    job: usize,
    submitted: Instant,
    paused_at: Option<Instant>,
    resumed: bool,
}

/// Slices a job runs: its span over [`SLICE_S`].
fn slices(spec: &SubmitSpec) -> f64 {
    (spec.duration_s.unwrap_or_default() / SLICE_S).round()
}

/// The host's speed for server work, from stand-ins measured between rounds:
/// the CPU calibration, about as long as one slice's march, and a
/// durable write with the store's discipline. A job's latency is march and
/// fsync in comparable parts, and the host slows either by half or more for
/// minutes at a time; the stand-ins live in the benchmark, so a program
/// change moves the jobs and not them.
#[derive(Debug)]
struct Reference {
    cpu: HostSpeed,
    writes: Vec<f64>,
}

impl Reference {
    /// `wall` seconds of one job that marched `slices` slices, scaled to the
    /// reference host speed: × the stand-ins' time for the job's work at the
    /// reference speed / their median time. Each preempt's put is two
    /// durable writes (frame, then manifest) and the remove one more
    /// (manifest). Medians, because one write in a hundred can take twenty
    /// times the others.
    fn normalise(&self, wall: f64, slices: f64) -> f64 {
        let writes = 2.0 * (slices - 1.0) + 1.0;
        let work = |march: f64, write: f64| slices * march + writes * write;
        wall * work(CALIBRATION_REFERENCE_S, WRITE_REFERENCE_S)
            / work(self.cpu.median_s(), median(&self.writes))
    }
}

/// One closed burst: its jobs, what happened to them, and the time from the
/// first submit to the stats poll that saw the last one resolved.
struct Burst {
    jobs: Vec<Job>,
    outcomes: Vec<Outcome>,
    span: Duration,
}

impl Burst {
    fn done(&self) -> f64 {
        self.outcomes.iter().filter(|o| o.done).count() as f64
    }
}

/// The drain rate of every burst together — done jobs over the bursts' total
/// time — in jobs per second. Pooled rather than a median: one slow fsync
/// adds tens of milliseconds to the burst it lands in, which splits
/// per-burst rates into two modes a median would flip between.
fn drain_rate(bursts: &[Burst]) -> f64 {
    let done: f64 = bursts.iter().map(Burst::done).sum();
    let wall: f64 = bursts.iter().map(|burst| secs(burst.span)).sum();
    done / wall.max(1e-9)
}

/// One measured round: an open-loop segment and then a closed burst.
#[derive(Debug, Clone)]
pub struct Round {
    /// The segment's open-loop schedule.
    pub open: Vec<Job>,
    /// The burst that follows it.
    pub burst: Vec<Job>,
}

/// The seeded rounds of one window: `rounds` open-loop segments of
/// `segment` each, every one followed by a burst.
pub fn rounds(seed: u64, rounds: usize, segment: Duration, tag: &str) -> Vec<Round> {
    let mut seeds = Rng::new(seed);
    (0..rounds)
        .map(|r| Round {
            open: schedule(seeds.next_u64(), segment, &format!("{tag}-{r}")),
            burst: burst(seeds.next_u64(), &format!("{tag}-{r}-burst")),
        })
        .collect()
}

/// Every round of one server lifetime.
struct Window {
    /// Open-loop jobs of every segment, and what happened to them.
    jobs: Vec<Job>,
    outcomes: Vec<Outcome>,
    lateness_ms: Vec<f64>,
    bursts: Vec<Burst>,
    /// Server counters over the open-loop segments only.
    stats: ServerStats,
    /// Server counters over the whole window, bursts included.
    total: ServerStats,
    wire_rtt: BTreeMap<&'static str, Vec<f64>>,
    retries: u64,
    errors: u64,
    /// Set-up samples, seconds: this window's server and the throwaway ones
    /// started after each round.
    setups: Vec<f64>,
    opens: Vec<f64>,
    reference: Reference,
    /// Every round's open-loop jobs, replayed in-process after the round.
    replayed: Vec<Replayed>,
}

fn window(dir: &Path, rounds: Vec<Round>, tracer: &mut Tracer) -> Result<Window, String> {
    let running = start_server(&dir.join("server"))?;
    let result = drive(&running, dir, rounds, tracer);
    stop_server(running);
    result
}

fn server_stats(wire: &mut Wire) -> Result<ServerStats, String> {
    match wire.send(&mut Tracer::new(false), "protocol.stats", "-", &Command::Stats) {
        Ok(Response::Stats(stats)) => Ok(stats),
        other => Err(format!("stats: {other:?}")),
    }
}

/// Adds the counter growth from `before` to `after` into `sum`.
fn add_growth(sum: &mut ServerStats, after: &ServerStats, before: &ServerStats) {
    sum.offered += after.offered - before.offered;
    sum.admitted += after.admitted - before.admitted;
    sum.shed += after.shed - before.shed;
    sum.resubmitted += after.resubmitted - before.resubmitted;
    sum.done += after.done - before.done;
    sum.failed += after.failed - before.failed;
    sum.cancelled += after.cancelled - before.cancelled;
    for class in 0..sum.queue_latency_ns.len() {
        sum.queue_latency_ns[class] +=
            after.queue_latency_ns[class] - before.queue_latency_ns[class];
    }
}

fn drive(
    running: &Running,
    dir: &Path,
    rounds: Vec<Round>,
    tracer: &mut Tracer,
) -> Result<Window, String> {
    let mut wire = Wire::connect(&running.socket);
    let mut quiet = Tracer::new(false);
    // Warm-up: a few interactive jobs one at a time, untimed.
    for n in 0..WARMUP_JOBS {
        let spec = job_spec(format!("warm-up-{n}"), JobClass::Interactive, V0_CHOICES[0]);
        let id = spec.id.clone();
        wire.send(&mut quiet, "protocol.submit", &id, &Command::Submit(spec))
            .map_err(|err| format!("warm-up submit: {err}"))?;
        loop {
            match wire.send(&mut quiet, "protocol.status", &id, &Command::Status { id: id.clone() })
            {
                Ok(Response::Status(info)) if info.state == WireState::Done => break,
                Ok(Response::Status(info))
                    if info.state == WireState::Queued || info.state == WireState::Running =>
                {
                    std::thread::sleep(POLL_PERIOD);
                }
                other => return Err(format!("warm-up job {id}: {other:?}")),
            }
        }
    }
    let first = server_stats(&mut wire)?;
    wire.rtt_us.clear();
    let connects_before = wire.connects.get();
    let errors_before = wire.errors;

    let mut window = Window {
        jobs: Vec::new(),
        outcomes: Vec::new(),
        lateness_ms: Vec::new(),
        bursts: Vec::new(),
        stats: ServerStats::default(),
        total: ServerStats::default(),
        wire_rtt: BTreeMap::new(),
        retries: 0,
        errors: 0,
        setups: vec![secs(running.setup)],
        opens: vec![secs(running.open)],
        reference: Reference { cpu: HostSpeed::new(1), writes: Vec::new() },
        replayed: Vec::new(),
    };
    let replay_dir = dir.join("replay");
    let replay_store =
        SessionStore::open(&replay_dir).map_err(|err| format!("open replay store: {err}"))?;
    for (r, round) in rounds.into_iter().enumerate() {
        let before = server_stats(&mut wire)?;
        let (outcomes, lateness_ms) = open_loop(&mut wire, &round.open, tracer);
        add_growth(&mut window.stats, &server_stats(&mut wire)?, &before);
        let segment_jobs = round.open.len();
        window.jobs.extend(round.open);
        window.outcomes.extend(outcomes);
        window.lateness_ms.extend(lateness_ms);
        window.bursts.push(closed_burst(&mut wire, round.burst, tracer)?);
        // While this window's server is idle: the round's jobs replayed
        // in-process, the host's speed, and set-up samples.
        window.replayed.extend(replay(
            &replay_store,
            &window.jobs[window.jobs.len() - segment_jobs..],
            tracer,
        )?);
        for _ in 0..REFERENCES_PER_ROUND {
            window.reference.cpu.calibrate();
            let write =
                measure::durable_write_s(dir).map_err(|err| format!("reference write: {err}"))?;
            window.reference.writes.push(write);
        }
        for n in 0..SETUP_PER_ROUND {
            let sample = start_server(&dir.join(format!("setup-{r}-{n}")))?;
            window.setups.push(secs(sample.setup));
            window.opens.push(secs(sample.open));
            stop_server(sample);
        }
    }
    add_growth(&mut window.total, &server_stats(&mut wire)?, &first);
    let _ = wire.send(&mut quiet, "protocol.drain", "-", &Command::Drain);
    window.wire_rtt = std::mem::take(&mut wire.rtt_us);
    window.retries = wire.connects.get() - connects_before;
    window.errors = wire.errors - errors_before;
    Ok(window)
}

/// Runs one open-loop segment: submits each job at its due time, pauses and
/// resumes the chosen ones, and polls every outstanding job each
/// [`POLL_PERIOD`] until it resolves. Returns each job's outcome and the
/// generator's lateness per submit.
fn open_loop(wire: &mut Wire, jobs: &[Job], tracer: &mut Tracer) -> (Vec<Outcome>, Vec<f64>) {
    let mut outcomes = vec![Outcome::default(); jobs.len()];
    let mut lateness_ms = Vec::with_capacity(jobs.len());
    let mut live: Vec<Live> = Vec::new();
    let start = Instant::now() + Duration::from_millis(20);
    let last_due = jobs.last().map_or(Duration::ZERO, |job| job.due);
    let mut next = 0;
    let mut next_poll = start;
    while next < jobs.len() || !live.is_empty() {
        if Instant::now() > start + last_due + GRACE {
            break;
        }
        // Submits that are due.
        while next < jobs.len() && start + jobs[next].due <= Instant::now() {
            let job = &jobs[next];
            let due = start + job.due;
            lateness_ms.push(secs(Instant::now().saturating_duration_since(due)) * 1e3);
            let id = job.spec.id.clone();
            // A shed or refused submit never finishes: it counts as a failed
            // job and a miss.
            let reply =
                wire.send(tracer, "protocol.submit", &id, &Command::Submit(job.spec.clone()));
            if let Ok(Response::Submitted { .. }) = reply {
                let submitted = Instant::now();
                live.push(Live { job: next, submitted, paused_at: None, resumed: false });
            }
            next += 1;
        }
        // One polling round over every outstanding job.
        if Instant::now() >= next_poll {
            next_poll = Instant::now() + POLL_PERIOD;
            let mut still = Vec::with_capacity(live.len());
            for mut entry in live.drain(..) {
                let job = &jobs[entry.job];
                let id = job.spec.id.clone();
                if job.pause
                    && entry.paused_at.is_none()
                    && entry.submitted.elapsed() >= PAUSE_AFTER
                {
                    if let Ok(Response::Paused { .. }) =
                        wire.send(tracer, "protocol.pause", &id, &Command::Pause { id: id.clone() })
                    {
                        entry.paused_at = Some(Instant::now());
                    }
                }
                outcomes[entry.job].polls += 1;
                let reply =
                    wire.send(tracer, "protocol.status", &id, &Command::Status { id: id.clone() });
                let seen = Instant::now();
                if let Ok(Response::Status(info)) = reply {
                    match info.state {
                        WireState::Done => {
                            let due = start + job.due;
                            let polls = outcomes[entry.job].polls;
                            outcomes[entry.job] = Outcome {
                                polls,
                                ..Outcome::finished(&info, seen.saturating_duration_since(due))
                            };
                            tracer.record("serve.job", id, due, seen);
                            continue;
                        }
                        WireState::Failed | WireState::Cancelled => continue,
                        WireState::Paused => {
                            let held = entry.paused_at.is_some_and(|at| at.elapsed() >= PAUSE_HOLD);
                            if job.pause && !entry.resumed && held {
                                if let Ok(Response::Resumed { .. }) = wire.send(
                                    tracer,
                                    "protocol.resume",
                                    &id,
                                    &Command::Resume { id: id.clone() },
                                ) {
                                    entry.resumed = true;
                                }
                            }
                        }
                        WireState::Queued | WireState::Running => {}
                    }
                }
                still.push(entry);
            }
            live = still;
        }
        // Sleep until the next submit or polling round.
        let mut wake = next_poll;
        if next < jobs.len() {
            wake = wake.min(start + jobs[next].due);
        }
        if let Some(wait) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    (outcomes, lateness_ms)
}

/// Runs one closed burst: submits every job at once, polls the server's
/// counters each [`POLL_PERIOD`] until all admitted jobs resolved, then reads
/// each job's status once.
fn closed_burst(wire: &mut Wire, jobs: Vec<Job>, tracer: &mut Tracer) -> Result<Burst, String> {
    let resolved = |stats: &ServerStats| stats.done + stats.failed + stats.cancelled;
    let before = resolved(&server_stats(wire)?);
    let start = Instant::now();
    let mut admitted = 0;
    for job in &jobs {
        let submit = Command::Submit(job.spec.clone());
        if let Ok(Response::Submitted { .. }) =
            wire.send(tracer, "protocol.submit", &job.spec.id, &submit)
        {
            admitted += 1;
        }
    }
    let span = loop {
        let stats = server_stats(wire)?;
        if resolved(&stats) - before >= admitted || start.elapsed() > GRACE {
            break start.elapsed();
        }
        std::thread::sleep(POLL_PERIOD);
    };
    tracer.record("serve.burst", jobs[0].spec.id.clone(), start, start + span);
    let mut quiet = Tracer::new(false);
    let outcomes = jobs
        .iter()
        .map(|job| {
            let id = job.spec.id.clone();
            match wire.send(&mut quiet, "protocol.status", &id, &Command::Status { id: id.clone() })
            {
                Ok(Response::Status(info)) if info.state == WireState::Done => {
                    Outcome::finished(&info, span)
                }
                _ => Outcome::default(),
            }
        })
        .collect();
    Ok(Burst { jobs, outcomes, span })
}

/// Judges one window: conservation, digests and limits. Returns the
/// open-loop interactive and batch latencies (ms) of the done jobs and the
/// misses among them.
fn judge(
    report: &mut Report,
    window: &Window,
    references: &BTreeMap<String, u64>,
) -> (Vec<f64>, Vec<f64>, usize) {
    offer_check(report, &window.total);
    let (mut interactive, mut batch) = (Vec::new(), Vec::new());
    let mut misses = 0;
    let mut mismatched = 0;
    let bursts = window.bursts.iter().flat_map(|b| b.jobs.iter().zip(&b.outcomes));
    for (open, (job, outcome)) in window
        .jobs
        .iter()
        .zip(&window.outcomes)
        .map(|pair| (true, pair))
        .chain(bursts.map(|pair| (false, pair)))
    {
        report.attempted += 1;
        let key = spec_key(&job.spec);
        if !outcome.done {
            report.failed += 1;
            misses += usize::from(open);
            continue;
        }
        if !fnv_check(report, &job.spec.id, outcome.fnv, references[&key]) {
            report.failed += 1;
            mismatched += 1;
        }
        report.counter(format!("serve.steps.{key}"), outcome.steps);
        if !open {
            continue;
        }
        let (limit, bucket) = match job.spec.class {
            JobClass::Interactive => (INTERACTIVE_LIMIT_MS, &mut interactive),
            _ => (BATCH_LIMIT_MS, &mut batch),
        };
        if outcome.latency_ms > limit {
            misses += 1;
        }
        bucket.push(outcome.latency_ms);
    }
    for replayed in &window.replayed {
        report.attempted += 1;
        let (id, key) = (&replayed.job.spec.id, spec_key(&replayed.job.spec));
        if !fnv_check(report, &format!("replay {id}"), Some(replayed.fnv), references[&key]) {
            report.failed += 1;
            mismatched += 1;
        }
        report.counter(format!("serve.replay.puts.{}", replayed.job.spec.class), replayed.puts);
    }
    report.check(
        "serve: every done and replayed job's final_state_fnv matches a sequential run",
        mismatched == 0,
        format!("{mismatched} mismatched"),
    );
    (interactive, batch, misses)
}

/// One job replayed in-process.
#[derive(Debug, Clone)]
struct Replayed {
    job: Job,
    /// Wall time of the whole job, seconds.
    wall: f64,
    puts: u64,
    bytes: u64,
    steps: u64,
    fnv: u64,
}

/// Replays jobs one after the other through the public calls, with the
/// server's slice discipline: start, `run_until_deadline(slice)`, then
/// checkpoint and fsync'd put after every slice but the last, a get +
/// restore after a paused job's first put, and the remove at the end. Each
/// job is timed whole.
fn replay(
    store: &SessionStore,
    jobs: &[Job],
    tracer: &mut Tracer,
) -> Result<Vec<Replayed>, String> {
    let mut replayed = Vec::with_capacity(jobs.len());
    for job in jobs {
        let id = job.spec.id.clone();
        let (mut puts, mut bytes) = (0u64, 0u64);
        let fail = |err: &dyn std::fmt::Display| format!("replay {id}: {err}");
        let clock = Instant::now();
        let simulation = job.spec.simulation();
        let mut session: Session = tracer
            .span("session.start", || id.clone(), |_| simulation.start())
            .map_err(|err| fail(&err))?;
        loop {
            let target = session.time() + SLICE_S;
            tracer
                .span(
                    "session.run_until",
                    || id.clone(),
                    |_| session.run_until_deadline(target, None),
                )
                .map_err(|err| fail(&err))?;
            if session.is_finished() {
                break;
            }
            let frame = tracer
                .span("checkpoint.encode", || id.clone(), |_| session.checkpoint())
                .map_err(|err| fail(&err))?;
            tracer
                .span("store.put", || id.clone(), |_| store.put(&id, &frame))
                .map_err(|err| fail(&err))?;
            puts += 1;
            bytes += frame.len() as u64;
            if job.pause && puts == 1 {
                let stored = tracer
                    .span("store.get", || id.clone(), |_| store.get(&id))
                    .map_err(|err| fail(&err))?;
                session = tracer
                    .span("checkpoint.restore", || id.clone(), |_| Session::restore(&stored))
                    .map_err(|err| fail(&err))?;
            }
        }
        if puts > 0 {
            store.remove(&id).map_err(|err| fail(&err))?;
        }
        let wall = secs(clock.elapsed());
        let report = session.report();
        replayed.push(Replayed {
            job: job.clone(),
            wall,
            puts,
            bytes,
            steps: report.engine_stats.state_space.steps as u64,
            fnv: state_fnv(&report),
        });
    }
    Ok(replayed)
}

/// The per-layer split of the replayed jobs, from a traced window's spans.
fn replay_layers(report: &mut Report, tracer: &Tracer, replayed: &[Replayed]) {
    let us = |name: &str, p: f64| percentile(&tracer.durations_ns(name), p) * 1e-3;
    let slices_ms: Vec<f64> =
        tracer.durations_ns("session.run_until").iter().map(|ns| ns * 1e-6).collect();
    let steps: u64 = replayed.iter().map(|r| r.steps).sum();
    let puts: u64 = replayed.iter().map(|r| r.puts).sum();
    let bytes: u64 = replayed.iter().map(|r| r.bytes).sum();
    let jobs = replayed.len().max(1) as f64;
    let layers = &mut report.layers;
    layers.insert("session.start_us", us("session.start", 50.0));
    layers.insert("session.slice_ms_p50", percentile(&slices_ms, 50.0));
    layers.insert("session.slice_ms_p95", percentile(&slices_ms, 95.0));
    layers.insert("session.ns_per_step", slices_ms.iter().sum::<f64>() * 1e6 / steps.max(1) as f64);
    layers.insert("checkpoint.encode_us_p50", us("checkpoint.encode", 50.0));
    layers.insert("checkpoint.encode_us_p95", us("checkpoint.encode", 95.0));
    layers.insert("checkpoint.restore_us_p50", us("checkpoint.restore", 50.0));
    layers.insert("checkpoint.restore_us_p95", us("checkpoint.restore", 95.0));
    layers.insert("checkpoint.frame_bytes", bytes as f64 / puts.max(1) as f64);
    layers.insert("store.put_us_p50", us("store.put", 50.0));
    layers.insert("store.put_us_p95", us("store.put", 95.0));
    layers.insert("store.get_us_p50", us("store.get", 50.0));
    layers.insert("store.puts_per_job", puts as f64 / jobs);
    layers.insert("store.bytes_per_job", bytes as f64 / jobs);
}

/// `serve`'s bounded figures, from the window's in-process replays: the
/// median normalised time of an interactive job, in milliseconds, and
/// replayed jobs per normalised second over every replay.
fn replay_figures(window: &Window) -> (f64, f64) {
    let normalised = |r: &Replayed| window.reference.normalise(r.wall, slices(&r.job.spec));
    let interactive: Vec<f64> = window
        .replayed
        .iter()
        .filter(|r| r.job.spec.class == JobClass::Interactive)
        .map(normalised)
        .collect();
    let total: f64 = window.replayed.iter().map(normalised).sum();
    (median(&interactive) * 1e3, window.replayed.len() as f64 / total.max(1e-9))
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures: no scratch directory, a server that cannot start or
/// bind, a reference run that fails.
pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let scratch = Scratch::new("serve").map_err(|err| format!("scratch directory: {err}"))?;

    // Reference digests of every distinct spec, from sequential sessions.
    let mut references = BTreeMap::new();
    for class in [JobClass::Interactive, JobClass::Batch] {
        for v0 in V0_CHOICES {
            let spec = job_spec("reference".into(), class, v0);
            references.insert(spec_key(&spec), reference_fnv(&spec)?);
        }
    }

    let seconds = match options.size {
        Size::Full => options.seconds,
        Size::Toy => options.seconds.min(0.5),
    };
    let budget = if options.trace { seconds / 2.0 } else { seconds };
    let count = (budget / ROUND_S).round().max(1.0);
    let segment = Duration::from_secs_f64(budget / count * OPEN_SHARE);
    let count = count as usize;
    let mut quiet = Tracer::new(false);
    let untraced = window(
        &scratch.path().join("untraced"),
        rounds(options.seed, count, segment, "job"),
        &mut quiet,
    )?;
    let (interactive, batch, misses) = judge(&mut report, &untraced, &references);
    let (untraced_result, ops_per_s) = replay_figures(&untraced);
    report.end_to_end.insert("setup_s", median(&untraced.setups));
    report.end_to_end.insert("result_ms", untraced_result);
    report.end_to_end.insert("ops_per_s", ops_per_s);
    report.notes.push(format!(
        "setup_s = {:.6} s (median of n={} store open + server start + bind, spread over the run; p10 {:.6} s)",
        median(&untraced.setups),
        untraced.setups.len(),
        fast_decile(&untraced.setups)
    ));
    let reference = &untraced.reference;
    let interactive_walls: Vec<f64> = untraced
        .replayed
        .iter()
        .filter(|r| r.job.spec.class == JobClass::Interactive)
        .map(|r| r.wall * 1e3)
        .collect();
    let replay_s: f64 = untraced.replayed.iter().map(|r| r.wall).sum();
    report.notes.push(format!(
        "result_ms = {untraced_result:.3} ms normalised (replayed interactive job, median of n={}; wall median {:.3} ms); ops_per_s = {ops_per_s:.3} replayed jobs/s normalised (n={}; wall {:.3} jobs/s)",
        interactive_walls.len(),
        median(&interactive_walls),
        untraced.replayed.len(),
        untraced.replayed.len() as f64 / replay_s.max(1e-9)
    ));
    report.notes.push(format!(
        "host: median calibration {:.4} ms over n={}, reference write median {:.4} ms, mean {:.4} ms over n={} (references {:.4} / {:.4} ms)",
        reference.cpu.median_s() * 1e3,
        reference.cpu.count(),
        median(&reference.writes) * 1e3,
        mean(&reference.writes) * 1e3,
        reference.writes.len(),
        CALIBRATION_REFERENCE_S * 1e3,
        WRITE_REFERENCE_S * 1e3
    ));

    let mut shown = (untraced, interactive, batch, misses);
    if options.trace {
        let mut tracer = Tracer::new(true);
        // A different seed stream for the traced window's schedule.
        let traced = window(
            &scratch.path().join("traced"),
            rounds(options.seed ^ 0x7472_6163_6564, count, segment, "traced"),
            &mut tracer,
        )?;
        let (interactive, batch, misses) = judge(&mut report, &traced, &references);
        let (traced_result, _) = replay_figures(&traced);
        report.layers.insert("trace.overhead_frac", traced_result / untraced_result - 1.0);
        replay_layers(&mut report, &tracer, &traced.replayed);
        crate::write_trace(&mut report, &tracer, options)?;
        shown = (traced, interactive, batch, misses);
    }
    let (window, interactive, batch, misses) = shown;
    summarise(&mut report, &window, &interactive, &batch, misses, scratch.path());
    Ok(report)
}

fn summarise(
    report: &mut Report,
    window: &Window,
    interactive: &[f64],
    batch: &[f64],
    misses: usize,
    dir: &Path,
) {
    let jobs = window.jobs.len().max(1) as f64;
    let miss_frac = misses as f64 / jobs;
    let tail_text =
        tail(interactive).map_or_else(|| "n/a".to_string(), |(p, v)| format!("p{p:.0} {v:.3} ms"));
    let paused = window.jobs.iter().filter(|job| job.pause).count();
    let batches = window.jobs.iter().filter(|job| job.spec.class == JobClass::Batch).count();
    report.notes.push(format!(
        "hygiene: open loop, one connection, {RATE_PER_S} jobs/s Poisson in {} rounds, each followed by a {BURST_JOBS}-job burst; server workers {} + 1 client thread (nproc {}); poll period {} ms = latency resolution; store fs {}",
        window.bursts.len(),
        server_workers(),
        measure::nproc(),
        POLL_PERIOD.as_secs_f64() * 1e3,
        measure::filesystem_of(dir),
    ));
    report.notes.push(format!(
        "mix (synthetic): {} open-loop jobs = {} interactive ({INTERACTIVE_S} s) + {batches} batch ({BATCH_S} s, {paused} paused+resumed); slice {SLICE_S} s; limits {INTERACTIVE_LIMIT_MS} / {BATCH_LIMIT_MS} ms",
        window.jobs.len(),
        window.jobs.len() - batches,
    ));
    report.notes.push(format!(
        "serve.latency_p50_ms = {:.3} ms, serve.latency_p95_ms = {:.3} ms, tail {tail_text}, p10 {:.3} ms, p5 {:.3} ms, p25 {:.3} ms (n={} interactive)",
        median(interactive),
        percentile(interactive, 95.0),
        fast_decile(interactive),
        percentile(interactive, 5.0),
        percentile(interactive, 25.0),
        interactive.len()
    ));
    report.notes.push(format!(
        "serve.batch_latency_p50_ms = {:.3} ms (n={}); serve.miss_frac = {miss_frac:.4} ({misses} of {})",
        median(batch),
        batch.len(),
        window.jobs.len()
    ));
    let spans: Vec<f64> = window.bursts.iter().map(|burst| secs(burst.span) * 1e3).collect();
    report.notes.push(format!(
        "serve.burst_jobs_per_s = {:.3} (all n={} closed bursts of {BURST_JOBS} jobs pooled; burst ms median {:.1}, p10 {:.1}, max {:.1})",
        drain_rate(&window.bursts),
        spans.len(),
        median(&spans),
        fast_decile(&spans),
        percentile(&spans, 100.0)
    ));
    report.notes.push(format!(
        "generator lateness: p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms",
        percentile(&window.lateness_ms, 50.0),
        percentile(&window.lateness_ms, 95.0),
        percentile(&window.lateness_ms, 100.0)
    ));

    let done: Vec<&Outcome> = window.outcomes.iter().filter(|o| o.done).collect();
    let latency: Vec<f64> = done.iter().map(|o| o.latency_ms).collect();
    let billed: Vec<f64> = done.iter().map(|o| o.billed_ms).collect();
    let queue_ms =
        window.stats.queue_latency_ns.iter().sum::<u64>() as f64 * 1e-6 / done.len().max(1) as f64;
    let rtt = |verb: &str, p: f64| window.wire_rtt.get(verb).map_or(0.0, |v| percentile(v, p));
    let polls: u64 = window.outcomes.iter().map(|o| o.polls).sum();
    let stats = &window.total;
    let layers = &mut report.layers;
    layers.insert("bench.threads_used", (server_workers() + 1) as f64);
    layers.insert("serve.latency_p50_ms", median(interactive));
    layers.insert("serve.burst_jobs_per_s", drain_rate(&window.bursts));
    layers.insert("serve.latency_p95_ms", percentile(interactive, 95.0));
    layers.insert("serve.batch_latency_p50_ms", median(batch));
    layers.insert("serve.miss_frac", miss_frac);
    layers.insert("serve.lateness_ms_p95", percentile(&window.lateness_ms, 95.0));
    layers.insert("serve.poll_period_ms", POLL_PERIOD.as_secs_f64() * 1e3);
    layers.insert("store.open_ms", median(&window.opens) * 1e3);
    layers.insert("protocol.submit_rtt_us_p50", rtt("protocol.submit", 50.0));
    layers.insert("protocol.submit_rtt_us_p95", rtt("protocol.submit", 95.0));
    layers.insert("protocol.status_rtt_us_p50", rtt("protocol.status", 50.0));
    layers.insert("protocol.status_rtt_us_p95", rtt("protocol.status", 95.0));
    layers.insert("protocol.polls_per_job", polls as f64 / jobs);
    layers.insert("protocol.retries", window.retries as f64);
    layers.insert("protocol.errors", window.errors as f64);
    layers.insert("server.queue_wait_ms_mean", queue_ms);
    layers.insert("server.billed_ms_per_job", mean(&billed));
    layers.insert("server.overhead_ms_per_job", mean(&latency) - mean(&billed) - queue_ms);
    layers.insert("server.offered", stats.offered as f64);
    layers.insert("server.admitted", stats.admitted as f64);
    layers.insert("server.resubmitted", stats.resubmitted as f64);
    layers.insert("server.shed", stats.shed as f64);
    layers.insert("server.done", stats.done as f64);
    layers.insert("server.failed", stats.failed as f64);
    layers.insert("server.cancelled", stats.cancelled as f64);
}
