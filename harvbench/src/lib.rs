//! # harvbench
//!
//! The harvsim benchmark. One command runs a named workload for a fixed
//! number of seconds, checks that the program's outputs are correct, and
//! prints every metric by name with its unit; a traced run (`--trace 1`)
//! prints the per-layer metrics and the cost of tracing instead.
//!
//! The benchmark drives only the public API — `Simulation`/`Session`,
//! `SessionStore`, `Server` + `protocol::Client` over a unix socket, and
//! `Explorer`/`GridSpec` — and times each call into a layer from its own
//! files. README.md maps every per-layer metric to the end-to-end metric and
//! workload it should move.
//!
//! * [`table2`] — the paper's Table II: both tuning scenarios, each engine
//!   run alone on one thread.
//! * [`explore`] — the default 216-point design study on `nproc` workers.
//! * [`serve`] — an open loop of seeded submits to an in-process server over
//!   one unix-socket connection.

#![forbid(unsafe_code)]

pub mod explore;
pub mod measure;
pub mod report;
pub mod serve;
pub mod table2;

use std::time::Instant;

pub use report::{Report, END_TO_END, PER_LAYER};

/// The workloads, by their command-line names.
pub const WORKLOADS: [&str; 3] = ["table2", "explore", "serve"];

/// Input size: the full benchmark, or the toy size the self-tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-scale inputs for the benchmark's own tests.
    Toy,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed the workload derives its inputs from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// Runs one workload and returns its report, with the deterministic
/// counters already compared against earlier runs of this executable.
///
/// # Errors
///
/// A set-up failure (no store directory, no socket, an engine error outside
/// any measured operation) that leaves no result to report.
pub fn run(options: &Options) -> Result<Report, String> {
    let clock_ns = measure::clock_read_ns();
    let mut report = match options.workload.as_str() {
        "table2" => table2::run(options)?,
        "explore" => explore::run(options)?,
        "serve" => serve::run(options)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    report.notes.insert(
        0,
        format!(
            "harvbench {} seed={} seconds={} trace={} nproc={} clock_read={clock_ns:.1} ns",
            options.workload,
            options.seed,
            options.seconds,
            u8::from(options.trace),
            measure::nproc()
        ),
    );
    report.end_to_end.insert("peak_rss_mb", measure::peak_rss_mb());
    report.layers.insert("bench.clock_read_ns", clock_ns);
    report.layers.insert("bench.nproc", measure::nproc() as f64);
    let threads = report.layers.get("bench.threads_used").copied().unwrap_or(1.0);
    report.check(
        "threads used stay within nproc",
        threads <= measure::nproc() as f64,
        format!("{threads} of {}", measure::nproc()),
    );

    let digest = measure::executable_digest().map_err(|err| format!("hash executable: {err}"))?;
    let size = match options.size {
        Size::Full => "full",
        Size::Toy => "toy",
    };
    let record = measure::state_dir()
        .join("counters")
        .join(format!("{}-{size}-{digest:016x}.txt", options.workload));
    report
        .compare_counter_record(&record)
        .map_err(|err| format!("counter record {}: {err}", record.display()))?;
    Ok(report)
}

/// Writes a traced run's spans to `<state>/traces/<workload>-<seed>.tsv`
/// and adds the span count and the self time per span name to the report.
///
/// # Errors
///
/// The trace file cannot be written.
pub fn write_trace(
    report: &mut Report,
    tracer: &measure::Tracer,
    options: &Options,
) -> Result<(), String> {
    let path = measure::state_dir()
        .join("traces")
        .join(format!("{}-{}.tsv", options.workload, options.seed));
    tracer.write_tsv(&path).map_err(|err| format!("write {}: {err}", path.display()))?;
    report.layers.insert("trace.spans", tracer.spans().len() as f64);
    report.notes.push("per-layer figures below come from the traced half".into());
    report.notes.push(format!(
        "trace: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    for (name, ns, count) in tracer.self_time_ns() {
        report
            .notes
            .push(format!("trace self time {name}: {:.3} ms over {count} spans", ns as f64 * 1e-6));
    }
    Ok(())
}

/// Repeats `operation` until at least `min_runs` ran and `seconds` elapsed,
/// returning the wall time of each run in seconds. The loop stops early on
/// an error.
pub fn measure_for<E>(
    seconds: f64,
    min_runs: usize,
    mut operation: impl FnMut() -> Result<(), E>,
) -> Result<Vec<f64>, E> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_runs || start.elapsed().as_secs_f64() < seconds {
        let clock = Instant::now();
        operation()?;
        walls.push(clock.elapsed().as_secs_f64());
    }
    Ok(walls)
}

/// SplitMix64: the small deterministic generator behind every seeded input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
