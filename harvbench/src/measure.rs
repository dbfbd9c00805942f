//! Measurement plumbing shared by every workload: order statistics, the
//! clock-read cost, process memory, the host facts a result is recorded
//! with, and the in-memory span tracer.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        0.5 * (sorted[mid - 1] + sorted[mid])
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    sorted[rank(sorted.len(), p)]
}

/// The fast decile (p10) of repeated timings, printed beside medians: on a
/// shared host a neighbour can only slow a repetition down.
pub fn fast_decile(values: &[f64]) -> f64 {
    percentile(values, 10.0)
}

/// The highest of p99, p95, p90 and p75 that still has at least ten samples
/// above it, as `(p, value)`; `None` when even p75 has fewer than ten.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n >= 1 && n - 1 - rank(n, p) >= 10)
        .map(|p| (p, percentile(values, p)))
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds of a duration, as a float.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Cost of one `Instant::now()` read in nanoseconds: the median over
/// repeated batches of back-to-back reads.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 20_000;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&samples)
}

/// Repetitions of the calibration kernel in one calibration.
const CALIBRATION_REPS: u32 = 2_000;
/// One calibration's wall time at the reference host speed, seconds: its
/// fast decile on the quiet build host (2-vCPU Xeon VM). A normalised time
/// is a wall time scaled to this speed.
pub const CALIBRATION_REFERENCE_S: f64 = 1.6e-3;

/// The calibration kernel: LU with partial pivoting and a solve of a fixed
/// 12 × 12 system, `reps` times — small dense floating point like the
/// march's. It lives in the benchmark, so no change to the program moves it.
fn calibration_kernel(reps: u32, seed: f64) -> f64 {
    const N: usize = 12;
    let mut sum = 0.0;
    for r in 0..reps as usize {
        let mut a = [[0.0f64; N]; N];
        let mut b = [0.0f64; N];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, value) in row.iter_mut().enumerate() {
                *value = ((i * 7 + j * 3 + r) % 11) as f64 * 0.1;
            }
            row[i] += 5.0 + seed;
            b[i] = i as f64 + seed;
        }
        for k in 0..N {
            let pivot =
                (k..N).max_by(|&x, &y| a[x][k].abs().total_cmp(&a[y][k].abs())).unwrap_or(k);
            a.swap(k, pivot);
            b.swap(k, pivot);
            for i in k + 1..N {
                let (upper, lower) = a.split_at_mut(i);
                let (pivot_row, row) = (&upper[k], &mut lower[0]);
                let f = row[k] / pivot_row[k];
                for (value, p) in row[k..].iter_mut().zip(&pivot_row[k..]) {
                    *value -= f * p;
                }
                b[i] -= f * b[k];
            }
        }
        for i in (0..N).rev() {
            let tail: f64 = (i + 1..N).map(|j| a[i][j] * b[j]).sum();
            b[i] = (b[i] - tail) / a[i][i];
        }
        sum += b.iter().sum::<f64>();
    }
    sum
}

/// Wall time of one calibration run on each of `threads` threads at once,
/// the mean over the threads, in seconds.
fn calibration_s(threads: usize) -> f64 {
    let run = || {
        let clock = Instant::now();
        std::hint::black_box(calibration_kernel(CALIBRATION_REPS, std::hint::black_box(0.5)));
        clock.elapsed().as_secs_f64()
    };
    if threads <= 1 {
        return run();
    }
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(run)).collect();
        handles.into_iter().map(|h| h.join().expect("calibration thread")).collect()
    });
    mean(&times)
}

/// The host's speed over one run, from calibrations taken between its
/// measured operations. The host this benchmark runs on is shared:
/// neighbours slow a whole run by a third or more, for minutes at a time,
/// and no statistic of raw wall times undoes that. The calibration is a
/// fixed kernel, run on as many threads as the operations use; a wall time
/// is normalised by scaling it with how much slower than the reference the
/// run's median calibration was. A change in the program moves the
/// operations and not the calibration, so it shows in a normalised time in
/// full.
#[derive(Debug)]
pub struct HostSpeed {
    threads: usize,
    calibrations: Vec<f64>,
}

impl HostSpeed {
    /// Calibrations on `threads` threads at once; takes the first one.
    pub fn new(threads: usize) -> HostSpeed {
        let mut speed = HostSpeed { threads, calibrations: Vec::new() };
        speed.calibrate();
        speed
    }

    /// Takes one calibration.
    pub fn calibrate(&mut self) {
        self.calibrations.push(calibration_s(self.threads));
    }

    /// Median calibration so far, seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.calibrations)
    }

    /// Calibrations taken so far.
    pub fn count(&self) -> usize {
        self.calibrations.len()
    }

    /// `wall` seconds scaled to the reference speed: `wall` ×
    /// [`CALIBRATION_REFERENCE_S`] / the median calibration.
    pub fn normalise(&self, wall: f64) -> f64 {
        wall * CALIBRATION_REFERENCE_S / self.median_s()
    }
}

/// Wall time of one durable write in `dir`, seconds: a 1008-byte frame
/// written to a temporary sibling, fsync'd, renamed over the final name, and
/// the directory fsync'd — the session store's put discipline, in the
/// benchmark's own code, so no change to the program moves it.
pub fn durable_write_s(dir: &Path) -> std::io::Result<f64> {
    use std::io::Write as _;
    let (staging, target) = (dir.join("reference.tmp"), dir.join("reference.frame"));
    let clock = Instant::now();
    let mut file = std::fs::File::create(&staging)?;
    file.write_all(&[0x5a; 1008])?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&staging, &target)?;
    std::fs::File::open(dir)?.sync_all()?;
    Ok(clock.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in MiB (`VmHWM`), `0.0` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kib.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix in
/// `/proc/mounts`), `"unknown"` where that cannot be read.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else { return "unknown".into() };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// FNV-1a-64 of this executable's bytes: the identity of "the same code"
/// under which deterministic counters must repeat exactly.
pub fn executable_digest() -> std::io::Result<u64> {
    let bytes = std::fs::read(std::env::current_exe()?)?;
    Ok(harvsim_core::fnv1a64(&bytes))
}

/// The directory the benchmark keeps its state in (counter records, traces,
/// scratch stores): `$CARGO_TARGET_DIR/harvbench`, else `harvbench/target/harvbench`
/// relative to the working directory.
pub fn state_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("harvbench/target"), PathBuf::from);
    target.join("harvbench")
}

/// A scratch directory private to this process, removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `<state>/scratch-<pid>-<n>-<tag>`, emptying any leftover.
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = state_dir().join(format!("scratch-{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One recorded span: a timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `session.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request identifier: the scenario, point or job the span worked for.
    pub request: String,
}

/// In-memory span recorder for one thread. Disabled tracers record nothing
/// and read no clock; spans nest through an explicit stack.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name` for `request`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: impl FnOnce() -> String,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: request() });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records a span measured elsewhere — one that overlaps others, such as
    /// a job from its due time to the poll that saw it done — with no parent.
    pub fn record(&mut self, name: &'static str, request: String, start: Instant, end: Instant) {
        if self.enabled {
            let ns = |at: Instant| {
                u64::try_from(at.saturating_duration_since(self.origin).as_nanos())
                    .unwrap_or(u64::MAX)
            };
            let (start_ns, end_ns) = (ns(start), ns(end));
            self.spans.push(Span { name, start_ns, end_ns, parent: None, request });
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64)
            .collect()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed by name, sorted by name.
    pub fn self_time_ns(&self) -> Vec<(&'static str, u64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, usize)> =
            Default::default();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += (span.end_ns - span.start_ns).saturating_sub(children);
            entry.1 += 1;
        }
        by_name.into_iter().map(|(name, (ns, count))| (name, ns, count)).collect()
    }

    /// Writes every span as one tab-separated line
    /// (`index name start_ns end_ns parent request`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{index}\t{}\t{}\t{}\t{parent}\t{}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 leaves exactly ten samples above it; p95 would leave five.
        assert_eq!(tail(&values), Some((90.0, 90.0)));
        assert_eq!(tail(&values[..20]), None);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(true);
        tracer.span(
            "outer",
            || "r".into(),
            |t| {
                t.span("inner", || "r".into(), |_| std::thread::sleep(Duration::from_millis(2)));
            },
        );
        let table = tracer.self_time_ns();
        let outer = table.iter().find(|row| row.0 == "outer").unwrap();
        let inner = table.iter().find(|row| row.0 == "inner").unwrap();
        assert!(inner.1 >= 2_000_000);
        assert!(outer.1 < inner.1);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert!(Tracer::new(false).span("x", || unreachable!(), |t| t.spans().is_empty()));
    }
}
