//! What one benchmark run produces: the end-to-end and per-layer metric
//! schema, the correctness checks, the deterministic counters compared across
//! runs, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics, reported by every workload with the workload's own
/// meaning of "one result" (see README.md): `(name, unit)`. Timings are
/// medians normalised to a reference host speed ([`crate::measure::HostSpeed`]),
/// except `serve`'s `setup_s`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("result_ms", "ms"), ("ops_per_s", "1/s")];

/// Per-layer metrics printed by traced runs: `(name, unit)`. A layer the
/// workload does not exercise reports `0` — no work done there.
pub const PER_LAYER: [(&str, &str); 81] = [
    ("bench.clock_read_ns", "ns"),
    ("bench.threads_used", "count"),
    ("bench.nproc", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("table2.proposed_s", "s"),
    ("table2.baseline_s", "s"),
    ("table2.speedup", "ratio"),
    ("table2.max_dev_v", "V"),
    ("explore.points_per_s", "1/s"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p95_ms", "ms"),
    ("serve.burst_jobs_per_s", "1/s"),
    ("serve.batch_latency_p50_ms", "ms"),
    ("serve.miss_frac", "ratio"),
    ("serve.lateness_ms_p95", "ms"),
    ("serve.poll_period_ms", "ms"),
    ("session.start_us", "us"),
    ("session.ns_per_step", "ns"),
    ("session.ns_per_step.scenario1", "ns"),
    ("session.ns_per_step.scenario2", "ns"),
    ("session.slice_ms_p50", "ms"),
    ("session.slice_ms_p95", "ms"),
    ("solver.steps", "count"),
    ("solver.linearisations", "count"),
    ("solver.factorisations", "count"),
    ("solver.cached_solves", "count"),
    ("solver.stability_updates", "count"),
    ("solver.steps_by_order.1", "count"),
    ("solver.steps_by_order.2", "count"),
    ("solver.steps_by_order.3", "count"),
    ("solver.steps_by_order.4", "count"),
    ("solver.stiff_exact_steps", "count"),
    ("solver.constant_stamps_skipped", "count"),
    ("solver.pwl_stamps_skipped", "count"),
    ("solver.pwl_skip_ratio", "ratio"),
    ("baseline.steps", "count"),
    ("baseline.newton_iterations", "count"),
    ("baseline.factorisations", "count"),
    ("baseline.ns_per_step", "ns"),
    ("baseline.iterations_per_step", "ratio"),
    ("mixed.digital_events", "count"),
    ("mixed.control_events", "count"),
    ("checkpoint.encode_us_p50", "us"),
    ("checkpoint.encode_us_p95", "us"),
    ("checkpoint.restore_us_p50", "us"),
    ("checkpoint.restore_us_p95", "us"),
    ("checkpoint.frame_bytes", "bytes"),
    ("store.put_us_p50", "us"),
    ("store.put_us_p95", "us"),
    ("store.get_us_p50", "us"),
    ("store.puts_per_job", "count"),
    ("store.bytes_per_job", "bytes"),
    ("store.open_ms", "ms"),
    ("protocol.submit_rtt_us_p50", "us"),
    ("protocol.submit_rtt_us_p95", "us"),
    ("protocol.status_rtt_us_p50", "us"),
    ("protocol.status_rtt_us_p95", "us"),
    ("protocol.polls_per_job", "ratio"),
    ("protocol.retries", "count"),
    ("protocol.errors", "count"),
    ("server.queue_wait_ms_mean", "ms"),
    ("server.billed_ms_per_job", "ms"),
    ("server.overhead_ms_per_job", "ms"),
    ("server.offered", "count"),
    ("server.admitted", "count"),
    ("server.resubmitted", "count"),
    ("server.shed", "count"),
    ("server.done", "count"),
    ("server.failed", "count"),
    ("server.cancelled", "count"),
    ("explore.point_wall_ms_p50", "ms"),
    ("explore.point_wall_ms_p95", "ms"),
    ("explore.steps_total", "count"),
    ("explore.warm_hits", "count"),
    ("explore.cold_starts", "count"),
    ("explore.steals", "count"),
    ("explore.threads_used", "count"),
    ("explore.worker_busy_frac", "ratio"),
    ("explore.store_bytes", "bytes"),
    ("explore.grids", "count"),
];

/// One correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The measured quantity, for the log.
    pub detail: String,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (engine runs, grid points, jobs).
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Every correctness check, in order.
    pub checks: Vec<Check>,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (absent = layer not exercised).
    pub layers: BTreeMap<&'static str, f64>,
    /// Counters that must repeat exactly for the same code.
    pub counters: BTreeMap<String, u64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a check; a failed check is also printed as a note.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        let check = Check { name: name.into(), passed, detail: detail.into() };
        if !check.passed {
            self.notes.push(format!("CHECK FAILED: {} ({})", check.name, check.detail));
        }
        self.checks.push(check);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|check| check.passed)
    }

    /// Records a deterministic counter; a value differing from one recorded
    /// earlier in the same run fails a check.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        match self.counters.get(&name) {
            Some(&previous) if previous != value => {
                self.check(
                    format!("counter {name} repeats within the run"),
                    false,
                    format!("{previous} then {value}"),
                );
            }
            _ => {
                self.counters.insert(name, value);
            }
        }
    }

    /// Compares the counters with the record earlier runs of the same
    /// executable left at `path`, then merges them into it. Returns how many
    /// counters were compared.
    pub fn compare_counter_record(&mut self, path: &Path) -> std::io::Result<usize> {
        let mut record: BTreeMap<String, u64> = match std::fs::read_to_string(path) {
            Ok(text) => text
                .lines()
                .filter_map(|line| {
                    let (name, value) = line.split_once(' ')?;
                    Some((name.to_string(), value.parse().ok()?))
                })
                .collect(),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
            Err(err) => return Err(err),
        };
        let mut compared = 0;
        let mut mismatches = Vec::new();
        for (name, &value) in &self.counters {
            match record.get(name) {
                Some(&earlier) => {
                    compared += 1;
                    if earlier != value {
                        mismatches.push(format!("{name}: earlier run {earlier}, this run {value}"));
                    }
                }
                None => {
                    record.insert(name.clone(), value);
                }
            }
        }
        let passed = mismatches.is_empty();
        self.check(
            "deterministic counters match earlier runs of this executable",
            passed,
            if passed { format!("{compared} compared") } else { mismatches.join("; ") },
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for (name, value) in &record {
            let _ = writeln!(text, "{name} {value}");
        }
        // Write-then-rename, so a concurrent reader never sees half a record.
        let partial = path.with_extension(format!("partial-{}", std::process::id()));
        std::fs::write(&partial, text)?;
        std::fs::rename(&partial, path)?;
        Ok(compared)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the end-to-end (`trace == false`) or per-layer metrics.
    pub fn result_line(&self, trace: bool) -> String {
        let (schema, values): (&[(&str, &str)], _) =
            if trace { (&PER_LAYER, &self.layers) } else { (&END_TO_END, &self.end_to_end) };
        let metrics: Vec<String> = schema
            .iter()
            .map(|(name, unit)| {
                let value = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn a_counter_that_moves_fails_the_run() {
        let mut report = Report::default();
        report.counter("solver.steps", 10);
        report.counter("solver.steps", 10);
        assert!(report.correct());
        report.counter("solver.steps", 11);
        assert!(!report.correct());
    }

    #[test]
    fn counter_records_compare_across_runs() {
        let dir = crate::measure::state_dir().join(format!("test-record-{}", std::process::id()));
        let path = dir.join("record.txt");
        let mut first = Report::default();
        first.counter("a", 1);
        assert_eq!(first.compare_counter_record(&path).unwrap(), 0);
        let mut same = Report::default();
        same.counter("a", 1);
        same.counter("b", 2);
        assert_eq!(same.compare_counter_record(&path).unwrap(), 1);
        assert!(same.correct());
        let mut moved = Report::default();
        moved.counter("b", 3);
        moved.compare_counter_record(&path).unwrap();
        assert!(!moved.correct());
        let _ = std::fs::remove_dir_all(dir);
    }
}
