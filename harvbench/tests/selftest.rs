//! The benchmark's own tests: every workload at toy size, the metric schema
//! against `BENCHMARK.json`, and proof that each correctness check can fail.

use std::collections::BTreeSet;

use harvbench::{explore, serve, table2, Options, Report, Size, END_TO_END, PER_LAYER, WORKLOADS};
use harvsim_core::{JobClass, ServerStats};

fn toy(workload: &str, trace: bool) -> Report {
    let options =
        Options { workload: workload.into(), seed: 7, seconds: 0.5, trace, size: Size::Toy };
    harvbench::run(&options).unwrap_or_else(|err| panic!("{workload}: {err}"))
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn benchmark_json_metrics(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{list}\"")).expect("metric list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

#[test]
fn metric_schema_matches_benchmark_json() {
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(name, unit)| (name.to_string(), unit.to_string())).collect()
    };
    assert_eq!(benchmark_json_metrics("end_to_end"), owned(&END_TO_END));
    assert_eq!(benchmark_json_metrics("per_layer"), owned(&PER_LAYER));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    for workload in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{workload}\"")), "{workload} listed");
    }
    // The serve workload's fixed rate and limits are recorded in its `why`.
    assert!(text.contains(&format!("{} jobs/s", serve::RATE_PER_S)));
    assert!(text.contains(&format!(
        "{}/{} ms",
        serve::INTERACTIVE_LIMIT_MS,
        serve::BATCH_LIMIT_MS
    )));
}

/// The result line carries exactly the schema's metrics, each a number.
fn assert_result_line(report: &Report, trace: bool) {
    let line = report.result_line(trace);
    let schema = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    let names: BTreeSet<&str> = schema.iter().map(|(name, _)| *name).collect();
    for name in &names {
        assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} in {line}");
    }
    assert_eq!(line.matches("\"value\"").count(), names.len());
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
}

fn assert_sound(workload: &str, report: &Report, trace: bool) {
    assert!(report.correct(), "{workload}: {:#?}", report.checks);
    assert!(report.attempted >= 1);
    assert_eq!(report.failed, 0, "{workload}");
    if !trace {
        for (name, _) in END_TO_END {
            let value = report.end_to_end[name];
            assert!(value > 0.0 && value.is_finite(), "{workload} {name} = {value}");
        }
    }
    assert_result_line(report, trace);
}

#[test]
fn table2_toy_run_is_complete_and_correct() {
    for trace in [false, true] {
        let report = toy("table2", trace);
        assert_sound("table2", &report, trace);
        if trace {
            for name in [
                "solver.steps",
                "baseline.newton_iterations",
                "session.ns_per_step",
                "table2.speedup",
            ] {
                assert!(report.layers[name] > 0.0, "{name}");
            }
            assert!(report.layers.contains_key("trace.overhead_frac"));
        }
    }
}

#[test]
fn explore_toy_run_is_complete_and_correct() {
    for trace in [false, true] {
        let report = toy("explore", trace);
        assert_sound("explore", &report, trace);
        if trace {
            assert_eq!(report.layers["explore.warm_hits"], 2.0);
            assert_eq!(report.layers["explore.cold_starts"], 2.0);
            assert!(report.layers["session.start_us"] > 0.0);
        }
    }
}

#[test]
fn serve_toy_run_is_complete_and_correct() {
    for trace in [false, true] {
        let report = toy("serve", trace);
        assert_sound("serve", &report, trace);
        if trace {
            for name in [
                "store.put_us_p50",
                "checkpoint.encode_us_p50",
                "protocol.status_rtt_us_p50",
                "server.done",
            ] {
                assert!(report.layers[name] > 0.0, "{name}");
            }
            assert!(
                report.layers["store.puts_per_job"] >= 1.0,
                "an interactive job has 1 preempt, a batch job 7"
            );
        }
    }
}

#[test]
fn a_deviation_above_the_band_fails_the_run() {
    let mut report = Report::default();
    assert!(table2::deviation_check(&mut report, "scenario1", 1.9e-4));
    assert!(report.correct());
    assert!(!table2::deviation_check(&mut report, "scenario1", 2.1e-4));
    assert!(!report.correct());
    let mut report = Report::default();
    assert!(!table2::pole_check(&mut report, "scenario2", -4.1e4));
    assert!(!report.correct());
}

#[test]
fn a_mismatched_digest_fails_the_run() {
    let mut report = Report::default();
    assert!(serve::fnv_check(&mut report, "job-1", Some(42), 42));
    assert!(report.correct());
    assert!(!serve::fnv_check(&mut report, "job-2", Some(41), 42));
    assert!(!report.correct());
    let mut report = Report::default();
    assert!(!serve::fnv_check(&mut report, "job-3", None, 42));
    assert!(!report.correct());
}

#[test]
fn broken_conservation_fails_the_run() {
    let mut report = Report::default();
    let stats = ServerStats { offered: 5, admitted: 4, shed: 1, ..Default::default() };
    assert!(serve::offer_check(&mut report, &stats));
    let lost = ServerStats { offered: 5, admitted: 3, shed: 1, ..Default::default() };
    assert!(!serve::offer_check(&mut report, &lost));
    assert!(!report.correct());
    let mut report = Report::default();
    assert!(explore::accounting_check(&mut report, 216, 216, 0, 0));
    assert!(report.correct());
    assert!(!explore::accounting_check(&mut report, 216, 215, 1, 0));
    assert!(!report.correct());
}

#[test]
fn the_serve_schedule_is_seeded_and_offers_a_fixed_load() {
    let window = std::time::Duration::from_secs(4);
    let a = serve::schedule(3, window, "job");
    let b = serve::schedule(3, window, "job");
    let c = serve::schedule(4, window, "job");
    assert_eq!(a.len(), (serve::RATE_PER_S * 4.0) as usize);
    assert_eq!(a.len(), c.len());
    let key = |jobs: &[serve::Job]| -> Vec<(u128, String)> {
        jobs.iter().map(|job| (job.due.as_nanos(), job.spec.to_line())).collect()
    };
    assert_eq!(key(&a), key(&b));
    assert_ne!(key(&a), key(&c));
    assert!(a.windows(2).all(|pair| pair[0].due <= pair[1].due));
    // The class mix is exact, not drawn: a fifth batch, half of those paused.
    let batches = |jobs: &[serve::Job]| -> usize {
        jobs.iter().filter(|job| job.spec.class == JobClass::Batch).count()
    };
    assert_eq!((batches(&a), batches(&c)), (10, 10));
    assert_eq!(a.iter().filter(|job| job.pause).count(), 5);
    assert!(a.iter().all(|job| !job.pause || job.spec.class == JobClass::Batch));
    let burst = serve::burst(3, "burst");
    assert_eq!(burst.len(), serve::BURST_JOBS);
    assert_eq!(batches(&burst), serve::BURST_JOBS / 5);
    assert!(burst.iter().all(|job| job.due.is_zero() && !job.pause));
}
