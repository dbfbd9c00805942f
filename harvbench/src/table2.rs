//! `table2`: the paper's Table II. Both tuning scenarios at the Table II
//! spans; for each, the proposed state-space engine and then the
//! Newton–Raphson baseline run alone, one after the other, on this thread —
//! never through `SpeedComparison::run_batch`, whose concurrent scenarios
//! make the ratio depend on the scheduler.

use std::time::{Duration, Instant};

use harvsim_core::{
    BaselineOptions, CoreError, ScenarioConfig, Session, SessionReport, Simulation,
    SimulationEngine, SolverOptions, WaveformProbe,
};
use harvsim_ode::Trajectory;

use crate::measure::{fast_decile, median, secs, HostSpeed, Tracer};
use crate::{measure_for, Options, Report, Size};

/// Cross-engine acceptance band on the store voltage, volts.
pub const MAX_DEVIATION_V: f64 = 2e-4;
/// Largest admissible |Re| of the binding pole, 1/s: beyond it the stiff
/// interface pole is back in the explicit lane.
pub const MAX_POLE_RE: f64 = 3.5e4;
/// Samples of the deviation scan over the common span.
const DEVIATION_SAMPLES: usize = 400;
/// Set-up rounds after each pass; `setup_s` is their median.
const SETUP_ROUNDS_PER_PASS: usize = 3;
/// Proposed-engine runs per scenario per pass: the proposed engine is the
/// headline and a twentieth of the baseline's cost, so it gets more samples.
const PROPOSED_REPEATS: usize = 3;

/// The two scenarios at the spans of `repro table2` (5 s and 8 s), or at
/// toy spans.
pub fn scenarios(size: Size) -> [(&'static str, ScenarioConfig); 2] {
    let (d1, d2) = match size {
        Size::Full => (5.0, 8.0),
        Size::Toy => (0.3, 0.3),
    };
    [
        ("scenario1", table2_config(ScenarioConfig::scenario1(), d1)),
        ("scenario2", {
            let mut config = table2_config(ScenarioConfig::scenario2(), d2);
            config.initial_supercap_voltage = 2.6;
            config
        }),
    ]
}

fn table2_config(mut config: ScenarioConfig, duration_s: f64) -> ScenarioConfig {
    config.duration_s = duration_s;
    config.frequency_step_time_s = (duration_s * 0.2).max(0.05);
    config
}

fn engines() -> [SimulationEngine; 2] {
    [
        SimulationEngine::StateSpace(SolverOptions::default()),
        SimulationEngine::NewtonRaphson(BaselineOptions::default()),
    ]
}

fn record_interval(engine: SimulationEngine) -> f64 {
    match engine {
        SimulationEngine::StateSpace(options) => options.record_interval,
        SimulationEngine::NewtonRaphson(options) => options.record_interval,
    }
}

/// One engine's whole run of one scenario.
struct EngineRun {
    run: Duration,
    report: SessionReport,
    terminals: Trajectory,
    storage_net: usize,
}

fn run_engine(
    tracer: &mut Tracer,
    host: &mut HostSpeed,
    label: &'static str,
    config: &ScenarioConfig,
    engine: SimulationEngine,
) -> Result<EngineRun, CoreError> {
    let simulation = Simulation::from_config(config.clone()).engine(engine);
    let mut session: Session =
        tracer.span("session.start", || label.into(), |_| simulation.start())?;
    let probe = session.add_probe(WaveformProbe::new(record_interval(engine)));
    let clock = Instant::now();
    let outcome = tracer.span("session.run_to_end", || label.into(), |_| session.run_to_end());
    let run = clock.elapsed();
    host.calibrate();
    outcome?;
    let terminals = session.probe::<WaveformProbe>(probe).expect("probe keeps its type");
    Ok(EngineRun {
        run,
        report: session.report(),
        terminals: terminals.terminals().clone(),
        storage_net: session.harvester().storage_voltage_net(),
    })
}

/// Records the cross-engine deviation check of one scenario.
pub fn deviation_check(report: &mut Report, label: &str, deviation_v: f64) -> bool {
    let passed = deviation_v <= MAX_DEVIATION_V;
    report.check(
        format!("{label}: cross-engine max deviation <= {MAX_DEVIATION_V} V"),
        passed,
        format!("{deviation_v:.3e} V"),
    );
    passed
}

/// Records the binding-pole check of one scenario.
pub fn pole_check(report: &mut Report, label: &str, pole_re: f64) -> bool {
    let passed = pole_re.abs() <= MAX_POLE_RE;
    report.check(
        format!("{label}: |binding pole re| <= {MAX_POLE_RE} 1/s"),
        passed,
        format!("{pole_re:.1} 1/s"),
    );
    passed
}

/// Per-scenario timings of the measured passes.
#[derive(Default)]
struct Timings {
    /// Wall times, seconds, per scenario.
    proposed: [Vec<f64>; 2],
    baseline: [Vec<f64>; 2],
    /// Last pass's engine reports, `[scenario][engine]`.
    last: Vec<Vec<SessionReport>>,
    deviation: [f64; 2],
}

/// One pass: every scenario, the proposed engine `repeats` times and then
/// the baseline once, each run alone.
fn pass(
    tracer: &mut Tracer,
    host: &mut HostSpeed,
    report: &mut Report,
    timings: &mut Timings,
    scenarios: &[(&'static str, ScenarioConfig); 2],
    order: [usize; 2],
    repeats: usize,
) {
    let mut last = vec![Vec::new(), Vec::new()];
    let [state_space, newton] = engines();
    for s in order {
        let (label, config) = &scenarios[s];
        let proposed: Vec<EngineRun> = (0..repeats)
            .filter_map(|_| attempt(tracer, host, report, label, config, state_space))
            .collect();
        let Some(baseline) = attempt(tracer, host, report, label, config, newton) else {
            continue;
        };
        let Some(reference) = proposed.last() else { continue };
        let deviation = reference
            .terminals
            .max_deviation(&baseline.terminals, reference.storage_net, DEVIATION_SAMPLES)
            .unwrap_or(f64::INFINITY);
        let pole_re = reference.report.engine_stats.state_space.binding_pole[0];
        let accurate =
            deviation_check(report, label, deviation) & pole_check(report, label, pole_re);
        if !accurate {
            report.failed += 1;
        }
        timings.deviation[s] = timings.deviation[s].max(deviation);
        for run in &proposed {
            record_counters(report, label, &run.report, &baseline.report);
            timings.proposed[s].push(secs(run.run));
        }
        timings.baseline[s].push(secs(baseline.run));
        last[s] = vec![reference.report.clone(), baseline.report];
    }
    timings.last = last;
}

/// One engine run, counted as an attempted operation; an engine error
/// counts as a failed one.
fn attempt(
    tracer: &mut Tracer,
    host: &mut HostSpeed,
    report: &mut Report,
    label: &'static str,
    config: &ScenarioConfig,
    engine: SimulationEngine,
) -> Option<EngineRun> {
    report.attempted += 1;
    let run = tracer.span(
        "table2.engine_run",
        || label.into(),
        |t| run_engine(t, host, label, config, engine),
    );
    run.map_err(|err| {
        report.failed += 1;
        report.check(format!("{label}: engine run"), false, err.to_string());
    })
    .ok()
}

fn record_counters(
    report: &mut Report,
    label: &str,
    proposed: &SessionReport,
    baseline: &SessionReport,
) {
    let solver = &proposed.engine_stats.state_space;
    let nr = &baseline.engine_stats.baseline;
    let mut counters: Vec<(String, usize)> = vec![
        ("solver.steps".into(), solver.steps),
        ("solver.linearisations".into(), solver.linearisations),
        ("solver.factorisations".into(), solver.factorisations),
        ("solver.cached_solves".into(), solver.cached_solves),
        ("solver.stability_updates".into(), solver.stability_updates),
        ("solver.stiff_exact_steps".into(), solver.stiff_exact_steps),
        ("solver.constant_stamps_skipped".into(), solver.constant_stamps_skipped),
        ("solver.pwl_stamps_skipped".into(), solver.pwl_stamps_skipped),
        ("baseline.steps".into(), nr.steps),
        ("baseline.newton_iterations".into(), nr.newton_iterations),
        ("baseline.factorisations".into(), nr.factorisations),
        ("mixed.digital_events.proposed".into(), proposed.digital_events as usize),
        ("mixed.control_events.proposed".into(), proposed.control_events.len()),
        ("mixed.digital_events.baseline".into(), baseline.digital_events as usize),
        ("mixed.control_events.baseline".into(), baseline.control_events.len()),
    ];
    for (order, steps) in solver.steps_by_order.iter().enumerate() {
        counters.push((format!("solver.steps_by_order.{}", order + 1), *steps));
    }
    for (name, value) in counters {
        report.counter(format!("{label}.{name}"), value as u64);
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (a scenario that cannot start).
pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let scenarios = scenarios(options.size);
    // The seed orders the scenarios within each pass; the inputs themselves
    // are the paper's, so every counter is seed-independent.
    let order = if options.seed.is_multiple_of(2) { [0, 1] } else { [1, 0] };

    // Warm-up: a set-up round, then one pass at short spans, untimed.
    let mut host = HostSpeed::new(1);
    setup_round(&scenarios)?;
    let warm: Vec<ScenarioConfig> =
        scenarios.iter().map(|(_, config)| table2_config(config.clone(), 0.25)).collect();
    for config in &warm {
        for engine in engines() {
            run_engine(&mut Tracer::new(false), &mut host, "warm-up", config, engine)
                .map_err(|err| format!("warm-up: {err}"))?;
        }
    }

    let (min_passes, repeats) = match options.size {
        Size::Full => (3, PROPOSED_REPEATS),
        Size::Toy => (1, 1),
    };
    let budget = if options.trace { options.seconds / 2.0 } else { options.seconds };
    let mut untraced = Timings::default();
    let mut tracer = Tracer::new(false);
    // Set-up rounds between passes, so they sample the whole run.
    let (mut rounds, mut starts) = (Vec::new(), Vec::new());
    let pass_walls = measure_for(budget, min_passes, || -> Result<(), String> {
        pass(&mut tracer, &mut host, &mut report, &mut untraced, &scenarios, order, repeats);
        for _ in 0..SETUP_ROUNDS_PER_PASS {
            let round = setup_round(&scenarios)?;
            rounds.push(round.iter().sum::<f64>());
            starts.extend(round);
        }
        Ok(())
    })?;
    let untraced_result = host.normalise(proposed_time(&untraced));
    // Engine runs per second of a pass built from each engine's median run.
    let pass_s = (0..2)
        .map(|s| repeats as f64 * median(&untraced.proposed[s]) + median(&untraced.baseline[s]))
        .sum::<f64>();
    let ops_per_s = (2 * (repeats + 1)) as f64 / host.normalise(pass_s);
    report.end_to_end.insert("setup_s", host.normalise(median(&rounds)));
    report.end_to_end.insert("result_ms", untraced_result * 1e3);
    report.end_to_end.insert("ops_per_s", ops_per_s);
    report.notes.push(format!(
        "setup_s = {:.7} s normalised (median of n={} rounds of the four Simulation::start calls, between passes: wall {:.7} s, p10 {:.7} s)",
        host.normalise(median(&rounds)),
        rounds.len(),
        median(&rounds),
        fast_decile(&rounds)
    ));
    report.notes.push(format!(
        "result_ms = {:.3} ms normalised (wall {:.4} s: median per scenario {:.4} + {:.4} s); ops_per_s = {ops_per_s:.4} engine runs/s normalised; median calibration {:.4} ms over n={} (reference {:.4} ms)",
        untraced_result * 1e3,
        proposed_time(&untraced),
        median(&untraced.proposed[0]),
        median(&untraced.proposed[1]),
        host.median_s() * 1e3,
        host.count(),
        crate::measure::CALIBRATION_REFERENCE_S * 1e3
    ));

    let mut timings = untraced;
    if options.trace {
        let mut traced = Timings::default();
        let mut tracer = Tracer::new(true);
        let mut traced_host = HostSpeed::new(1);
        measure_for(budget, min_passes, || -> Result<(), String> {
            pass(
                &mut tracer,
                &mut traced_host,
                &mut report,
                &mut traced,
                &scenarios,
                order,
                repeats,
            );
            Ok(())
        })?;
        let traced_result = traced_host.normalise(proposed_time(&traced));
        report.layers.insert("trace.overhead_frac", traced_result / untraced_result - 1.0);
        crate::write_trace(&mut report, &tracer, options)?;
        timings = traced;
    }

    summarise(&mut report, &timings, median(&starts), pass_walls.len());
    Ok(report)
}

/// One set-up round: every `Simulation::start` of a pass. Returns each
/// start's wall time, seconds.
fn setup_round(scenarios: &[(&'static str, ScenarioConfig); 2]) -> Result<Vec<f64>, String> {
    let mut starts = Vec::new();
    for (label, config) in scenarios {
        for engine in engines() {
            let simulation = Simulation::from_config(config.clone()).engine(engine);
            let clock = Instant::now();
            let session = simulation.start().map_err(|err| format!("{label}: {err}"))?;
            starts.push(secs(clock.elapsed()));
            drop(session);
        }
    }
    Ok(starts)
}

/// The proposed engine's wall time for both scenarios: the sum of each
/// scenario's median over every run.
fn proposed_time(timings: &Timings) -> f64 {
    median(&timings.proposed[0]) + median(&timings.proposed[1])
}

fn pass_sums(runs: &[Vec<f64>; 2]) -> Vec<f64> {
    runs[0].iter().zip(&runs[1]).map(|(a, b)| a + b).collect()
}

fn summarise(report: &mut Report, timings: &Timings, start_s: f64, passes: usize) {
    let (proposed_passes, baseline_passes) =
        (pass_sums(&timings.proposed), pass_sums(&timings.baseline));
    let proposed: Vec<f64> = (0..2).map(|s| median(&timings.proposed[s])).collect();
    let baseline: Vec<f64> = (0..2).map(|s| median(&timings.baseline[s])).collect();
    let speedup = (0..2).map(|s| baseline[s] / proposed[s]).fold(f64::INFINITY, f64::min);
    report.notes.push(format!(
        "hygiene: engines timed one after the other on one thread (no run_batch); warm-up pass at 0.25 s spans; {passes} untraced passes"
    ));
    let list = |values: &[f64]| -> String {
        values.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" ")
    };
    report.notes.push(format!(
        "table2.proposed_s = {:.4} s (median; n={} runs of both scenarios: {}; per scenario median {:.4} + {:.4}, fast decile {:.4} + {:.4} over n={} runs each)",
        median(&proposed_passes),
        proposed_passes.len(),
        list(&proposed_passes),
        proposed[0],
        proposed[1],
        fast_decile(&timings.proposed[0]),
        fast_decile(&timings.proposed[1]),
        timings.proposed[0].len()
    ));
    report.notes.push(format!(
        "table2.baseline_s = {:.4} s (median of n={} runs of both scenarios: {}; per scenario {:.4} + {:.4})",
        median(&baseline_passes),
        baseline_passes.len(),
        list(&baseline_passes),
        baseline[0],
        baseline[1]
    ));
    report
        .notes
        .push(format!("table2.speedup = {speedup:.3} (min over scenarios of baseline/proposed)"));
    report.notes.push(format!(
        "table2.max_dev_v = {:.3e} / {:.3e} V (limit {MAX_DEVIATION_V})",
        timings.deviation[0], timings.deviation[1]
    ));

    let layers = &mut report.layers;
    layers.insert("bench.threads_used", 1.0);
    layers.insert("table2.proposed_s", median(&proposed_passes));
    layers.insert("table2.baseline_s", median(&baseline_passes));
    layers.insert("table2.speedup", speedup);
    layers.insert("table2.max_dev_v", timings.deviation[0].max(timings.deviation[1]));
    layers.insert("session.start_us", start_s * 1e6);
    if timings.last.iter().any(Vec::is_empty) {
        return;
    }
    let solvers: Vec<_> =
        timings.last.iter().map(|runs| runs[0].engine_stats.state_space).collect();
    let nrs: Vec<_> = timings.last.iter().map(|runs| runs[1].engine_stats.baseline).collect();
    let sum = |f: &dyn Fn(usize) -> usize| (f(0) + f(1)) as f64;
    let steps = sum(&|s| solvers[s].steps);
    let nr_steps = sum(&|s| nrs[s].steps);
    layers.insert("session.ns_per_step", (proposed[0] + proposed[1]) * 1e9 / steps);
    layers.insert("session.ns_per_step.scenario1", proposed[0] * 1e9 / solvers[0].steps as f64);
    layers.insert("session.ns_per_step.scenario2", proposed[1] * 1e9 / solvers[1].steps as f64);
    layers.insert("solver.steps", steps);
    layers.insert("solver.linearisations", sum(&|s| solvers[s].linearisations));
    layers.insert("solver.factorisations", sum(&|s| solvers[s].factorisations));
    layers.insert("solver.cached_solves", sum(&|s| solvers[s].cached_solves));
    layers.insert("solver.stability_updates", sum(&|s| solvers[s].stability_updates));
    for (k, name) in [
        "solver.steps_by_order.1",
        "solver.steps_by_order.2",
        "solver.steps_by_order.3",
        "solver.steps_by_order.4",
    ]
    .into_iter()
    .enumerate()
    {
        layers.insert(name, sum(&|s| solvers[s].steps_by_order[k]));
    }
    layers.insert("solver.stiff_exact_steps", sum(&|s| solvers[s].stiff_exact_steps));
    layers.insert("solver.constant_stamps_skipped", sum(&|s| solvers[s].constant_stamps_skipped));
    let pwl = sum(&|s| solvers[s].pwl_stamps_skipped);
    layers.insert("solver.pwl_stamps_skipped", pwl);
    layers.insert("solver.pwl_skip_ratio", pwl / steps);
    layers.insert("baseline.steps", nr_steps);
    let iterations = sum(&|s| nrs[s].newton_iterations);
    layers.insert("baseline.newton_iterations", iterations);
    layers.insert("baseline.factorisations", sum(&|s| nrs[s].factorisations));
    layers.insert("baseline.ns_per_step", (baseline[0] + baseline[1]) * 1e9 / nr_steps);
    layers.insert("baseline.iterations_per_step", iterations / nr_steps);
    let reports = timings.last.iter().flatten();
    let (digital, control) = reports
        .fold((0u64, 0usize), |(d, c), r| (d + r.digital_events, c + r.control_events.len()));
    layers.insert("mixed.digital_events", digital as f64);
    layers.insert("mixed.control_events", control as f64);
}
