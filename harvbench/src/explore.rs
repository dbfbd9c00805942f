//! `explore`: the default `repro explore` design study — multiplier stages ×
//! watchdog period × acceleration × pre-charge on scenario 1, 216 points —
//! on `nproc` work-stealing workers with warm starts on and the HVCK result
//! store written to a fresh file for every grid.

use std::time::Instant;

use harvsim_core::{Explorer, GridSpec, ScenarioConfig, Simulation, SweepParameter};

use crate::measure::{self, fast_decile, median, percentile, secs, HostSpeed, Scratch, Tracer};
use crate::{measure_for, Options, Report, Size};

/// Calibrations of the host's speed after each grid.
const CALIBRATIONS_PER_GRID: usize = 3;
/// Set-up samples after each grid; `setup_s` is their median.
const SETUP_PER_GRID: usize = 2;
/// Explorer constructions timed together in one set-up sample (one takes
/// microseconds, so a single one is at the clock's resolution).
const SETUP_BATCH: u32 = 200;

/// The design study's grid. The seed is the spec's subsample seed: with every
/// point kept it changes the grid digest stamped into the result store, not
/// the points, so every counter is seed-independent.
pub fn spec(size: Size, seed: u64) -> GridSpec {
    let axis = |label: &str| SweepParameter::from_label(label).expect("known sweep axis");
    let mut base = ScenarioConfig::scenario1();
    let spec = match size {
        Size::Full => {
            base.duration_s = 0.4;
            base.frequency_step_time_s = 0.08;
            GridSpec::new(base)
                .axis(axis("acc"), &[0.45, 0.6, 0.75, 0.9])
                .axis(axis("stages"), &[3.0, 4.0, 5.0])
                .axis(axis("wdt"), &[0.15, 0.30, 0.45])
                .axis(axis("v0"), &[2.0, 2.2, 2.4, 2.6, 2.8, 3.0])
        }
        Size::Toy => {
            base.duration_s = 0.1;
            base.frequency_step_time_s = 0.05;
            GridSpec::new(base).axis(axis("stages"), &[3.0, 4.0]).axis(axis("v0"), &[2.4, 2.6])
        }
    };
    spec.subsample(1.0, seed)
}

/// Records the point-accounting checks of one grid run.
pub fn accounting_check(
    report: &mut Report,
    offered: usize,
    completed: usize,
    failed: usize,
    skipped: usize,
) -> bool {
    let balanced = offered == completed + failed + skipped;
    report.check(
        "explore: offered == completed + failed + skipped",
        balanced,
        format!("{offered} vs {completed} + {failed} + {skipped}"),
    );
    report.check("explore: no failed points", failed == 0, format!("{failed} failed"));
    balanced && failed == 0
}

#[derive(Default)]
struct Grids {
    walls: Vec<f64>,
    point_walls: Vec<f64>,
    engine_s: f64,
    steps: usize,
    points: usize,
    steals: Vec<f64>,
    busy: Vec<f64>,
    threads_used: usize,
    store_bytes: u64,
    last_counts: (usize, usize),
}

fn grid(
    options: &Options,
    scratch: &Scratch,
    workers: usize,
    host: &mut HostSpeed,
    tracer: &mut Tracer,
    report: &mut Report,
    grids: &mut Grids,
) -> Result<(), String> {
    let index = grids.walls.len();
    let path = scratch.path().join(format!("grid-{index}.hvck"));
    let explorer = Explorer::new(spec(options.size, options.seed)).workers(workers).store(&path);
    let clock = Instant::now();
    let outcome = tracer.span("explore.run", || format!("grid-{index}"), |_| explorer.run());
    let wall = secs(clock.elapsed());
    for _ in 0..CALIBRATIONS_PER_GRID {
        host.calibrate();
    }
    let result = outcome.map_err(|err| format!("explore grid: {err}"))?;
    report.attempted += result.offered as u64;
    report.failed += (result.offered - result.completed) as u64;
    accounting_check(report, result.offered, result.completed, result.failed, result.skipped);
    let steps: usize = result.rows.iter().filter_map(|row| row.metrics()).map(|m| m.steps).sum();
    report.counter("explore.warm_hits", result.warm_hits as u64);
    report.counter("explore.cold_starts", result.cold_starts as u64);
    report.counter("explore.steps_total", steps as u64);
    let engine_s: f64 = result.rows.iter().filter_map(|row| row.metrics()).map(|m| m.wall_s).sum();
    grids.point_walls.extend(result.rows.iter().filter_map(|row| row.metrics()).map(|m| m.wall_s));
    grids.walls.push(wall);
    grids.engine_s += engine_s;
    grids.steps += steps;
    grids.points += result.completed;
    grids.steals.push(result.steals as f64);
    grids.busy.push(engine_s / (result.threads_used.max(1) as f64 * wall));
    grids.threads_used = grids.threads_used.max(result.threads_used);
    grids.store_bytes = std::fs::metadata(&path).map_or(0, |meta| meta.len());
    grids.last_counts = (result.warm_hits, result.cold_starts);
    std::fs::remove_file(&path).map_err(|err| format!("remove {}: {err}", path.display()))?;
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures: no scratch directory, a grid that cannot run at all.
pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let scratch = Scratch::new("explore").map_err(|err| format!("scratch directory: {err}"))?;
    let workers = measure::nproc();

    // Set-up: constructing the explorer (grid spec, worker count, store
    // path), sampled after every grid so the samples cover the whole run.
    let store_path = scratch.path().join("grid.hvck");
    let setup_sample = || {
        let clock = Instant::now();
        for _ in 0..SETUP_BATCH {
            std::hint::black_box(
                Explorer::new(spec(options.size, options.seed)).workers(workers).store(&store_path),
            );
        }
        secs(clock.elapsed()) / f64::from(SETUP_BATCH)
    };
    let mut setup = Vec::new();

    // Warm-up: the toy grid once, untimed.
    Explorer::new(spec(Size::Toy, options.seed))
        .workers(workers)
        .store(&store_path)
        .run()
        .map_err(|err| format!("warm-up grid: {err}"))?;
    let _ = std::fs::remove_file(&store_path);

    let min_grids = match options.size {
        Size::Full => 3,
        Size::Toy => 1,
    };
    let budget = if options.trace { options.seconds / 2.0 } else { options.seconds };
    let mut untraced = Grids::default();
    let mut tracer = Tracer::new(false);
    let mut host = HostSpeed::new(workers);
    measure_for(budget, min_grids, || {
        grid(options, &scratch, workers, &mut host, &mut tracer, &mut report, &mut untraced)?;
        setup.extend((0..SETUP_PER_GRID).map(|_| setup_sample()));
        Ok::<(), String>(())
    })?;
    report.end_to_end.insert("setup_s", host.normalise(median(&setup)));
    report.notes.push(format!(
        "setup_s = {:.3e} s normalised (median of n={} samples of {SETUP_BATCH} Explorer constructions, between grids: wall {:.3e} s, p10 {:.3e} s)",
        host.normalise(median(&setup)),
        setup.len(),
        median(&setup),
        fast_decile(&setup)
    ));
    let points_per_grid = untraced.points as f64 / untraced.walls.len() as f64;
    let grid_s = host.normalise(median(&untraced.walls));
    report.end_to_end.insert("result_ms", grid_s * 1e3);
    report.end_to_end.insert("ops_per_s", points_per_grid / grid_s);
    // Per-layer throughput: points over the median grid's wall time.
    let points_per_s = points_per_grid / median(&untraced.walls);
    report.layers.insert("explore.points_per_s", points_per_s);
    report.notes.push(format!(
        "result_ms = {:.3} ms normalised (median of n={} grids); ops_per_s = {:.3} points/s normalised; median calibration {:.4} ms on {workers} threads over n={} (reference {:.4} ms)",
        grid_s * 1e3,
        untraced.walls.len(),
        points_per_grid / grid_s,
        host.median_s() * 1e3,
        host.count(),
        measure::CALIBRATION_REFERENCE_S * 1e3
    ));

    let untraced_summary = (untraced.points, untraced.walls.len(), median(&untraced.walls));
    let mut grids = untraced;
    if options.trace {
        let mut traced = Grids::default();
        let mut tracer = Tracer::new(true);
        let mut traced_host = HostSpeed::new(workers);
        measure_for(budget, min_grids, || {
            grid(
                options,
                &scratch,
                workers,
                &mut traced_host,
                &mut tracer,
                &mut report,
                &mut traced,
            )
        })?;
        // Session start-up of every grid point, replayed through
        // `Simulation::start` (the explorer starts its sessions internally).
        let configs = spec(options.size, options.seed).sweep_grid().expand();
        for (index, config) in configs.into_iter().enumerate() {
            let simulation = Simulation::from_config(config);
            tracer
                .span("session.start", || format!("point-{index}"), |_| simulation.start())
                .map_err(|err| format!("point {index}: {err}"))?;
        }
        let overhead = traced_host.normalise(median(&traced.walls)) / grid_s - 1.0;
        report.layers.insert("trace.overhead_frac", overhead);
        report
            .layers
            .insert("session.start_us", median(&tracer.durations_ns("session.start")) * 1e-3);
        crate::write_trace(&mut report, &tracer, options)?;
        grids = traced;
    }

    let (untraced_points, untraced_grids, untraced_median) = untraced_summary;
    report.notes.push(format!(
        "hygiene: {workers} explorer workers (nproc {}); warm-up toy grid; fresh HVCK store per grid",
        measure::nproc()
    ));
    report.notes.push(format!(
        "explore.points_per_s = {points_per_s:.2} 1/s (median grid wall; {untraced_points} points in n={untraced_grids} grids); grid wall p10 {:.4} s, median {untraced_median:.4} s",
        fast_decile(&grids.walls),
    ));
    let walls: Vec<String> = grids.walls.iter().map(|wall| format!("{wall:.3}")).collect();
    report.notes.push(format!("explore grid walls [s]: {}", walls.join(" ")));
    let (warm, cold) = grids.last_counts;
    report.notes.push(format!(
        "explore: warm_hits {warm}, cold_starts {cold}, steps_total {}, threads_used {}",
        grids.steps / grids.walls.len().max(1),
        grids.threads_used
    ));

    let ms: Vec<f64> = grids.point_walls.iter().map(|s| s * 1e3).collect();
    let layers = &mut report.layers;
    layers.insert("bench.threads_used", grids.threads_used as f64);
    layers.insert("explore.grids", grids.walls.len() as f64);
    layers.insert("explore.point_wall_ms_p50", median(&ms));
    layers.insert("explore.point_wall_ms_p95", percentile(&ms, 95.0));
    layers.insert("explore.steps_total", (grids.steps / grids.walls.len().max(1)) as f64);
    layers.insert("explore.warm_hits", warm as f64);
    layers.insert("explore.cold_starts", cold as f64);
    layers.insert("explore.steals", median(&grids.steals));
    layers.insert("explore.threads_used", grids.threads_used as f64);
    layers.insert("explore.worker_busy_frac", median(&grids.busy));
    layers.insert("explore.store_bytes", grids.store_bytes as f64);
    layers.insert("session.ns_per_step", grids.engine_s * 1e9 / grids.steps.max(1) as f64);
    layers.insert("solver.steps", (grids.steps / grids.walls.len().max(1)) as f64);
    Ok(report)
}
