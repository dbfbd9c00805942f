//! Exactness pins for the design-space explorer (DESIGN.md §12).
//!
//! Points that differ only in controller settings share their analogue
//! prefix: the explorer runs it once and forks the rest off it
//! (`Session::fork`). Two contracts are pinned here, on a grid with a `wdt`
//! (controller) axis and one analogue axis:
//!
//! 1. **Scheduler independence** — the same `GridSpec` + seed produces
//!    bit-identical per-point results, fork counters and Pareto front
//!    whether the grid runs on 1 worker or on a steal-heavy pool.
//! 2. **Fork exactness** — every row, forked or not, is bit-identical to a
//!    standalone cold `Simulation::start` run of its point: same steps,
//!    same final state, same envelope and power figures.

use harvsim::{
    EnvelopeProbe, ExploreReport, Explorer, GridSpec, PointMetrics, PowerProbe, ScenarioConfig,
    Simulation, SweepParameter,
};

fn quick_base() -> ScenarioConfig {
    let mut base = ScenarioConfig::scenario1();
    base.duration_s = 0.06;
    base.frequency_step_time_s = 0.02;
    base
}

/// 4 fork groups × 3 watchdog periods — enough groups that a 4-worker pool
/// actually steals, and every group forks twice.
fn pinned_spec() -> GridSpec {
    GridSpec::new(quick_base())
        .axis(SweepParameter::AccelerationAmplitude, &[0.45, 0.55, 0.65, 0.75])
        .axis(SweepParameter::WatchdogPeriod, &[0.045, 0.02, 0.03])
}

fn assert_same_metrics(a: &PointMetrics, b: &PointMetrics, what: &str) {
    // Every deterministic field must match exactly; `wall_s` is the one
    // intentionally nondeterministic field (and exactly why the Pareto
    // front prices run cost in steps, not seconds).
    assert_eq!(a.steps, b.steps, "step count of {what} diverged");
    assert_eq!(a.energy_gain_j.to_bits(), b.energy_gain_j.to_bits(), "{what}: energy");
    assert_eq!(a.dip_v.to_bits(), b.dip_v.to_bits(), "{what}: dip");
    assert_eq!(a.v_first.to_bits(), b.v_first.to_bits(), "{what}: first sample");
    assert_eq!(a.v_last.to_bits(), b.v_last.to_bits(), "{what}: last sample");
    assert_eq!(a.rms_after_uw.to_bits(), b.rms_after_uw.to_bits(), "{what}: power RMS");
    assert_eq!(a.final_state.len(), b.final_state.len());
    for (xa, xb) in a.final_state.iter().zip(&b.final_state) {
        assert_eq!(xa.to_bits(), xb.to_bits(), "final state of {what} diverged");
    }
}

/// The point measured the way the explorer measures it, but from a session
/// of its own started at t = 0.
fn cold_reference(config: &ScenarioConfig) -> PointMetrics {
    let mut session = Simulation::from_config(config.clone()).start().unwrap();
    let harvester = session.harvester();
    let initial = harvester.initial_state(config.initial_supercap_voltage).unwrap();
    let initial_energy = harvester.stored_energy(&initial);
    let envelope = session.add_probe(EnvelopeProbe::terminal(harvester.storage_voltage_net()));
    let power = session.add_probe(PowerProbe::new(
        session.harvester().generator_voltage_net(),
        session.harvester().generator_current_net(),
        config.frequency_step_time_s,
        config.duration_s,
    ));
    session.run_to_end().unwrap();
    let report = session.report();
    let env = session.probe::<EnvelopeProbe>(envelope).unwrap();
    PointMetrics {
        energy_gain_j: session.harvester().stored_energy(&report.final_state) - initial_energy,
        dip_v: (env.first() - env.min()).max(0.0),
        wall_s: 0.0,
        steps: report.engine_stats.state_space.steps,
        v_first: env.first(),
        v_last: env.last(),
        rms_after_uw: session.probe::<PowerProbe>(power).unwrap().report().rms_after_uw,
        final_state: report.final_state.as_slice().to_vec(),
    }
}

fn assert_rows_match_cold_runs(report: &ExploreReport) {
    let configs = pinned_spec().sweep_grid().expand();
    assert_eq!(report.rows.len(), configs.len());
    for row in &report.rows {
        let reference = cold_reference(&configs[row.index]);
        assert_same_metrics(row.metrics().unwrap(), &reference, &row.label);
    }
}

#[test]
fn one_worker_and_a_steal_heavy_pool_agree_bit_for_bit() {
    let sequential = Explorer::new(pinned_spec()).workers(1).run().unwrap();
    let stolen = Explorer::new(pinned_spec()).workers(4).run().unwrap();

    assert_eq!(sequential.rows.len(), 12);
    assert_eq!(stolen.rows.len(), 12);
    assert_eq!(sequential.completed, 12);
    assert_eq!(stolen.completed, 12);
    // Group heads run from t = 0, both successors fork — on both schedules.
    assert_eq!(sequential.cold_starts, 4);
    assert_eq!(stolen.cold_starts, 4);
    assert_eq!(sequential.warm_hits, 8);
    assert_eq!(stolen.warm_hits, 8);
    assert_eq!(sequential.steps_executed, stolen.steps_executed);

    for (a, b) in sequential.rows.iter().zip(&stolen.rows) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.label, b.label);
        assert_eq!(a.values, b.values);
        assert_eq!(a.warm, b.warm, "forking of {} depends on the schedule", a.label);
        assert_same_metrics(a.metrics().unwrap(), b.metrics().unwrap(), &a.label);
    }
    assert_eq!(sequential.pareto_front, stolen.pareto_front);
    assert!(!sequential.pareto_front.is_empty());
}

#[test]
fn every_row_is_bit_identical_to_a_standalone_cold_run() {
    for workers in [1, 4] {
        let report = Explorer::new(pinned_spec()).workers(workers).run().unwrap();
        assert_eq!(report.warm_hits, 8, "the grid must actually fork");
        let row_steps: usize =
            report.rows.iter().filter_map(|row| row.metrics()).map(|m| m.steps).sum();
        assert!(
            report.steps_executed < row_steps,
            "forks must save steps: {} marched for {row_steps}",
            report.steps_executed
        );
        assert_rows_match_cold_runs(&report);
    }
}
