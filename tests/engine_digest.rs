//! Pinned engine digests: the FNV-1a of the final state plus every
//! deterministic work counter, for short spans of both paper scenarios on
//! both analogue engines.
//!
//! The engines are deterministic, so these values change only when the
//! arithmetic changes. A performance refactor that claims bit-identity must
//! leave every line below untouched; a deliberate numerical change updates
//! the constants and says why in its change log.

use harvsim::{ScenarioConfig, Simulation, SimulationEngine};

/// FNV-1a over the little-endian bytes of the final state vector (the same
/// witness the server reports as `final_state_fnv`).
fn state_fnv(state: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for value in state {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Everything a run pins: the state digest and the work counters.
#[derive(Debug, Default, PartialEq, Eq)]
struct Digest {
    final_state_fnv: u64,
    steps: usize,
    linearisations: usize,
    factorisations: usize,
    cached_solves: usize,
    stability_updates: usize,
    steps_by_order: [usize; 4],
    stiff_exact_steps: usize,
    constant_stamps_skipped: usize,
    pwl_stamps_skipped: usize,
    baseline_steps: usize,
    newton_iterations: usize,
    baseline_factorisations: usize,
    digital_events: u64,
    control_events: usize,
}

/// A short span with the frequency step and a watchdog wake inside it, so
/// the run crosses diode conduction changes, stability refreshes and at
/// least one digital control action.
fn short_span(mut scenario: ScenarioConfig, newton_raphson: bool) -> ScenarioConfig {
    scenario.duration_s = 0.3;
    scenario.frequency_step_time_s = 0.05;
    scenario.controller.watchdog_period_s = 0.1;
    scenario.controller.measurement_duration_s = 0.05;
    scenario.controller.energy_threshold_v = 2.0;
    if newton_raphson {
        scenario.engine = SimulationEngine::NewtonRaphson(Default::default());
    }
    scenario
}

fn digest(scenario: ScenarioConfig) -> Digest {
    let mut session = Simulation::from_config(scenario).start().expect("session starts");
    session.run_to_end().expect("run completes");
    let report = session.report();
    let proposed = report.engine_stats.state_space;
    let baseline = report.engine_stats.baseline;
    Digest {
        final_state_fnv: state_fnv(report.final_state.as_slice()),
        steps: proposed.steps,
        linearisations: proposed.linearisations,
        factorisations: proposed.factorisations,
        cached_solves: proposed.cached_solves,
        stability_updates: proposed.stability_updates,
        steps_by_order: proposed.steps_by_order,
        stiff_exact_steps: proposed.stiff_exact_steps,
        constant_stamps_skipped: proposed.constant_stamps_skipped,
        pwl_stamps_skipped: proposed.pwl_stamps_skipped,
        baseline_steps: baseline.steps,
        newton_iterations: baseline.newton_iterations,
        baseline_factorisations: baseline.factorisations,
        digital_events: report.digital_events,
        control_events: report.control_events.len(),
    }
}

#[test]
fn scenario1_state_space_digest_is_pinned() {
    let expected = Digest {
        final_state_fnv: 6858584910498974516,
        steps: 8504,
        linearisations: 8509,
        factorisations: 3,
        cached_solves: 8506,
        stability_updates: 37,
        steps_by_order: [5, 5, 202, 8292],
        stiff_exact_steps: 8504,
        constant_stamps_skipped: 8499,
        pwl_stamps_skipped: 752,
        digital_events: 5,
        control_events: 5,
        ..Digest::default()
    };
    assert_eq!(digest(short_span(ScenarioConfig::scenario1(), false)), expected);
}

#[test]
fn scenario2_state_space_digest_is_pinned() {
    let expected = Digest {
        final_state_fnv: 12392759153782204579,
        steps: 5415,
        linearisations: 5420,
        factorisations: 3,
        cached_solves: 5417,
        stability_updates: 8,
        steps_by_order: [5, 5, 5, 5400],
        stiff_exact_steps: 5415,
        constant_stamps_skipped: 5410,
        pwl_stamps_skipped: 795,
        digital_events: 5,
        control_events: 5,
        ..Digest::default()
    };
    assert_eq!(digest(short_span(ScenarioConfig::scenario2(), false)), expected);
}

#[test]
fn scenario1_newton_raphson_digest_is_pinned() {
    let expected = Digest {
        final_state_fnv: 16911071441582195553,
        baseline_steps: 6000,
        newton_iterations: 19937,
        baseline_factorisations: 13937,
        digital_events: 5,
        control_events: 5,
        ..Digest::default()
    };
    assert_eq!(digest(short_span(ScenarioConfig::scenario1(), true)), expected);
}

#[test]
fn scenario2_newton_raphson_digest_is_pinned() {
    let expected = Digest {
        final_state_fnv: 14128357391080393117,
        baseline_steps: 6000,
        newton_iterations: 17869,
        baseline_factorisations: 11869,
        digital_events: 5,
        control_events: 5,
        ..Digest::default()
    };
    assert_eq!(digest(short_span(ScenarioConfig::scenario2(), true)), expected);
}
