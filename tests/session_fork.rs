//! `Session::fork`: a session forked onto a configuration that differs only
//! in its controller settings continues bit-identically to a cold run of
//! that configuration, and every way a fork could stop being exact is
//! refused with a typed [`ForkRefusal`].

use harvsim::blocks::{FrequencyProfile, HarvesterParameters};
use harvsim::core::ProbeId;
use harvsim::{
    BaselineOptions, CoreError, EnvelopeProbe, ForkRefusal, Probe, ScenarioConfig, Session,
    Simulation, SimulationEngine, SolverOptions, TunableHarvester, VibrationExcitation,
    WaveformProbe,
};

const RECORD_INTERVAL: f64 = 2e-3;

/// A session with its probes' ids: the dense waveform, then the envelope of
/// the first terminal net.
type Run = (Session, Vec<ProbeId>);

/// The parent: an early watchdog, so the child's first wake-up is later.
fn parent_config() -> ScenarioConfig {
    let mut config = ScenarioConfig::scenario1();
    config.duration_s = 0.3;
    config.frequency_step_time_s = 0.05;
    config.controller.watchdog_period_s = 0.1;
    config.parameters.watchdog_period_s = 0.1;
    config.controller.energy_threshold_v = 2.0;
    config.controller.measurement_duration_s = 0.04;
    config.controller.tuning_rate_hz_per_s = 10.0;
    config.controller.tuning_update_interval_s = 0.02;
    config.label = Some("parent".into());
    config
}

/// The child: different controller settings throughout, same analogue model.
fn child_config() -> ScenarioConfig {
    let mut config = parent_config();
    config.controller.watchdog_period_s = 0.14;
    config.parameters.watchdog_period_s = 0.14;
    config.controller.measurement_duration_s = 0.03;
    config.controller.tuning_rate_hz_per_s = 20.0;
    config.label = Some("child".into());
    config
}

fn probes() -> Vec<Box<dyn Probe>> {
    vec![Box::new(WaveformProbe::new(RECORD_INTERVAL)), Box::new(EnvelopeProbe::terminal(0))]
}

fn start_with_probes(config: &ScenarioConfig) -> Run {
    let mut session = Simulation::from_config(config.clone()).start().unwrap();
    let ids = vec![
        session.add_probe(WaveformProbe::new(RECORD_INTERVAL)),
        session.add_probe(EnvelopeProbe::terminal(0)),
    ];
    (session, ids)
}

fn assert_same_run((a, ia): &Run, (b, ib): &Run, what: &str) {
    let (ra, rb) = (a.report(), b.report());
    assert!(ra.finished && rb.finished, "{what}: both runs finish");
    assert_eq!(ra.final_state, rb.final_state, "{what}: final state");
    assert_eq!(ra.engine_stats.state_space.steps, rb.engine_stats.state_space.steps, "{what}");
    assert_eq!(
        ra.engine_stats.state_space.steps_by_order, rb.engine_stats.state_space.steps_by_order,
        "{what}"
    );
    assert_eq!(ra.digital_events, rb.digital_events, "{what}: digital events");
    assert_eq!(ra.control_events, rb.control_events, "{what}: control actions");
    let (wa, wb) =
        (a.probe::<WaveformProbe>(ia[0]).unwrap(), b.probe::<WaveformProbe>(ib[0]).unwrap());
    assert_eq!(wa.states().times(), wb.states().times(), "{what}: sample times");
    for (i, (sa, sb)) in wa.states().states().iter().zip(wb.states().states()).enumerate() {
        assert_eq!(sa, sb, "{what}: state sample {i}");
    }
    let (ea, eb) =
        (a.probe::<EnvelopeProbe>(ia[1]).unwrap(), b.probe::<EnvelopeProbe>(ib[1]).unwrap());
    assert_eq!(ea.min().to_bits(), eb.min().to_bits(), "{what}: envelope");
    assert_eq!(ea.samples(), eb.samples(), "{what}: envelope samples");
}

#[test]
fn a_fork_continues_bit_identically_to_a_cold_run() {
    let mut cold = start_with_probes(&child_config());
    cold.0.run_to_end().unwrap();

    // Fork mid-segment, well before the parent's first wake-up at 0.1 s.
    let mut parent = start_with_probes(&parent_config());
    parent.0.run_until(0.061).unwrap();
    let mut forked = parent.0.fork(child_config(), probes()).unwrap();
    assert_eq!(forked.1.len(), 2);
    assert_eq!(forked.0.scenario_label(), Some("child"));
    assert_eq!(forked.0.time(), parent.0.time());
    forked.0.run_to_end().unwrap();
    assert_same_run(&forked, &cold, "forked at 0.061 s");

    // The parent is untouched by the fork and still finishes as its own
    // cold run does.
    parent.0.run_to_end().unwrap();
    let mut own = start_with_probes(&parent_config());
    own.0.run_to_end().unwrap();
    assert_same_run(&parent, &own, "parent after the fork");

    // Forking an unopened session is a cold start of the new configuration.
    let fresh = start_with_probes(&parent_config());
    let mut at_zero = fresh.0.fork(child_config(), probes()).unwrap();
    at_zero.0.run_to_end().unwrap();
    assert_same_run(&at_zero, &cold, "forked at t = 0");
}

#[test]
fn a_forked_session_checkpoints_and_restores_bit_identically() {
    let mut reference = start_with_probes(&child_config());
    reference.0.run_to_end().unwrap();
    let (mut parent, _) = start_with_probes(&parent_config());
    parent.run_until(0.05).unwrap();
    let (mut forked, _) = parent.fork(child_config(), probes()).unwrap();
    // Pause the fork mid-segment, then once more past its first wake-up.
    for pause in [0.09, 0.17] {
        forked.run_until(pause).unwrap();
        let bytes = forked.checkpoint().unwrap();
        let mut restored = Session::restore_with_probes(&bytes, probes()).unwrap();
        assert_eq!(restored.0.scenario_label(), Some("child"));
        restored.0.run_to_end().unwrap();
        assert_same_run(&restored, &reference, &format!("fork restored at {pause} s"));
    }
}

fn refusal(result: Result<Run, CoreError>) -> ForkRefusal {
    match result {
        Err(CoreError::Fork(refusal)) => refusal,
        Err(other) => panic!("expected a typed fork refusal, got {other}"),
        Ok(_) => panic!("the fork was not refused"),
    }
}

#[test]
fn inexact_forks_are_refused_typed() {
    let (mut parent, _) = start_with_probes(&parent_config());
    parent.run_until(0.05).unwrap();

    // Anything analogue differs: the pre-charge.
    let mut other = child_config();
    other.initial_supercap_voltage = 2.4;
    assert_eq!(refusal(parent.fork(other, probes())), ForkRefusal::AnalogueConfigDiffers);
    // ... or the engine options.
    let baseline =
        child_config().with_engine(SimulationEngine::NewtonRaphson(BaselineOptions::default()));
    assert_eq!(refusal(parent.fork(baseline, probes())), ForkRefusal::AnalogueConfigDiffers);

    // The new configuration wakes before the march could outrun its end.
    let mut early = child_config();
    early.controller.watchdog_period_s = 0.0502;
    match refusal(parent.fork(early, probes())) {
        ForkRefusal::PastSegmentEnd { segment_end_s, .. } => {
            assert!((segment_end_s - 0.0502).abs() < 1e-9, "{segment_end_s}");
        }
        other => panic!("expected PastSegmentEnd, got {other:?}"),
    }

    // The session's own segment end (the wake-up at 0.1 s) is within one
    // maximal step.
    let max_step = SolverOptions::default().max_step;
    while parent.time() + max_step <= 0.1 {
        parent.step().unwrap();
    }
    assert_eq!(parent.report().digital_events, 0);
    assert!(matches!(
        refusal(parent.fork(child_config(), probes())),
        ForkRefusal::PastSegmentEnd { .. }
    ));

    // A digital event has been processed.
    parent.run_until(0.12).unwrap();
    assert_eq!(refusal(parent.fork(child_config(), probes())), ForkRefusal::DigitalEventProcessed);

    // Only the state-space engine forks.
    let baseline_config =
        parent_config().with_engine(SimulationEngine::NewtonRaphson(BaselineOptions::default()));
    let mut baseline = Simulation::from_config(baseline_config.clone()).start().unwrap();
    baseline.run_until(0.01).unwrap();
    assert_eq!(refusal(baseline.fork(baseline_config, Vec::new())), ForkRefusal::NotStateSpace);

    // A session over an ad-hoc harvester has no configuration to fork from.
    let params = HarvesterParameters::practical_device();
    let excitation = VibrationExcitation::new(
        params.acceleration_amplitude,
        FrequencyProfile::Step { initial_hz: 70.0, final_hz: 71.0, step_time_s: 0.05 },
    )
    .unwrap();
    let harvester = TunableHarvester::new(params, excitation).unwrap();
    let config = parent_config();
    let ad_hoc = Session::start(harvester, config.controller, config.engine, 0.3, 2.5).unwrap();
    assert_eq!(refusal(ad_hoc.fork(child_config(), Vec::new())), ForkRefusal::AdHocSession);

    // Refusals display as fork errors.
    let err = CoreError::from(ForkRefusal::DigitalEventProcessed);
    assert!(err.to_string().contains("fork refused"), "{err}");
}
