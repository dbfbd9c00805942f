//! Speed and accuracy comparison between the proposed technique and the
//! Newton–Raphson baseline (the data behind the paper's Tables I and II).

use std::time::Duration;

use crate::baseline::BaselineOptions;
use crate::measurement::{compare_supercap_voltage, WaveformComparison};
use crate::mixed::SimulationEngine;
use crate::scenario::{ScenarioConfig, ScenarioResult};
use crate::solver::SolverOptions;
use crate::CoreError;

/// Outcome of running the same scenario with both engines.
#[derive(Debug)]
pub struct ComparisonReport {
    /// The scenario that was simulated.
    pub config: ScenarioConfig,
    /// Result of the proposed linearised state-space engine.
    pub proposed: ScenarioResult,
    /// Result of the Newton–Raphson baseline.
    pub baseline: ScenarioResult,
    /// Wall-clock time of the proposed engine's analogue solver.
    pub proposed_cpu: Duration,
    /// Wall-clock time of the baseline's analogue solver.
    pub baseline_cpu: Duration,
    /// Supercapacitor-voltage deviation between the two engines.
    pub accuracy: WaveformComparison,
}

impl ComparisonReport {
    /// Speed-up factor (baseline CPU time / proposed CPU time).
    pub fn speedup(&self) -> f64 {
        let proposed = self.proposed_cpu.as_secs_f64().max(1e-9);
        self.baseline_cpu.as_secs_f64() / proposed
    }
}

/// Runs the proposed engine and the baseline on the same scenario.
#[derive(Debug, Clone)]
pub struct SpeedComparison {
    solver_options: SolverOptions,
    baseline_options: BaselineOptions,
}

impl SpeedComparison {
    /// Creates a comparison with explicit engine options.
    ///
    /// # Errors
    ///
    /// Propagates option validation failures.
    pub fn new(
        solver_options: SolverOptions,
        baseline_options: BaselineOptions,
    ) -> Result<Self, CoreError> {
        solver_options.validate()?;
        baseline_options.validate()?;
        Ok(SpeedComparison { solver_options, baseline_options })
    }

    /// Creates a comparison with the default options of both engines.
    pub fn with_defaults() -> Self {
        SpeedComparison {
            solver_options: SolverOptions::default(),
            baseline_options: BaselineOptions::default(),
        }
    }

    /// The proposed engine's options.
    pub fn solver_options(&self) -> &SolverOptions {
        &self.solver_options
    }

    /// The baseline's options.
    pub fn baseline_options(&self) -> &BaselineOptions {
        &self.baseline_options
    }

    /// Runs each scenario's head-to-head comparison on its own OS thread and
    /// returns the reports in input order — a throughput runner: concurrent
    /// comparisons share the host, so `repro table2` times its headline rows
    /// one engine at a time instead. Within one worker the proposed
    /// engine and the baseline still run back to back, so each engine's
    /// wall-clock time is measured exactly as in [`SpeedComparison::run`];
    /// with fewer than two hardware threads (or a single scenario) the
    /// comparisons simply run sequentially, because oversubscribing one core
    /// would distort the CPU-time ratios the speed-up records gate on. The
    /// fallback is recorded, not silent: each report's proposed-engine
    /// [`crate::SolverStats::threads_used`] carries the worker count actually
    /// used (`1` = sequential), so CI timings from single-core runners are
    /// attributable.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures from any scenario; the first error (in
    /// input order) wins, wrapped in a [`CoreError::Scenario`] naming the
    /// originating configuration's label.
    pub fn run_batch(
        &self,
        scenarios: &[ScenarioConfig],
    ) -> Result<Vec<ComparisonReport>, CoreError> {
        let (results, threads_used) = crate::scenario::parallel_map(scenarios, |scenario| {
            self.run(scenario).map_err(|err| err.for_scenario(scenario.effective_label()))
        });
        let mut reports: Vec<ComparisonReport> = results.into_iter().collect::<Result<_, _>>()?;
        for report in &mut reports {
            report.proposed.result.engine_stats.state_space.threads_used = threads_used;
        }
        Ok(reports)
    }

    /// Runs `scenario` with both engines and assembles the report.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures from either engine.
    pub fn run(&self, scenario: &ScenarioConfig) -> Result<ComparisonReport, CoreError> {
        let proposed_config =
            scenario.clone().with_engine(SimulationEngine::StateSpace(self.solver_options));
        let baseline_config =
            scenario.clone().with_engine(SimulationEngine::NewtonRaphson(self.baseline_options));

        let proposed = proposed_config.run()?;
        let baseline = baseline_config.run()?;

        let proposed_cpu = proposed.result.engine_stats.state_space.cpu_time;
        let baseline_cpu = baseline.result.engine_stats.baseline.cpu_time;
        let accuracy = compare_supercap_voltage(&proposed, &baseline, 400)?;

        Ok(ComparisonReport {
            config: scenario.clone(),
            proposed,
            baseline,
            proposed_cpu,
            baseline_cpu,
            accuracy,
        })
    }
}

impl Default for SpeedComparison {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let comparison = SpeedComparison::with_defaults();
        assert_eq!(comparison.solver_options().ab_order, 4);
        assert!(comparison.solver_options().adaptive_order);
        assert!(comparison.baseline_options().step > 0.0);
        assert!(SpeedComparison::new(
            SolverOptions { ab_order: 0, ..Default::default() },
            BaselineOptions::default()
        )
        .is_err());
        let default_comparison = SpeedComparison::default();
        assert_eq!(default_comparison.solver_options().ab_order, 4);
    }

    /// The batched comparison returns one report per scenario in input order
    /// and fails as a whole only on per-run errors, not on thread plumbing.
    #[test]
    fn batched_comparisons_cover_every_scenario() {
        let mut first = ScenarioConfig::scenario1();
        first.duration_s = 0.15;
        first.frequency_step_time_s = 0.05;
        let mut second = ScenarioConfig::scenario2();
        second.duration_s = 0.2;
        second.frequency_step_time_s = 0.05;
        let comparison = SpeedComparison::with_defaults();
        let reports = comparison.run_batch(&[first, second]).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].config.duration_s, 0.15);
        assert_eq!(reports[1].config.duration_s, 0.2);
        for report in &reports {
            assert!(report.accuracy.max_deviation < 0.05);
            assert!(report.proposed.result.engine_stats.state_space.steps > 0);
            assert!(report.baseline.result.engine_stats.baseline.steps > 0);
        }
        // A bad scenario in the batch surfaces as an error.
        let mut bad = ScenarioConfig::scenario1();
        bad.duration_s = 0.0;
        assert!(comparison.run_batch(&[bad]).is_err());
    }

    /// A very short head-to-head run: the proposed engine must agree with the
    /// baseline on the supercapacitor voltage and must not be slower.
    #[test]
    fn short_head_to_head_agrees_and_is_faster() {
        let mut scenario = ScenarioConfig::scenario1();
        scenario.duration_s = 0.2;
        scenario.frequency_step_time_s = 0.05;
        let comparison = SpeedComparison::with_defaults();
        let report = comparison.run(&scenario).unwrap();
        // Accuracy: the two engines track each other closely on the store voltage.
        assert!(
            report.accuracy.max_deviation < 0.05,
            "max deviation {} V",
            report.accuracy.max_deviation
        );
        // Speed: the explicit engine avoids the per-step Newton iteration, so it
        // must come out ahead even on this tiny span.
        assert!(report.speedup() > 1.0, "speed-up {}", report.speedup());
        assert!(report.proposed_cpu.as_nanos() > 0);
        assert!(report.baseline_cpu > report.proposed_cpu);
    }
}
