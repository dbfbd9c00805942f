//! Design-space exploration — the use case that motivates the paper's fast
//! simulation: "development of an automated design approach by which the best
//! topology and optimal parameters of energy harvester are obtained iteratively
//! using multiple simulations".
//!
//! This example drives the `explore` subsystem (DESIGN.md §12) in memory: a
//! declarative [`GridSpec`] over multiplier depth × excitation × watchdog
//! period × pre-charge is executed by the work-stealing [`Explorer`] — the
//! two watchdog periods share their analogue prefix, which runs once and is
//! forked — and the
//! resulting rows are distilled into an exact Pareto front over (harvested
//! energy ↑, store-voltage dip ↓, engine steps ↓). Every point runs as a
//! streaming session observed by O(1) probes, so the grid's memory footprint
//! is independent of both its width and the simulated span — which is what
//! makes "as many scenarios as you can imagine" a memory non-event. For the
//! durable, resumable variant of the same workflow, see `repro explore
//! --store`.
//!
//! ```bash
//! cargo run --release --example design_sweep
//! ```

use harvsim::{Explorer, GridSpec, ScenarioConfig, SweepParameter};

fn main() -> Result<(), harvsim::CoreError> {
    let mut base = ScenarioConfig::scenario1();
    base.duration_s = 0.8;
    base.frequency_step_time_s = 0.2;

    // Points that differ only in the watchdog period march the same analogue
    // trajectory until the first wake-up: the explorer runs that prefix once.
    let spec = GridSpec::new(base)
        .axis(SweepParameter::MultiplierStages, &[3.0, 4.0, 5.0, 6.0])
        .axis(SweepParameter::AccelerationAmplitude, &[0.5, 0.7])
        .axis(SweepParameter::WatchdogPeriod, &[0.3, 0.6])
        .axis(SweepParameter::InitialSupercapVoltage, &[2.3, 2.5, 2.7]);

    println!("== design exploration: stages x acceleration x watchdog x pre-charge ==");
    println!("grid: {} points, executed by the work-stealing explorer\n", spec.offered());

    let report = Explorer::new(spec).run()?;
    println!(
        "completed {} / failed {} / skipped {} of {} offered  \
         (workers {}, {} engaged, {} steals, forked {} / cold {}, {} steps marched)",
        report.completed,
        report.failed,
        report.skipped,
        report.offered,
        report.workers,
        report.threads_used,
        report.steals,
        report.warm_hits,
        report.cold_starts,
        report.steps_executed
    );

    println!(
        "\n{:>6} {:<40} {:>13} {:>10} {:>8}",
        "index", "design point", "energy [J]", "dip [mV]", "steps"
    );
    for row in &report.rows {
        if let Some(metrics) = row.metrics() {
            let front = if report.pareto_front.contains(&row.index) { " *" } else { "" };
            println!(
                "{:>6} {:<40} {:>13.4e} {:>10.3} {:>8}{front}",
                row.index,
                row.label,
                metrics.energy_gain_j,
                metrics.dip_v * 1e3,
                metrics.steps
            );
        }
    }
    println!(
        "\n* = on the exact Pareto front (maximise energy gain, minimise store dip,\n\
         minimise engine steps) — {} of {} designs survive domination.",
        report.pareto_front.len(),
        report.completed
    );
    Ok(())
}
