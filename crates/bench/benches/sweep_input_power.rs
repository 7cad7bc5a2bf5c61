//! Extension experiment: detection accuracy vs harvested input power.
//!
//! The paper sweeps event inter-arrival time (Figure 10); the other axis
//! of the deployment envelope is how much power the environment supplies.
//! This sweep runs the TA experiment across harvester strengths and shows
//! where each power system's accuracy collapses — Capybara degrades
//! gracefully (its small mode keeps sampling on weak input; only alarm
//! latency suffers) while the Fixed system falls off a cliff once its big
//! buffer cannot recharge between events.
//!
//! The (irradiance, variant) grid is a [`SweepSpec`] run in parallel by
//! `run_sweep_with_on`; every point rebuilds the same event schedule from
//! the shared figure seed, so output is worker-count independent.

use capy_apps::events::poisson_events;
use capy_apps::metrics::{accuracy_fractions, classify_reported};
use capy_apps::ta;
use capy_bench::{figure_header, sweep_footer, FIGURE_SEED};
use capy_units::rng::DetRng;
use capy_units::{SimDuration, SimTime};
use capybara::sweep::{available_workers, run_sweep_with_on, SweepSpec};
use capybara::variant::Variant;

const IRRADIANCES: [f64; 5] = [0.15, 0.25, 0.42, 0.7, 1.0];
const VARIANTS: [Variant; 3] = [Variant::Fixed, Variant::CapyR, Variant::CapyP];

fn main() {
    figure_header(
        "Extension",
        "TA detection accuracy vs harvested input power",
    );
    let mut events = poisson_events(
        &mut DetRng::seed_from_u64(FIGURE_SEED),
        SimDuration::from_secs(144),
        25,
        SimDuration::from_secs(45),
    );
    capy_apps::events::fit_span(&mut events, SimDuration::from_secs(3_500));
    let horizon = SimTime::from_secs(3_600);

    let spec = SweepSpec::new("input-power", horizon)
        .base_seed(FIGURE_SEED)
        .grid("irradiance", &IRRADIANCES)
        .axis("variant", &VARIANTS);

    let events_ref = &events;
    let (report, correct) = run_sweep_with_on(&spec, available_workers(), |point| {
        let v = point.expect_axis::<Variant>("variant");
        let mut sim = ta::build(v, events_ref.clone(), FIGURE_SEED);
        sim.power_mut()
            .harvester_mut()
            .set_irradiance(point.expect_param("irradiance"));
        sim.run_until(horizon);
        let f = accuracy_fractions(&classify_reported(events_ref.len(), &sim.ctx().packets));
        (sim, f.correct)
    });

    println!(
        "{:>16} {:>8} {:>8} {:>8}",
        "irradiance", "Fixed", "CB-R", "CB-P"
    );
    for (row, &irr) in IRRADIANCES.iter().enumerate() {
        let cols = &correct[row * VARIANTS.len()..(row + 1) * VARIANTS.len()];
        println!(
            "{:>16.2} {:>8.2} {:>8.2} {:>8.2}",
            irr, cols[0], cols[1], cols[2]
        );
    }
    sweep_footer(&report);
    println!();
    println!("Expected shape: all systems lose accuracy as input power drops.");
    println!("Capy-P degrades most gracefully: its off-critical-path precharge");
    println!("eventually completes even on weak input. At the weakest inputs");
    println!("Capy-R collapses below even Fixed — charging the alarm bank on");
    println!("the critical path no longer finishes before the excursion ends —");
    println!("which sharpens the paper's case for pre-charged bursts.");
}
