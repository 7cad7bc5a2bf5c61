//! Figure 8: event detection accuracy across applications and power
//! systems.
//!
//! "Figure 8 shows the accuracy each application achieves on an event
//! sequence drawn from a Poisson distribution. The event sequence for TA
//! contains 50 events over 120 minutes, and for GRC and CSR — 80 events
//! over 42 minutes."
//!
//! Columns per system: Correct / Misclassified / Proximity-only / Missed,
//! matching the stacked bars. Each application's four variants run as one
//! parallel [`SweepSpec`] (`run_sweep_extract_on`: the engine advances every
//! run to the spec's horizon, then the extract reads the finished
//! simulator), so the bench saturates the machine while printing the
//! exact same rows as the old serial driver.

use capy_apps::events::{grc_schedule, ta_schedule};
use capy_apps::grc::{self, GrcVariant};
use capy_apps::metrics::{accuracy_fractions, classify_reported, AccuracyBreakdown};
use capy_apps::{csr, ta};
use capy_bench::{figure_header, pct, sweep_footer, FIGURE_SEED};
use capy_units::rng::DetRng;
use capybara::sweep::{available_workers, run_sweep_extract_on, SweepSpec};
use capybara::variant::Variant;

fn print_row(system: &str, f: AccuracyBreakdown) {
    println!(
        "  {:<8} {} {} {} {}",
        system,
        pct(f.correct),
        pct(f.misclassified),
        pct(f.proximity_only),
        pct(f.missed)
    );
}

/// One sweep point per power-system variant, on a typed axis.
fn variant_spec(name: &'static str, horizon: capy_units::SimTime) -> SweepSpec {
    SweepSpec::new(name, horizon)
        .base_seed(FIGURE_SEED)
        .axis("variant", &Variant::ALL)
}

fn print_variant_rows(rows: Vec<AccuracyBreakdown>) {
    for (v, f) in Variant::ALL.iter().zip(rows) {
        print_row(v.label(), f);
    }
}

fn main() {
    figure_header("Figure 8", "event detection accuracy");
    println!(
        "  {:<8} {:>6} {:>6} {:>6} {:>6}",
        "system", "corr", "miscl", "prox", "miss"
    );

    let ta_events = ta_schedule(&mut DetRng::seed_from_u64(FIGURE_SEED));
    println!("TempAlarm (50 events / 120 min):");
    let events = &ta_events;
    let (report, rows) = run_sweep_extract_on(
        &variant_spec("fig8-ta", ta::HORIZON),
        available_workers(),
        |point| {
            let v = point.expect_axis::<Variant>("variant");
            ta::build(v, events.clone(), FIGURE_SEED)
        },
        |sim, _| accuracy_fractions(&classify_reported(events.len(), &sim.ctx().packets)),
    );
    print_variant_rows(rows);
    sweep_footer(&report);

    let grc_events = grc_schedule(&mut DetRng::seed_from_u64(FIGURE_SEED));
    let events = &grc_events;
    for gv in [GrcVariant::Fast, GrcVariant::Compact] {
        println!("{} (80 events / 42 min):", gv.label());
        let name = match gv {
            GrcVariant::Fast => "fig8-grc-fast",
            GrcVariant::Compact => "fig8-grc-compact",
        };
        let (report, rows) = run_sweep_extract_on(
            &variant_spec(name, grc::HORIZON),
            available_workers(),
            |point| {
                let v = point.expect_axis::<Variant>("variant");
                grc::build(v, gv, events.clone(), FIGURE_SEED)
            },
            |sim, _| {
                let ctx = sim.ctx();
                accuracy_fractions(&grc::classify_run(
                    events.len(),
                    &ctx.packets,
                    &ctx.attempts,
                ))
            },
        );
        print_variant_rows(rows);
        sweep_footer(&report);
    }

    println!("CorrSense (80 events / 42 min):");
    let (report, rows) = run_sweep_extract_on(
        &variant_spec("fig8-csr", grc::HORIZON),
        available_workers(),
        |point| {
            let v = point.expect_axis::<Variant>("variant");
            csr::build(v, events.clone(), FIGURE_SEED)
        },
        |sim, _| accuracy_fractions(&classify_reported(events.len(), &sim.ctx().packets)),
    );
    print_variant_rows(rows);
    sweep_footer(&report);

    println!();
    println!("Paper anchors: Fixed detects 56% (CSR) / 46% (TA) / 18% (GRC);");
    println!("both Capybara variants detect 98% of TA and >=89% of CSR events;");
    println!("CB-P detects 75-76% of gestures; CB-R reports no gestures.");
}
