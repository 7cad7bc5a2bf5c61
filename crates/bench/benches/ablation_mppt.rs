//! Ablation (§7): maximum-power-point tracking in the input booster.
//!
//! "Capybara leverages maximum power point tracking in its input
//! booster." This ablation quantifies what that buys: harvested power and
//! the resulting TA small-bank recharge time with the booster's
//! fractional-V_oc tracking versus a direct (pinned-at-capacitor-voltage)
//! charger.

use capy_bench::figure_header;
use capy_power::capacitor;
use capy_power::mppt::{harvested_power, PvCurve, Tracking};
use capy_units::{Farads, SimDuration, SimTime, Volts};
use capybara::sweep::{available_workers, map_points_on, SweepSpec};

/// One irradiance row: MPP / tracked / pinned power, plus the TA
/// small-bank recharge times at the operating point (0.42 sun only).
struct Row {
    p_mpp: f64,
    tracked: f64,
    pinned: f64,
    recharge: Option<(SimDuration, SimDuration)>,
}

fn main() {
    figure_header(
        "Ablation (7)",
        "MPPT vs direct charging from the TrisolX pair",
    );
    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>12}",
        "irradiance", "MPP (uW)", "tracked (uW)", "pinned (uW)", "capture"
    );
    let small_bank = Farads::from_micro(400.0);
    // Analytic per-irradiance evaluation, sharded over the grid like
    // every other sweep (no simulator; [`map_points_on`] suffices).
    let spec = SweepSpec::new("ablation-mppt", SimTime::ZERO)
        .grid("irradiance", &[0.1, 0.25, 0.42, 0.7, 1.0]);
    let rows = map_points_on(&spec, available_workers(), |point| {
        let irr = point.expect_param("irradiance");
        // Two wings in series: double the voltage at the same current.
        let pv = PvCurve::new(PvCurve::trisolx(irr).i_sc, Volts::new(2.4), 10.0);
        let (_, p_mpp) = pv.mpp();
        let tracked = harvested_power(&pv, Tracking::prototype());
        // A direct charger pins the panel near the capacitor's mid-charge
        // voltage (here ~1.0 V, below the MPP of the series pair).
        let pinned = harvested_power(&pv, Tracking::PinnedAt(Volts::new(1.0)));
        let recharge = ((irr - 0.42).abs() < 1e-9).then(|| {
            let t_mppt = capacitor::time_to_charge(
                small_bank,
                Volts::new(0.9),
                Volts::new(2.8),
                tracked * 0.8,
            );
            let t_pinned = capacitor::time_to_charge(
                small_bank,
                Volts::new(0.9),
                Volts::new(2.8),
                pinned * 0.8,
            );
            (t_mppt, t_pinned)
        });
        Row {
            p_mpp: p_mpp.get(),
            tracked: tracked.get(),
            pinned: pinned.get(),
            recharge,
        }
    });
    for (point, row) in spec.points().iter().zip(rows) {
        println!(
            "{:>12.2} {:>12.0} {:>14.0} {:>14.0} {:>11.0}%",
            point.expect_param("irradiance"),
            row.p_mpp * 1e6,
            row.tracked * 1e6,
            row.pinned * 1e6,
            row.tracked / row.p_mpp * 100.0
        );
        if let Some((t_mppt, t_pinned)) = row.recharge {
            println!(
                "    at the TA operating point: small-bank recharge {:.1} s (MPPT) vs {:.1} s (direct)",
                t_mppt.as_secs_f64(),
                t_pinned.as_secs_f64()
            );
        }
    }
    println!();
    println!("Expected shape: fractional-Voc tracking captures >95% of the");
    println!("panel's available power across irradiance levels, while a");
    println!("direct charger pinned at the capacitor voltage loses roughly");
    println!("half — doubling every recharge interval in the TA experiment.");
}
