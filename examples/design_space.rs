//! Explore the energy-storage design space of §2.2: the
//! atomicity/reactivity trade-off of a capacitance choice, the
//! provisioning helper that automates the paper's §6.1 sizing loop, and a
//! measured (simulated) version of the same trade-off driven by the
//! parallel sweep engine.
//!
//! Run with: `cargo run --release --example design_space`

use capy_units::{Farads, Ohms, SimDuration, SimTime, Volts, Watts};
use capybara_suite::core::provision::provision_bank_units;
use capybara_suite::device::peripherals::BleRadio;
use capybara_suite::power::booster::OutputBooster;
use capybara_suite::power::capacitor;
use capybara_suite::prelude::*;
use capybara_suite::sweep::{map_points_on, run_sweep_on, SweepSpec};

struct SamplerCtx {
    n: NvVar<u64>,
}

impl NvState for SamplerCtx {
    fn commit_all(&mut self) {
        self.n.commit();
    }
    fn abort_all(&mut self) {
        self.n.abort();
    }
}

impl SimContext for SamplerCtx {
    fn set_now(&mut self, _now: SimTime) {}
}

fn main() {
    let mcu = Mcu::msp430fr5969();
    let booster = OutputBooster::prototype();
    let v_full = Volts::new(2.8);
    let v_min = booster.min_operating_voltage();
    let p_active = booster.input_power_for(mcu.active_power());

    println!("== Atomicity vs reactivity across buffer sizes (§2.2.1) ==\n");
    println!(
        "{:>12} {:>14} {:>16}",
        "C (µF)", "atomicity(kops)", "recharge @1mW (s)"
    );
    let analytic = SweepSpec::new("design-space-analytic", SimTime::ZERO).grid(
        "c_uf",
        &[100.0, 330.0, 1_000.0, 3_300.0, 10_000.0, 33_000.0],
    );
    let rows = map_points_on(&analytic, available_workers(), |point| {
        let c_uf = point.expect_param("c_uf");
        let c = Farads::from_micro(c_uf);
        let (on_time, _) = capacitor::sustain_time(c, Ohms::ZERO, v_full, p_active, v_min);
        let ops = on_time.as_secs_f64() * mcu.ops_per_second();
        let recharge = capacitor::time_to_charge(c, v_min, v_full, Watts::from_milli(1.0) * 0.8);
        (c_uf, ops / 1e3, recharge.as_secs_f64())
    });
    for (c_uf, kops, recharge) in rows {
        println!("{c_uf:>12.0} {kops:>14.0} {recharge:>16.1}");
    }

    println!("\n== Provisioning a bank for a BLE packet (§6.1 methodology) ==\n");
    let load = BleRadio::cc2650()
        .tx_packet(25)
        .plus_power(mcu.active_power());
    for unit in [
        parts::ceramic_x5r_100uf(),
        parts::tantalum_1000uf(),
        parts::edlc_cph3225a(),
    ] {
        match provision_bank_units(&unit, &load, &booster, v_full, 4096) {
            Some(report) => println!(
                "{:<18} needs {:>4} units = {:>8.2} mF ({:>7.0} mm³)",
                unit.name(),
                report.units,
                report.capacitance.as_milli(),
                unit.volume_mm3() * report.units as f64,
            ),
            None => println!("{:<18} cannot serve this task at any size", unit.name()),
        }
    }

    println!("\n== The same trade-off, measured: a 60 s simulated sampler ==\n");
    // One fixed-capacity device per buffer size, all run in parallel by
    // the sweep engine. More tantalum units buy longer atomic spans but
    // cost longer recharges — the measured numbers mirror the analytic
    // table above.
    let measured = SweepSpec::new("design-space-measured", SimTime::from_secs(60))
        .grid("units", &[1.0, 2.0, 4.0, 8.0, 16.0]);
    let report = run_sweep_on(&measured, available_workers(), |point| {
        let units = point.expect_param("units") as usize;
        let power = PowerSystem::builder()
            .harvester(ConstantHarvester::new(
                Watts::from_milli(5.0),
                Volts::new(3.0),
            ))
            .bank(
                Bank::builder("fixed")
                    .with_n(parts::tantalum_330uf(), units)
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .build();
        Simulator::builder(Variant::Fixed, power, Mcu::msp430fr5969())
            .mode("only", &[BankId(0)])
            .task(
                "sample",
                TaskEnergy::Unannotated,
                |_, mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(25))),
                |ctx: &mut SamplerCtx| {
                    ctx.n.update(|x| x + 1);
                    Transition::Stay
                },
            )
            .build(SamplerCtx { n: NvVar::new(0) })
    });
    println!(
        "{:>8} {:>12} {:>10} {:>14} {:>12}",
        "units", "completions", "charges", "mean charge(s)", "charging(%)"
    );
    for run in &report.runs {
        let s = &run.summary;
        println!(
            "{:>8.0} {:>12} {:>10} {:>14.2} {:>12.1}",
            run.point.expect_param("units"),
            s.completions,
            s.charges,
            s.mean_charge_time().as_secs_f64(),
            100.0 * s.charge_fraction(),
        );
    }

    println!("\nLarger buffers complete longer atomic spans but take");
    println!("proportionally longer to recharge — no fixed capacity serves");
    println!("both a reactive sampler and an atomic radio packet.");
}
