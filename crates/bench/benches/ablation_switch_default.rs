//! Ablation (§5.2): normally-open vs normally-closed switch defaults under
//! input-power outages longer than the latch retention.
//!
//! "With a NO switch, the energy storage capacity reverts to the (small)
//! default bank … if the default bank is insufficient for the current
//! task, its first execution attempt will be wasted. Under an adversarial
//! input power timing, the cycle of switch state loss, incomplete task
//! execution, and switch reconfiguration may repeat indefinitely. A NC
//! switch reverts to maximum storage capacity, which takes longest to
//! charge but guarantees successful execution on first attempt after
//! boot."

use capy_apps::prelude::*;
use capy_bench::{figure_header, sweep_footer, FIGURE_SEED};
use capy_power::prelude::TraceHarvester;
use capy_units::{SimDuration, SimTime, Volts, Watts};
use capybara::sweep::{run_sweep_extract_on, SweepSpec};

struct Ctx {
    completions: NvVar<u64>,
}

impl NvState for Ctx {
    fn commit_all(&mut self) {
        self.completions.commit();
    }
    fn abort_all(&mut self) {
        self.completions.abort();
    }
}

impl SimContext for Ctx {
    fn set_now(&mut self, _now: SimTime) {}
}

/// Builds a big-mode-only workload under outage-y input power with the
/// big bank's switch in the given default kind. The sweep engine runs
/// it to the spec's horizon.
fn build(kind: SwitchKind) -> Simulator<TraceHarvester, Ctx> {
    // 120 s of 5 mW power alternating with 400 s outages — longer than the
    // ~3 min latch retention, so commanded switch state is lost in every
    // outage.
    let harvester = TraceHarvester::square_wave(
        Watts::from_milli(5.0),
        Volts::new(3.0),
        SimDuration::from_secs(120),
        SimDuration::from_secs(400),
        20,
    );
    let power = PowerSystem::builder()
        .harvester(harvester)
        .bank(
            Bank::builder("small-default")
                .with(parts::ceramic_x5r_400uf())
                .build(),
            SwitchKind::NormallyClosed, // the always-there default bank
        )
        .bank(Bank::builder("big").with(parts::edlc_7_5mf()).build(), kind)
        .build();
    Simulator::builder(Variant::CapyP, power, Mcu::msp430fr5969())
        .mode("small", &[BankId(0)])
        .mode("big", &[BankId(1)])
        .task(
            "atomic_op",
            TaskEnergy::Config(EnergyMode(1)),
            // An atomic operation only the big bank can sustain.
            |_, mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_secs(5))),
            |c: &mut Ctx| {
                c.completions.update(|n| n + 1);
                Transition::Stay
            },
        )
        .build(Ctx {
            completions: NvVar::new(0),
        })
}

fn main() {
    figure_header(
        "Ablation (5.2)",
        "NO vs NC switch default under outages longer than latch retention",
    );
    println!(
        "{:<18} {:>12} {:>14}",
        "big-bank switch", "completions", "wasted attempts"
    );
    let spec = SweepSpec::new("ablation-switch-default", SimTime::from_secs(20 * 520))
        .base_seed(FIGURE_SEED)
        .axis(
            "kind",
            &[SwitchKind::NormallyOpen, SwitchKind::NormallyClosed],
        );
    let (report, rows) = run_sweep_extract_on(
        &spec,
        available_workers(),
        |point| build(point.expect_axis("kind")),
        |sim, _| (sim.ctx().completions.get(), sim.exec_stats().failures),
    );
    for (run, (done, failed)) in report.runs.iter().zip(rows) {
        println!("{:<18} {done:>12} {failed:>14}", run.point.label);
    }
    sweep_footer(&report);
    println!();
    println!("Expected shape: the NO configuration wastes execution attempts");
    println!("after every outage (the runtime believes the big mode is still");
    println!("configured while only the small default bank is connected); the");
    println!("NC configuration completes work on the first post-outage");
    println!("attempt.");
}
