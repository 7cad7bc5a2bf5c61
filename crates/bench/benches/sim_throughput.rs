//! Performance benches for the simulator substrate itself: analytic
//! charging, ESR-aware discharge, and full application runs under the
//! optimized vs. baseline [`KernelTuning`].
//!
//! These are the only timings of the capacitor closed forms and the
//! kernel's memo layers; end-to-end throughput (fleets, kill grids) is
//! measured by the repository benchmark in `perfbench/`. Pass `--quick`
//! for the short CI mode.
//!
//! Self-contained timing harness (no external bench framework): each
//! case is warmed up, then run for a fixed wall-time budget. Mean and
//! min are both computed from the same summed per-iteration timings, so
//! the harness's own `Instant::now()` overhead biases neither.

use std::hint::black_box;
use std::time::{Duration, Instant};

use capy_apps::prelude::*;
use capy_apps::ta;
use capy_device::load::TaskLoad;
use capy_power::capacitor;
use capy_power::harvester::Harvester;
use capy_power::prelude::{Bank, ConstantHarvester, KernelTuning, PowerSystem};
use capy_units::{Farads, Ohms, SimDuration, SimTime, Volts, Watts};

// --- timing harness -----------------------------------------------------

/// Times `f` for ~`budget` of wall time (after a warm-up), prints a
/// stable one-line report, and returns the mean ns/iter.
fn bench_function<R>(name: &str, budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    // Warm-up: let caches, branch predictors, and the allocator settle.
    let warmup_end = Instant::now() + budget / 10;
    while Instant::now() < warmup_end {
        black_box(f());
    }

    let mut iters: u64 = 0;
    let mut best = Duration::MAX;
    // Summed per-iteration time: the mean must exclude the harness's own
    // clock reads, exactly like the min does.
    let mut spent = Duration::ZERO;
    let started = Instant::now();
    while started.elapsed() < budget {
        let t0 = Instant::now();
        black_box(f());
        let dt = t0.elapsed();
        best = best.min(dt);
        spent += dt;
        iters += 1;
    }
    let mean_ns = spent.as_nanos() as f64 / iters.max(1) as f64;
    println!(
        "{name:<40} {iters:>9} iters   mean {:>12.0} ns/iter   min {:>12} ns",
        mean_ns,
        best.as_nanos()
    );
    mean_ns
}

struct SimStats {
    runs: u64,
    steps: u64,
    wall: Duration,
}

impl SimStats {
    fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn ns_per_step(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.steps.max(1) as f64
    }
}

/// Runs `run_once` (build + simulate; returns the step count) repeatedly
/// for ~`budget` and accumulates step-throughput statistics.
fn bench_sim_case(budget: Duration, mut run_once: impl FnMut() -> u64) -> SimStats {
    let _ = black_box(run_once()); // warm-up
    let mut stats = SimStats {
        runs: 0,
        steps: 0,
        wall: Duration::ZERO,
    };
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let steps = black_box(run_once());
        stats.wall += t0.elapsed();
        stats.steps += steps;
        stats.runs += 1;
        if started.elapsed() >= budget {
            break;
        }
    }
    stats
}

/// A/B-runs a simulator scenario under the optimized and baseline kernel
/// tunings and prints both lines plus the speedup.
fn bench_sim_ab<H, C>(
    name: &str,
    budget: Duration,
    horizon: SimTime,
    build: impl Fn() -> Simulator<H, C>,
) where
    H: Harvester,
    C: SimContext,
{
    let run_with = |tuning: KernelTuning| {
        bench_sim_case(budget, || {
            let mut sim = build();
            sim.power_mut().set_tuning(tuning);
            sim.run_until(horizon);
            sim.exec_stats().attempts
        })
    };
    let opt = run_with(KernelTuning::optimized());
    let base = run_with(KernelTuning::baseline());
    for (label, s) in [("optimized", &opt), ("baseline", &base)] {
        println!(
            "{:<40} {:>9} runs    {:>9} steps   {:>12.0} steps/s   {:>9.0} ns/step",
            format!("{name} [{label}]"),
            s.runs,
            s.steps,
            s.steps_per_sec(),
            s.ns_per_step()
        );
    }
    println!(
        "{name:<40} speedup {:.2}x steps/s (optimized vs baseline tuning)",
        opt.steps_per_sec() / base.steps_per_sec().max(1e-9)
    );
}

// --- cases --------------------------------------------------------------

fn charge_bench_system() -> PowerSystem<ConstantHarvester> {
    let bank = Bank::builder("bench")
        .with(parts::ceramic_x5r_400uf())
        .with(parts::tantalum_330uf())
        .build();
    PowerSystem::builder()
        .harvester(ConstantHarvester::new(
            Watts::from_milli(10.0),
            Volts::new(3.0),
        ))
        .bank(bank, SwitchKind::NormallyClosed)
        .build()
}

fn bench_charge(budget: Duration) {
    let opt = charge_bench_system();
    let mut base = charge_bench_system();
    base.set_tuning(KernelTuning::baseline());
    let opt_ns = bench_function("power_system_charge_until_full", budget, || {
        let mut sys = opt.clone();
        let mut now = SimTime::ZERO;
        sys.charge_until_full(&mut now).expect("charges")
    });
    let base_ns = bench_function("power_system_charge_until_full [base]", budget, || {
        let mut sys = base.clone();
        let mut now = SimTime::ZERO;
        sys.charge_until_full(&mut now).expect("charges")
    });
    println!(
        "{:<40} speedup {:.2}x mean ns/iter (optimized vs baseline tuning)",
        "power_system_charge_until_full",
        base_ns / opt_ns.max(1e-9)
    );
}

fn bench_discharge(budget: Duration) {
    bench_function("esr_discharge_deep", budget, || {
        capacitor::discharge(
            Farads::from_milli(11.0),
            Ohms::new(120.0),
            Volts::new(2.8),
            Watts::from_milli(4.0),
            Volts::new(0.9),
            SimDuration::from_secs(10),
        )
    });
    bench_function("esr_discharge_shallow", budget, || {
        capacitor::discharge(
            Farads::from_milli(11.0),
            Ohms::new(120.0),
            Volts::new(2.8),
            Watts::from_milli(1.0),
            Volts::new(0.9),
            SimDuration::from_millis(10),
        )
    });
}

/// A fixed-capacity duty-cycle sleeper: a 5 ms task followed by a long
/// sleep whose quiescent drain browns the buffer out, forcing a recharge
/// every cycle. This is the charge-heavy shape the discharge memo and
/// derived-rail cache exist for: from the second cycle on, every
/// charge/draw repeats bitwise.
fn build_sleeper() -> Simulator<ConstantHarvester, ()> {
    let power = PowerSystem::builder()
        .harvester(ConstantHarvester::new(
            Watts::from_milli(10.0),
            Volts::new(3.0),
        ))
        .bank(
            Bank::builder("sleeper")
                .with(parts::ceramic_x5r_400uf())
                .with(parts::tantalum_330uf())
                .build(),
            SwitchKind::NormallyClosed,
        )
        .build();
    Simulator::builder(Variant::Fixed, power, Mcu::msp430fr5969())
        .task(
            "duty-cycle",
            TaskEnergy::Unannotated,
            |_, mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(5))),
            |_c: &mut ()| Transition::Sleep {
                duration: SimDuration::from_secs(1_000),
                then: TaskId(0),
            },
        )
        .build(())
}

fn main() {
    // `cargo bench` forwards harness flags like `--bench`; ignore
    // anything unrecognized.
    let quick = std::env::args().skip(1).any(|arg| arg == "--quick");

    let micro_budget = if quick {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(500)
    };
    let sim_budget = if quick {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(700)
    };
    let ta_horizon = SimTime::from_secs(if quick { 30 } else { 60 });
    let sleeper_horizon = SimTime::from_secs(if quick { 600 } else { 1800 });

    println!(
        "sim_throughput: substrate benchmarks ({} mode)",
        if quick { "quick" } else { "full" }
    );

    bench_charge(micro_budget);
    bench_discharge(micro_budget);
    let ta_events = vec![SimTime::from_secs(15)];
    bench_sim_ab("ta_minute_capy_p", sim_budget, ta_horizon, || {
        ta::build(Variant::CapyP, ta_events.clone(), 7)
    });
    bench_sim_ab(
        "duty_cycle_sleeper",
        sim_budget,
        sleeper_horizon,
        build_sleeper,
    );
}
