//! Seeded fault fuzzing on the TempAlarm mission: randomized multi-kill
//! schedules, hardware faults, and correlated rail surges beyond the
//! exhaustive kill grid.
//!
//! Every case derives from `(master seed, case index)` alone, so the
//! printed digest of any violation is its own reproducer — re-run
//! `replay_case` with those two numbers and the exact schedule replays
//! bit for bit. The second half fuzzes a {policy × scenario} grid the
//! same way: each cell's case sequence derives from the master seed and
//! the cell's position, sharded on the sweep engine with a
//! worker-count-independent report.
//!
//! Run with: `cargo run --release --example fuzz`
//! (or `-- --smoke` for the fixed-seed CI smoke budget).

use capy_units::{SimDuration, SimTime};
use capybara_suite::apps::ta;
use capybara_suite::faults::fuzz::{fuzz_faults, fuzz_policy_grid, FuzzOptions};
use capybara_suite::prelude::*;

const MASTER_SEED: u64 = 0xCAFE_F417;
const SCENARIO_SEED: u64 = 0x417;
const HORIZON: SimTime = SimTime::from_secs(600);

/// Three temperature excursions in a ten-minute mission.
fn schedule() -> Vec<SimTime> {
    [100, 260, 430]
        .iter()
        .map(|&s| SimTime::from_secs(s))
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // Part 1: the flat campaign. Each case draws 1..=4 power kills plus
    // (probabilistically) a hardware fault and a correlated two-bank
    // rail surge, then must recover to the horizon with an ordered
    // event log, conserved execution accounting, and no livelock.
    let options = FuzzOptions::smoke(if smoke { 8 } else { 48 }, HORIZON);
    let report = fuzz_faults(
        MASTER_SEED,
        &options,
        || ta::build(Variant::CapyR, schedule(), SCENARIO_SEED),
        |_| Ok(()),
    );
    println!("fault fuzz over a 10-minute CB-R TempAlarm mission:");
    println!("  {}", report.digest());
    let max_kills = report
        .outcomes
        .iter()
        .map(|o| o.case.kills.len())
        .max()
        .unwrap_or(0);
    let with_faults = report
        .outcomes
        .iter()
        .filter(|o| !o.case.plan.is_empty())
        .count();
    println!(
        "  schedules: up to {max_kills} kills per case, {} of {} cases with hardware faults",
        with_faults,
        report.outcomes.len()
    );
    assert!(
        report.is_clean(),
        "fuzz found violations — each replays from (master_seed, case_index): {}",
        report.digest()
    );

    // Part 2: the {policy x scenario} grid. The same derivation fuzzes
    // the static-annotation baseline against a reactive-downsize policy
    // on two mission lengths.
    let policies = [
        NamedPolicy::new("static", |_| Box::new(StaticAnnotation)),
        NamedPolicy::new("reactive", |_| {
            Box::new(ReactiveDownsize::new(
                vec![ta::M_SAMPLE, ta::M_ALARM],
                SimDuration::from_secs(20),
            ))
        }),
    ];
    let scenarios = [
        Scenario::new("10min", &[]),
        Scenario::new("5min", &[]).at_horizon(SimTime::from_secs(300)),
    ];
    let grid_options = FuzzOptions::smoke(if smoke { 2 } else { 12 }, HORIZON);
    let grid = fuzz_policy_grid(
        "fuzz-policy-grid",
        MASTER_SEED,
        &grid_options,
        &policies,
        &scenarios,
        |_, policy| ta::build_with_policy(Variant::CapyR, schedule(), SCENARIO_SEED, policy),
        |_| Ok(()),
    );
    println!();
    println!("policy-grid fuzz:");
    println!("  {}", grid.digest());
    for (pi, policy) in grid.policies.iter().enumerate() {
        for (si, scenario) in grid.scenarios.iter().enumerate() {
            let cell = grid.cell(pi, si);
            let completions: u64 = cell.iter().map(|o| o.summary.completions).sum();
            println!(
                "  {policy}/{scenario}: {} cases, {completions} total completions",
                cell.len()
            );
        }
    }
    assert!(
        grid.is_clean(),
        "policy-grid fuzz found violations: {}",
        grid.digest()
    );

    println!();
    println!("ok: every randomized kill/fault schedule recovered cleanly,");
    println!("    and every case replays from (master seed, case index) alone.");
}
