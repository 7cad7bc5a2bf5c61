//! Systematic fault injection on the paper's applications: subsampled
//! exhaustive power-kill grids for TA, GRC, and CSR, plus a mid-mission
//! hardware fault with graceful degradation (§5.2's adversarial-timing
//! and component-failure concerns, checked end to end).

use capy_units::rng::DetRng;
use capy_units::{SimDuration, SimTime, Volts, Watts};
use capybara_suite::apps::events::{fit_span, poisson_events};
use capybara_suite::apps::grc::{self, GrcVariant};
use capybara_suite::apps::{csr, ta};
use capybara_suite::core::sim::validate_event_log;
use capybara_suite::faults::{
    explore_kill_grid, ExplorationStats, FaultPlan, KillGridOptions, KillOutcome, KillReport,
    ZENO_BOOT_LIMIT,
};
use capybara_suite::prelude::*;

const SEED: u64 = 0x417;

/// A short TA excursion schedule: three alarms in ten minutes.
fn short_schedule() -> Vec<SimTime> {
    [100, 260, 430]
        .iter()
        .map(|&s| SimTime::from_secs(s))
        .collect()
}

const HORIZON: SimTime = SimTime::from_secs(600);

/// A subsampled TA kill grid runs deterministically from a fixed seed,
/// produces the identical report for any worker count, and finds zero
/// violations: every possible power-failure instant leaves the event
/// log ordered, the execution accounting conserved, and the device
/// live.
#[test]
fn ta_kill_grid_is_clean_and_worker_count_invariant() {
    let build = || ta::build(Variant::CapyP, short_schedule(), SEED);
    let mut options = KillGridOptions::smoke(1, 12);
    options.workers = 1;
    let serial = explore_kill_grid(HORIZON, &options, build, |_| Ok(()));
    assert!(
        serial.is_clean(),
        "kill grid must be violation-free: {}\n{:?}",
        serial.digest(),
        serial.violations()
    );
    assert!(
        serial.grid_points > 12,
        "the full grid is larger than the subsample"
    );
    assert_eq!(serial.outcomes.len(), 12);
    // Every explored kill actually perturbed the run and recovered:
    // power failures happened, work still completed.
    for o in &serial.outcomes {
        assert!(
            o.summary.completions > 0,
            "no post-kill progress at {}",
            o.kill_at
        );
        assert_eq!(
            o.summary.attempts,
            o.summary.completions + o.summary.failures
        );
    }

    options.workers = 4;
    let parallel = explore_kill_grid(HORIZON, &options, build, |_| Ok(()));
    assert_eq!(
        serial, parallel,
        "kill report must not depend on worker count"
    );

    // Strict mode: subsampling is never silent. The smoke grid records
    // exactly how many points it skipped and refuses the strict gate.
    assert_eq!(
        serial.dropped_points,
        serial.grid_points - serial.outcomes.len()
    );
    assert!(serial.dropped_points > 0);
    assert!(!serial.is_clean_strict());
    assert!(serial
        .strict_violation()
        .expect("a truncated grid must carry a strict-mode complaint")
        .contains("dropped"));
    assert!(serial.digest().contains("dropped by subsampling"));
}

/// The replay-from-zero reference explorer, built only from public
/// simulator calls: the baseline and every kill point `snap` explored
/// are re-simulated from t = 0 (build → run to the kill → cut power →
/// run to the horizon) and put through the same checks. The grid and
/// its subsampling come from `snap`; everything else is recomputed, so
/// `snap == replay` pins the snapshot explorer's resume to a full
/// replay, and the stats measure what replay costs.
fn replay_from_zero<H: Harvester, C: SimContext>(
    snap: &KillReport,
    horizon: SimTime,
    zeno_limit: u64,
    build: impl Fn() -> Simulator<H, C>,
    invariant: impl Fn(&Simulator<H, C>) -> Result<(), String>,
) -> KillReport {
    let checks = |sim: &Simulator<H, C>, summary: &RunSummary| {
        validate_event_log(sim.events())
            .or_else(|| {
                (summary.attempts != summary.completions + summary.failures)
                    .then(|| "execution accounting broken".to_string())
            })
            .or_else(|| invariant(sim).err())
    };
    let mut recorder = build();
    recorder.run_until(horizon);
    let baseline = RunSummary::from_sim(&recorder);
    let mut stats = ExplorationStats {
        record_sim: recorder.now().saturating_since(SimTime::ZERO),
        ..ExplorationStats::default()
    };
    let outcomes = snap
        .outcomes
        .iter()
        .map(|o| {
            let mut sim = build();
            let pre = sim.run_until(o.kill_at);
            let landed = sim.now();
            let at_kill = sim.exec_stats();
            let mut violation = matches!(pre, StepResult::Stalled { .. })
                .then(|| format!("stalled before the kill at {}", o.kill_at));
            if pre == StepResult::Progress {
                sim.inject_power_failure();
                if let StepResult::Stalled { .. } = sim.run_until(horizon) {
                    violation = Some(format!("stalled after the kill at {}", o.kill_at));
                }
            }
            stats.prefix_sim = stats
                .prefix_sim
                .saturating_add(landed.saturating_since(SimTime::ZERO));
            stats.resumed_sim = stats
                .resumed_sim
                .saturating_add(sim.now().saturating_since(landed));
            let summary = RunSummary::from_sim(&sim);
            let violation = violation.or_else(|| checks(&sim, &summary)).or_else(|| {
                let reboots = summary.reboots - at_kill.reboots;
                let completions = summary.completions - at_kill.completions;
                (reboots >= zeno_limit && completions == 0)
                    .then(|| format!("Zeno livelock after the kill at {}", o.kill_at))
            });
            KillOutcome {
                kill_at: o.kill_at,
                summary,
                violation,
            }
        })
        .collect();
    KillReport {
        baseline_violation: checks(&recorder, &baseline),
        baseline,
        grid_points: snap.grid_points,
        dropped_points: snap.dropped_points,
        outcomes,
        stats,
    }
}

/// Asserts the snapshot explorer's report equals the replay reference's
/// and that resuming from snapshots stepped ≥ 5× fewer simulated
/// seconds for the same recovery work.
fn assert_matches_replay(snap: &KillReport, replay: &KillReport) {
    // Same report, bit for bit (equality excludes the stats).
    assert_eq!(snap, replay);
    assert_eq!(snap.digest(), replay.digest());
    assert!(snap.is_clean(), "violations: {:?}", snap.violations());
    assert!(snap.stats.snapshots > 0);
    assert_eq!(snap.stats.record_sim, replay.stats.record_sim);
    assert_eq!(snap.stats.resumed_sim, replay.stats.resumed_sim);
    assert!(
        replay.stats.stepped_sim().as_micros() >= 5 * snap.stats.stepped_sim().as_micros(),
        "snapshot resume must step >= 5x fewer simulated seconds: \
         replay {:?} vs snapshot {:?}",
        replay.stats,
        snap.stats
    );
}

/// Toy scenario context: one committed counter.
#[derive(Clone)]
struct Counter {
    n: NvVar<u64>,
}

impl NvState for Counter {
    fn commit_all(&mut self) {
        self.n.commit();
    }
    fn abort_all(&mut self) {
        self.n.abort();
    }
}

impl SimContext for Counter {
    fn set_now(&mut self, _now: SimTime) {}
}

/// A steady-harvest two-bank sampler that bumps a committed counter
/// every 10 ms task.
fn steady() -> Simulator<ConstantHarvester, Counter> {
    let power = PowerSystem::builder()
        .harvester(ConstantHarvester::new(
            Watts::from_milli(2.0),
            Volts::new(3.0),
        ))
        .bank(
            Bank::builder("small")
                .with(parts::ceramic_x5r_400uf())
                .build(),
            SwitchKind::NormallyClosed,
        )
        .bank(
            Bank::builder("big").with(parts::edlc_7_5mf()).build(),
            SwitchKind::NormallyOpen,
        )
        .build();
    Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
        .mode("small", &[BankId(0)])
        .mode("big", &[BankId(1)])
        .task(
            "sample",
            TaskEnergy::Config(EnergyMode(0)),
            |_, mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(10))),
            |c: &mut Counter| {
                c.n.update(|x| x + 1);
                Transition::Stay
            },
        )
        .build(Counter { n: NvVar::new(0) })
}

/// The committed counter matches the completed-task count.
fn counter_invariant(sim: &Simulator<ConstantHarvester, Counter>) -> Result<(), String> {
    let committed = sim.ctx().n.get();
    let completed = sim.exec_stats().completions;
    (committed == completed)
        .then_some(())
        .ok_or_else(|| format!("committed counter {committed} != completions {completed}"))
}

/// The snapshot explorer reproduces the replay-from-zero reference on
/// the exhaustive toy grid, bit for bit, at a fraction of the stepping.
#[test]
fn snapshot_explorer_matches_replay_and_steps_far_less() {
    let horizon = SimTime::from_secs(5);
    let options = KillGridOptions {
        workers: 2,
        ..KillGridOptions::default()
    };
    let snap = explore_kill_grid(horizon, &options, steady, counter_invariant);
    assert!(
        snap.is_clean_strict(),
        "violations: {:?}",
        snap.violations()
    );
    let replay = replay_from_zero(&snap, horizon, ZENO_BOOT_LIMIT, steady, counter_invariant);
    assert_matches_replay(&snap, &replay);
}

/// The same identity on a real application: the TA mission's short
/// schedule, with a checkpoint at every boundary and at every 64th.
#[test]
fn ta_snapshot_explorer_matches_replay_at_any_stride() {
    let build = || ta::build(Variant::CapyP, short_schedule(), SEED);
    let mut replay = None;
    for snapshot_stride in [1, 64] {
        let options = KillGridOptions {
            snapshot_stride,
            ..KillGridOptions::smoke(1, 16)
        };
        let snap = explore_kill_grid(HORIZON, &options, build, |_| Ok(()));
        assert_eq!(snap.outcomes.len(), 16);
        let replay = replay.get_or_insert_with(|| {
            replay_from_zero(&snap, HORIZON, ZENO_BOOT_LIMIT, build, |_| Ok(()))
        });
        assert_matches_replay(&snap, replay);
    }
}

/// A bursty event schedule sized for a short GRC/CSR excursion.
fn pendulum_schedule() -> Vec<SimTime> {
    let mut events = poisson_events(
        &mut DetRng::seed_from_u64(SEED),
        SimDuration::from_secs(30),
        8,
        SimDuration::from_secs(4),
    );
    fit_span(&mut events, SimDuration::from_secs(300));
    events
}

const PENDULUM_HORIZON: SimTime = SimTime::from_secs(360);

/// Application-level invariant shared by the GRC and CSR grids: the
/// sniffer's packet record is causally consistent on every resumed run.
fn packet_log_consistent(
    now: SimTime,
    packets: &[capybara_suite::apps::observer::Packet],
) -> Result<(), String> {
    if packets.windows(2).any(|w| w[0].at > w[1].at) {
        return Err("packet log out of order".into());
    }
    if packets.iter().any(|p| p.at > now) {
        return Err("packet from the future".into());
    }
    Ok(())
}

/// The GRC gesture pipeline survives every explored power-failure
/// instant, for both the fast and compact recognizer variants: no
/// stall, ordered log, conserved accounting, and the packet record
/// stays causally consistent on every resumed run.
#[test]
fn grc_kill_grid_is_clean_for_both_recognizer_variants() {
    for gv in [GrcVariant::Fast, GrcVariant::Compact] {
        let build = || grc::build(Variant::CapyR, gv, pendulum_schedule(), SEED);
        let report = explore_kill_grid(
            PENDULUM_HORIZON,
            &KillGridOptions::smoke(1, 8),
            build,
            |sim| packet_log_consistent(sim.now(), sim.ctx().packets.packets()),
        );
        assert!(
            report.is_clean(),
            "{gv:?} kill grid must be violation-free: {}\n{:?}",
            report.digest(),
            report.violations()
        );
        assert_eq!(report.baseline_violation, None);
        assert!(report.grid_points > report.outcomes.len());
        for o in &report.outcomes {
            assert!(o.summary.power_failures >= 1, "kill at {}", o.kill_at);
            assert!(o.summary.completions > 0, "no progress after {}", o.kill_at);
        }
    }
}

/// The CSR correlated-sensing pipeline survives every explored
/// power-failure instant under the same checks.
#[test]
fn csr_kill_grid_is_clean() {
    let build = || csr::build(Variant::CapyR, pendulum_schedule(), SEED);
    let report = explore_kill_grid(
        PENDULUM_HORIZON,
        &KillGridOptions::smoke(1, 8),
        build,
        |sim| packet_log_consistent(sim.now(), sim.ctx().packets.packets()),
    );
    assert!(
        report.is_clean(),
        "CSR kill grid must be violation-free: {}\n{:?}",
        report.digest(),
        report.violations()
    );
    assert_eq!(report.baseline_violation, None);
    for o in &report.outcomes {
        assert!(o.summary.power_failures >= 1, "kill at {}", o.kill_at);
        assert!(o.summary.completions > 0, "no progress after {}", o.kill_at);
    }
}

/// §5.2 graceful degradation at application scale: the TA large (alarm)
/// bank's switch sticks open mid-mission. The runtime must diagnose the
/// dead bank, retire it, remap the alarm mode onto the surviving small
/// bank, and keep the mission running — no stall, no log corruption.
#[test]
fn ta_survives_a_stuck_open_alarm_bank_mid_mission() {
    let fail_at = SimTime::from_secs(120);
    let mut sim = ta::build(Variant::CapyP, short_schedule(), SEED);
    sim.set_degradation(true);
    FaultPlan::new()
        .switch_stuck_open(fail_at, BankId(1))
        .arm(&mut sim);
    let result = sim.run_until(HORIZON);
    assert!(
        !matches!(result, StepResult::Stalled { .. }),
        "degraded mission must not stall"
    );
    assert_eq!(validate_event_log(sim.events()), None);

    let failed_at = sim
        .events()
        .iter()
        .find_map(|e| match e {
            SimEvent::BankFailed { at, bank } if *bank == BankId(1) => Some(*at),
            _ => None,
        })
        .expect("the stuck-open large bank must be diagnosed and retired");
    assert!(failed_at >= fail_at);
    assert!(
        sim.events()
            .iter()
            .any(|e| matches!(e, SimEvent::ModeRemapped { .. })),
        "retiring a bank must remap the modes that used it"
    );
    // The alarm mode now lives entirely on surviving banks.
    let alarm_banks = sim.modes().banks(ta::M_ALARM);
    assert!(!alarm_banks.is_empty());
    assert!(!alarm_banks.contains(&BankId(1)));

    // The mission kept doing work after the failure: at least one full
    // post-failure task cycle (a committed temperature sample).
    let post_failure_samples = sim
        .ctx()
        .samples
        .times()
        .iter()
        .filter(|&&t| t > failed_at)
        .count();
    assert!(
        post_failure_samples >= 1,
        "no task cycle completed after the bank failure"
    );

    // And the kill grid stays clean even on the degraded scenario: the
    // remapped mission survives every power-failure instant too.
    let degraded_build = || {
        let mut sim = ta::build(Variant::CapyP, short_schedule(), SEED);
        sim.set_degradation(true);
        FaultPlan::new()
            .switch_stuck_open(fail_at, BankId(1))
            .arm(&mut sim);
        sim
    };
    let options = KillGridOptions::smoke(1, 6);
    let report = explore_kill_grid(HORIZON, &options, degraded_build, |_| Ok(()));
    assert!(
        report.is_clean(),
        "degraded kill grid must be violation-free: {}\n{:?}",
        report.digest(),
        report.violations()
    );
    assert!(report.baseline.bank_failures >= 1);
}
