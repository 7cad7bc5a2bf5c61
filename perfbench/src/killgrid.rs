//! The `kill_grid_ta` workload: a strict power-kill grid over a short
//! TA mission, plus the TA probe every traced run reports.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use capy_apps::ta;
use capy_power::harvester::SolarPanel;
use capy_units::rng::{derive_seed, DetRng};
use capy_units::SimTime;
use capybara::faults::{explore_kill_grid, KillGridOptions, KillReport};
use capybara::sim::{validate_event_log, RunLimits, Simulator};
use capybara::variant::Variant;

use crate::host::calibrated;
use crate::stats::{median, quantile, SpanLog, NO_PARENT};
use crate::{err, fleet, median_time, BenchError, Config, Metrics, Outcome, Rounds, Tally};

/// The mission horizon. The TA device cold-charges for ~3 s, precharges
/// its alarm bank until ~59 s, then samples in ~1.2 s bursts between
/// ~3 s recharges. Every seeded alarm crosses the band during the
/// recharge after the second burst, so it fires at the start of the
/// third and the burst precharge that follows outlasts the horizon:
/// every seed explores the same 346-point grid in full.
pub const HORIZON: SimTime = SimTime::from_secs(90);
/// Earliest alarm onset, µs (the excursion crosses the band ~1.9 s
/// after onset).
const ALARM_FROM_US: u64 = 63_800_000;
/// Width of the seeded onset window, µs.
const ALARM_SPAN_US: u64 = 2_000_000;
/// Checkpoint every 64th task boundary during the record pass.
pub const SNAPSHOT_STRIDE: usize = 64;
/// Set-ups timed before the first repetition and again after each
/// untraced round, so that `setup_s`, the median of all of them,
/// samples the host across the whole run.
const SETUP_REPS: usize = 51;
/// Samples behind each probe median.
const PROBE_REPS: usize = 51;

/// The alarm schedule `seed` draws: one excursion onset in the window.
#[must_use]
pub fn alarms(seed: u64) -> Vec<SimTime> {
    let mut rng = DetRng::seed_from_u64(derive_seed(seed, 0x7A));
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let offset = (rng.gen_f64() * ALARM_SPAN_US as f64) as u64;
    vec![SimTime::from_micros(ALARM_FROM_US + offset)]
}

/// The mission every kill point rebuilds.
fn build(seed: u64, alarms: &[SimTime]) -> Simulator<SolarPanel, ta::TaCtx> {
    ta::build(Variant::CapyP, alarms.to_vec(), seed)
}

/// The grid options at `workers`.
fn options(workers: usize) -> KillGridOptions {
    KillGridOptions {
        workers,
        snapshot_stride: SNAPSHOT_STRIDE,
        ..KillGridOptions::default()
    }
}

/// Explores the full grid at `workers`.
#[must_use]
pub fn explore(seed: u64, alarms: &[SimTime], workers: usize) -> KillReport {
    explore_kill_grid(
        HORIZON,
        &options(workers),
        || build(seed, alarms),
        |_| Ok(()),
    )
}

/// Records one operation per kill point (plus the baseline and each
/// dropped point): a point fails on a violation or when it differs
/// from the reference report.
pub fn check(report: &KillReport, reference: Option<&KillReport>, tally: &mut Tally) {
    tally.record(
        report
            .baseline_violation
            .as_ref()
            .map(|v| format!("baseline: {v}")),
    );
    for _ in 0..report.dropped_points {
        tally.record(Some(report.strict_violation().unwrap_or_default()));
    }
    for (i, o) in report.outcomes.iter().enumerate() {
        let differs = reference.is_some_and(|r| r.outcomes.get(i) != Some(o));
        tally.record(match (&o.violation, differs) {
            (Some(v), _) => Some(format!("kill at {}: {v}", o.kill_at)),
            (None, true) => Some(format!("kill at {} differs between runs", o.kill_at)),
            (None, false) => None,
        });
    }
}

/// Times [`SETUP_REPS`] set-ups (draw the alarm, build the TA device)
/// into `samples`, rescaled to the reference host.
fn time_setups(seed: u64, samples: &mut Vec<f64>) {
    let (timed, factor) = calibrated(1, || {
        let mut timed = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            std::hint::black_box(build(seed, &alarms(seed)));
            timed.push(t.elapsed().as_secs_f64());
        }
        timed
    });
    samples.extend(timed.iter().map(|s| s * factor));
}

/// Runs one `kill_grid_ta` invocation.
///
/// # Errors
///
/// Fails when the span log cannot be written.
pub fn run(config: &Config) -> Result<Outcome, BenchError> {
    let mut setup = Vec::new();
    time_setups(config.seed, &mut setup);
    let alarms = alarms(config.seed);
    if config.trace {
        return traced(config, &alarms);
    }

    let mut tally = Tally::default();
    let (mut one, mut all, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<KillReport> = None;
    let mut rounds = Rounds::new(config.budget, 3);
    while rounds.another() {
        for (workers, samples) in [(1, &mut one), (config.cores, &mut all)] {
            let ((report, raw), factor) = calibrated(workers, || {
                let t = Instant::now();
                let report = explore(config.seed, &alarms, workers);
                (report, t.elapsed().as_secs_f64())
            });
            samples.push(raw * factor);
            if workers == 1 {
                factors.push(factor);
            }
            check(&report, reference.as_ref(), &mut tally);
            reference.get_or_insert(report);
        }
        time_setups(config.seed, &mut setup);
    }
    let reference = reference.expect("a repetition ran");
    let wall = median(&mut one);
    #[allow(clippy::cast_precision_loss)]
    let points = reference.outcomes.len() as f64;
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&mut setup));
    metrics.set("wall_s", wall);
    metrics.set("work_per_s", points / wall);
    metrics.set(
        "sim_s_per_host_s",
        reference.stats.stepped_sim().as_secs_f64() / wall,
    );
    metrics.set("wall_s_all_cores", median(&mut all));
    metrics.set(
        "peak_rss_mb",
        crate::stats::peak_rss_mib().ok_or_else(|| BenchError("no VmHWM".into()))?,
    );
    Ok(Outcome {
        metrics,
        tally,
        host_factor: Some(median(&mut factors)),
    })
}

thread_local! {
    /// When this thread's current kill point was built.
    static POINT_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Deterministic counts gathered in the build and invariant closures.
#[derive(Debug, Default)]
struct GridCounts {
    builds: AtomicU64,
    attempts: AtomicU64,
    events: AtomicU64,
    charge_segments: AtomicU64,
    busy_ns: AtomicU64,
}

impl GridCounts {
    fn totals(&self) -> [u64; 4] {
        // Statistics only: each counter publishes no other data.
        [
            self.builds.load(Ordering::Relaxed),
            self.attempts.load(Ordering::Relaxed),
            self.events.load(Ordering::Relaxed),
            self.charge_segments.load(Ordering::Relaxed),
        ]
    }
}

/// Explores the grid with timing and counting closures. Every build is
/// counted. The first build is the record pass, which is not a kill
/// point and runs outside the point closure; every later build starts a
/// point, and the point's invariant check (its last call) ends it. Only
/// points add to the sim counts and busy time, and, with a log, get a
/// span.
fn explore_counted(
    seed: u64,
    alarms: &[SimTime],
    workers: usize,
    counts: &GridCounts,
    log: Option<&Mutex<SpanLog>>,
) -> KillReport {
    let points = AtomicU64::new(0);
    explore_kill_grid(
        HORIZON,
        &options(workers),
        || {
            let record = counts.builds.fetch_add(1, Ordering::Relaxed) == 0;
            POINT_START.with(|s| s.set((!record).then(Instant::now)));
            build(seed, alarms)
        },
        |sim| {
            let Some(start) = POINT_START.with(Cell::take) else {
                return Ok(());
            };
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            counts.busy_ns.fetch_add(ns, Ordering::Relaxed);
            counts
                .attempts
                .fetch_add(sim.exec_stats().attempts, Ordering::Relaxed);
            counts
                .events
                .fetch_add(sim.events().len() as u64, Ordering::Relaxed);
            counts
                .charge_segments
                .fetch_add(sim.power().charge_segments(), Ordering::Relaxed);
            if let Some(log) = log {
                let mut log = log.lock().expect("span log lock is never poisoned");
                let end = log.now();
                let id = points.fetch_add(1, Ordering::Relaxed);
                log.push("point", end.saturating_sub(ns), end, NO_PARENT, id);
            }
            Ok(())
        },
    )
}

/// Times `ta::build`, and snapshot, restore and event-log validation on
/// a finished mission; records the validation verdict as an operation.
pub fn ta_probe(seed: u64, tally: &mut Tally) -> Metrics {
    let alarms = alarms(seed);
    let mut metrics = Metrics::default();
    metrics.set(
        "apps.ta_build_us",
        median_time(PROBE_REPS, || build(seed, &alarms)) * 1e6,
    );
    let mut sim = build(seed, &alarms);
    let _ = sim.run_until(HORIZON);
    metrics.set(
        "sim.snapshot_us",
        median_time(PROBE_REPS, || sim.snapshot()) * 1e6,
    );
    let snap = sim.snapshot();
    metrics.set(
        "sim.restore_us",
        median_time(PROBE_REPS, || sim.restore(&snap)) * 1e6,
    );
    metrics.set(
        "sim.validate_us",
        median_time(PROBE_REPS, || validate_event_log(sim.events())) * 1e6,
    );
    tally.record(validate_event_log(sim.events()).map(|v| format!("finished mission: {v}")));
    metrics
}

/// A traced `kill_grid_ta` invocation.
fn traced(config: &Config, alarms: &[SimTime]) -> Result<Outcome, BenchError> {
    let mut tally = Tally::default();
    let mut metrics = ta_probe(config.seed, &mut tally);

    // The mission's own step loop, untouched by the grid.
    let mut runs = Vec::with_capacity(PROBE_REPS);
    let mut attempts = 0;
    for _ in 0..PROBE_REPS {
        let mut sim = build(config.seed, alarms);
        let t = Instant::now();
        std::hint::black_box(sim.run_limited(&RunLimits::until(HORIZON)));
        runs.push(t.elapsed().as_secs_f64() * 1e9);
        attempts = sim.exec_stats().attempts;
    }
    let run_ns = median(&mut runs);
    #[allow(clippy::cast_precision_loss)]
    metrics.set("sim.ns_per_attempt", run_ns / attempts.max(1) as f64);
    metrics.set("sim.run_us.p50", run_ns / 1e3);
    metrics.set("sim.run_us.p99", quantile(&mut runs, 0.99) / 1e3);

    // Traced and untraced 1-worker grids, alternated.
    let log = Mutex::new(SpanLog::new());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut device = (Vec::new(), Vec::new());
    let mut reference: Option<KillReport> = None;
    let mut first_counts: Option<[u64; 4]> = None;
    let mut rounds = Rounds::new(config.budget.mul_f64(0.7), 3);
    while rounds.another() {
        let t = Instant::now();
        let report = explore(config.seed, alarms, 1);
        untraced.push(t.elapsed().as_secs_f64());
        check(&report, reference.as_ref(), &mut tally);
        reference.get_or_insert(report);

        log.lock().expect("span log lock").clear();
        let counts = GridCounts::default();
        let t = Instant::now();
        let report = explore_counted(config.seed, alarms, 1, &counts, Some(&log));
        traced.push(t.elapsed().as_secs_f64());
        check(&report, reference.as_ref(), &mut tally);
        let counts = counts.totals();
        tally.record(
            (first_counts.is_some_and(|c| c != counts))
                .then(|| "per-layer counts changed between repetitions".to_string()),
        );
        first_counts.get_or_insert(counts);
        let mut points = log.lock().expect("span log lock").durations("point");
        device.0.push(quantile(&mut points, 0.5) / 1e3);
        device.1.push(quantile(&mut points, 0.99) / 1e3);
    }
    let reference = reference.expect("a repetition ran");
    let [builds, attempts, events, segments] = first_counts.expect("a repetition ran");
    #[allow(clippy::cast_precision_loss)]
    {
        metrics.set("sim.attempts", attempts as f64);
        metrics.set("sim.events", events as f64);
        metrics.set("power.charge_segments", segments as f64);
        metrics.set("faults.points", reference.outcomes.len() as f64);
        metrics.set("faults.snapshots", reference.stats.snapshots as f64);
        metrics.set("faults.build_calls", builds as f64);
    }
    metrics.set(
        "faults.stepped_sim_s",
        reference.stats.stepped_sim().as_secs_f64(),
    );
    metrics.set("device_us.p50", median(&mut device.0));
    metrics.set("device_us.p99", median(&mut device.1));
    metrics.set(
        "trace.overhead_frac",
        median(&mut traced) / median(&mut untraced) - 1.0,
    );

    let mut utilization = Vec::new();
    for _ in 0..3 {
        let counts = GridCounts::default();
        let t = Instant::now();
        let report = explore_counted(config.seed, alarms, config.cores, &counts, None);
        let wall = t.elapsed().as_secs_f64();
        check(&report, Some(&reference), &mut tally);
        #[allow(clippy::cast_precision_loss)]
        utilization.push(
            counts.busy_ns.load(Ordering::Relaxed) as f64
                / 1e9
                / (wall * config.cores.max(1) as f64),
        );
    }
    metrics.set("sweep.utilization", median(&mut utilization));

    let spans = config.work.join("spans-kill_grid_ta.tsv");
    log.into_inner()
        .expect("span log lock")
        .write_tsv(&spans)
        .map_err(err("write spans"))?;

    // The grid never touches the manifest or fleet layers: those come
    // from the 48-device smoke fleet.
    let smoke = fleet::smoke_probe(config, config.budget.mul_f64(0.2), &mut tally)?;
    metrics.fill_from(&smoke);
    Ok(Outcome {
        metrics,
        tally,
        host_factor: None,
    })
}
