//! End-to-end and per-layer benchmark of the Capybara reproduction.
//!
//! One command runs one workload for a fixed host-time budget and prints
//! one JSON result line. Untraced runs (`--trace 0`) report the
//! end-to-end metrics; traced runs (`--trace 1`) report the per-layer
//! metrics, measured only by timing calls into each layer's public API
//! from this crate — nothing inside the program is instrumented. See
//! `README.md` beside this crate for the workloads and the metric map.

#![warn(missing_docs)]

pub mod fleet;
pub mod host;
pub mod killgrid;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Every end-to-end metric with its unit, in print order (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "items/s"),
    ("sim_s_per_host_s", "sim-s/s"),
    ("wall_s_all_cores", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric with its unit, in print order (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("manifest.parse_us", "us"),
    ("manifest.compile_us.p50", "us"),
    ("manifest.compile_us.p99", "us"),
    ("manifest.compile_share", "ratio"),
    ("manifest.emit_us", "us"),
    ("sim.run_us.p50", "us"),
    ("sim.run_us.p99", "us"),
    ("sim.ns_per_attempt", "ns"),
    ("sim.attempts", "count"),
    ("sim.events", "count"),
    ("sim.snapshot_us", "us"),
    ("sim.restore_us", "us"),
    ("sim.validate_us", "us"),
    ("power.charge_segments", "count"),
    ("fleet.outcome_ns", "ns"),
    ("fleet.fold_ns", "ns"),
    ("fleet.merge_us", "us"),
    ("fleet.accumulator_bytes", "count"),
    ("sweep.utilization", "ratio"),
    ("faults.points", "count"),
    ("faults.snapshots", "count"),
    ("faults.stepped_sim_s", "sim-s"),
    ("faults.build_calls", "count"),
    ("apps.ta_build_us", "us"),
    ("device_us.p50", "us"),
    ("device_us.p99", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The checked-in 10,240-device trace-driven fleet, seed substituted.
    FleetTrace,
    /// A generated ~100k-device fleet whose horizon covers only the cold
    /// charge and first boot.
    FleetColdstart,
    /// A strict TA power-kill grid.
    KillGridTa,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 3] = [Self::FleetTrace, Self::FleetColdstart, Self::KillGridTa];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::FleetTrace => "fleet_trace",
            Self::FleetColdstart => "fleet_coldstart",
            Self::KillGridTa => "kill_grid_ta",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// The workload seed every generated input derives from.
    pub seed: u64,
    /// Host-time budget of the measured phase.
    pub budget: Duration,
    /// Report per-layer (`true`) or end-to-end (`false`) metrics.
    pub trace: bool,
    /// The checkout root (holds `manifests/`).
    pub root: PathBuf,
    /// Scratch directory for generated inputs, artifacts and spans.
    pub work: PathBuf,
    /// The all-cores worker count (`nproc`).
    pub cores: usize,
    /// Scale factor on the workload's population (1.0 = the benchmark's
    /// size; tests run reduced sizes).
    pub scale: f64,
}

/// Operation tally behind the `attempted`/`failed` result fields. An
/// operation is one manifest run or one kill point.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Why, for the first few failures.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation; `problem` is `Some` when it failed.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(p);
            }
        }
    }
}

/// Metric values keyed by name; [`Metrics::render`] checks the set
/// against the declared list before anything is printed.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` (must be declared in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric `{name}`"
        );
        self.0.insert(name, value);
    }

    /// Merges `other` in, keeping this map's value where both are set
    /// (a workload's own measurement wins over a side probe's).
    pub fn fill_from(&mut self, other: &Metrics) {
        for (k, v) in &other.0 {
            self.0.entry(k).or_insert(*v);
        }
    }

    /// Renders the `metrics` JSON object in declared order.
    ///
    /// # Errors
    ///
    /// Names the first declared metric that is missing or not finite, or
    /// the first metric set that `declared` does not list.
    pub fn render(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        if let Some(extra) = self
            .0
            .keys()
            .find(|k| !declared.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric `{extra}` is not declared for this mode"));
        }
        let mut parts = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let value = *self
                .0
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            parts.push(format!(
                // `{:?}` prints every significant digit in a JSON-valid form.
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// One finished invocation.
#[derive(Debug)]
pub struct Outcome {
    /// The reported metrics.
    pub metrics: Metrics,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Median host-speed factor of the 1-worker repetitions (see
    /// [`host`]); `None` in traced runs, which report raw host time.
    pub host_factor: Option<f64>,
}

impl Outcome {
    /// `true` when every operation passed its checks.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The single JSON result line.
    ///
    /// # Errors
    ///
    /// Fails when the metric set does not match the declared list.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            self.metrics.render(declared)?
        ))
    }
}

/// A fatal input or environment problem (the benchmark prints no result).
#[derive(Debug)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

/// Wraps any displayable error with context.
pub fn err<E: fmt::Display>(context: &str) -> impl FnOnce(E) -> BenchError + '_ {
    move |e| BenchError(format!("{context}: {e}"))
}

/// Runs one invocation.
///
/// # Errors
///
/// Returns a [`BenchError`] when an input is missing or unreadable.
pub fn run(config: &Config) -> Result<Outcome, BenchError> {
    fs::create_dir_all(&config.work).map_err(err("create work directory"))?;
    match config.workload {
        Workload::FleetTrace | Workload::FleetColdstart => fleet::run(config),
        Workload::KillGridTa => killgrid::run(config),
    }
}

/// Repetition control: keeps going until the budget has elapsed and at
/// least `min_rounds` rounds ran.
#[derive(Debug)]
pub struct Rounds {
    start: Instant,
    budget: Duration,
    min_rounds: usize,
    done: usize,
}

impl Rounds {
    /// Starts the clock.
    #[must_use]
    pub fn new(budget: Duration, min_rounds: usize) -> Self {
        Self {
            start: Instant::now(),
            budget,
            min_rounds,
            done: 0,
        }
    }

    /// `true` while another round should run (counts the round).
    pub fn another(&mut self) -> bool {
        let more = self.done < self.min_rounds || self.start.elapsed() < self.budget;
        self.done += usize::from(more);
        more
    }
}

/// Times `f` `reps` times and returns the median in seconds.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&mut samples)
}
