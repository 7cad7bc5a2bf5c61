//! The fleet workloads: `fleet_trace` and `fleet_coldstart`.
//!
//! Untraced runs take the `capy-run` path (read, parse, run, render,
//! write) at one worker and at every core; `fleet_trace` also runs the
//! checked-in manifest through `capy_manifest::run_batch` against its
//! golden artifact. Traced runs drive a serial mirror of
//! the manifest fleet path built from public calls only, with a span
//! around every layer call of every device.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use capy_manifest::{
    compile_with, parse_manifest, result_path_for, run_batch, run_manifest_on, AssertionSpec,
    CmpOp, CompiledScenario, DeviceTweak, LeakedNames, ManifestError, ScenarioManifest,
    ScenarioResult,
};
use capy_units::rng::derive_seed;
use capy_units::{SimDuration, SimTime};
use capybara::fleet::{
    parse_harvest_trace, run_fleet_on, DeviceOutcome, DevicePoint, FleetAccumulator, FleetSpec,
    SharedEnvironment, TemplateSpec, FLEET_SHARDS,
};
use capybara::sweep::DEFAULT_BASE_SEED;

use crate::host::calibrated;
use crate::stats::{median, quantile, SpanLog, NO_PARENT};
use crate::{err, killgrid, median_time, BenchError, Config, Metrics};
use crate::{Outcome, Rounds, Tally, Workload};

/// The checked-in end-to-end fleet manifest.
pub const FLEET_TRACE: &str = "manifests/fleet_trace.capy";
/// Its golden artifact.
pub const FLEET_TRACE_GOLDEN: &str = "manifests/fleet_trace.result.json";
/// The harvest trace both fleet workloads replay.
pub const TRACE: &str = "manifests/traces/cloudy_day.trace";
/// The 48-device smoke fleet (the kill-grid workload's manifest-layer
/// side probe and the mirror's test oracle).
pub const FLEET_SMOKE: &str = "manifests/fleet_smoke.capy";
/// The workload seed that reproduces `fleet_trace`'s golden artifact
/// (the manifest's own `seed =`).
pub const DEFAULT_SEED: u64 = 17;
/// `fleet_coldstart`'s population.
pub const COLDSTART_DEVICES: u64 = 100_000;
/// `fleet_coldstart`'s horizon: long enough for every device's cold
/// charge, first boot and first task under the trace, dips and shading.
pub const COLDSTART_HORIZON_S: f64 = 1.0;
/// Set-ups timed before the first repetition.
const SETUP_REPS: usize = 25;
/// Set-ups timed after each untraced round, so that `setup_s`, the
/// median of all of them, samples the host across the whole run.
const SETUP_PER_ROUND: usize = 4;
/// Samples behind the parse and emit medians.
const CALL_REPS: usize = 31;

/// A generated, on-disk fleet input.
#[derive(Debug)]
pub struct FleetInput {
    /// The manifest file, as `capy-run` would be given it.
    pub path: PathBuf,
    /// Its text.
    pub text: String,
    /// The parsed manifest.
    pub manifest: ScenarioManifest,
}

impl FleetInput {
    /// Devices in the population.
    #[must_use]
    pub fn devices(&self) -> u64 {
        self.manifest.fleet.as_ref().map_or(1, |f| f.devices)
    }

    /// Simulated device-seconds one run covers.
    #[must_use]
    pub fn sim_seconds(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let devices = self.devices() as f64;
        devices * self.manifest.limits.max_sim_seconds
    }
}

/// Scales a `sense:N, relay:M` mix, keeping at least one device each.
fn scaled_mix(mix: &[(String, u64)], scale: f64) -> Vec<(String, u64)> {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    mix.iter()
        .map(|(task, n)| (task.clone(), ((*n as f64 * scale).round() as u64).max(1)))
        .collect()
}

/// The workload's manifest text, generated from the checked-in
/// `fleet_trace` template: parse, set the seed, scale, emit. Only
/// `--seed` (and the test-only `scale`) enter the text.
///
/// # Errors
///
/// Fails when the checked-in template is missing or invalid.
pub fn generate(config: &Config) -> Result<String, BenchError> {
    let template = fs::read_to_string(config.root.join(FLEET_TRACE)).map_err(err(FLEET_TRACE))?;
    let mut manifest = parse_manifest(&template).map_err(err(FLEET_TRACE))?;
    manifest.seed = config.seed;
    match config.workload {
        Workload::FleetTrace => scale_trace(&mut manifest, config.scale),
        Workload::FleetColdstart => make_coldstart(&mut manifest, config.scale),
        Workload::KillGridTa => unreachable!("not a fleet workload"),
    }
    Ok(manifest.emit())
}

/// `fleet_trace` scaled by `scale`: the mix and the completion
/// assertion (1.0 leaves both as checked in).
fn scale_trace(manifest: &mut ScenarioManifest, scale: f64) {
    let stanza = manifest
        .fleet
        .as_mut()
        .expect("fleet_trace declares [fleet]");
    stanza.mix = scaled_mix(&stanza.mix, scale);
    stanza.devices = stanza.mix.iter().map(|(_, n)| n).sum();
    for a in &mut manifest.assertions {
        if let AssertionSpec::TotalCompletions { count, .. } = a {
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                clippy::cast_precision_loss
            )]
            let scaled = (*count as f64 * scale).round() as u64;
            *count = scaled;
        }
    }
}

/// `fleet_coldstart`'s manifest: `fleet_trace`'s two templates, trace
/// and environment at the same 7:3 mix, scaled to
/// [`COLDSTART_DEVICES`] over a [`COLDSTART_HORIZON_S`] horizon, with
/// one assertion per device (every device commits a task).
fn make_coldstart(manifest: &mut ScenarioManifest, scale: f64) {
    manifest.name = "fleet-coldstart".to_string();
    manifest.limits.max_sim_seconds = COLDSTART_HORIZON_S;
    let stanza = manifest
        .fleet
        .as_mut()
        .expect("fleet_trace declares [fleet]");
    #[allow(clippy::cast_precision_loss)]
    let factor = COLDSTART_DEVICES as f64 / stanza.devices as f64 * scale;
    stanza.mix = scaled_mix(&stanza.mix, factor);
    stanza.devices = stanza.mix.iter().map(|(_, n)| n).sum();
    manifest.assertions = vec![AssertionSpec::TotalCompletions {
        op: CmpOp::Ge,
        count: stanza.devices,
    }];
}

/// Generates the workload's manifest and writes it, with the trace
/// beside it, under the work directory; returns the parsed input.
///
/// # Errors
///
/// Fails when the checked-in template or trace is missing or invalid.
pub fn prepare(config: &Config) -> Result<FleetInput, BenchError> {
    let text = generate(config)?;
    let dir = config.work.join(config.workload.name());
    let path = dir.join(format!("{}.capy", config.workload.name()));
    fs::create_dir_all(dir.join("traces")).map_err(err("create input directory"))?;
    fs::write(&path, &text).map_err(err("write manifest"))?;
    fs::copy(config.root.join(TRACE), dir.join("traces/cloudy_day.trace"))
        .map_err(err("copy trace"))?;
    let manifest = parse_manifest(&text).map_err(err("generated manifest"))?;
    Ok(FleetInput {
        path,
        text,
        manifest,
    })
}

/// Everything the mirror needs, resolved once per manifest (the leaked
/// names and fleet name stay bounded by the number of plans).
pub struct MirrorPlan {
    manifest: ScenarioManifest,
    names: LeakedNames,
    entries: Vec<&'static str>,
    env: SharedEnvironment,
    spec: FleetSpec,
}

fn micros(s: f64) -> u64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let us = (s * 1e6).round() as u64;
    us
}

impl MirrorPlan {
    /// Resolves `manifest` (read from `file`) the way the manifest fleet
    /// path does: run seed, shared environment, template mix.
    ///
    /// # Errors
    ///
    /// Fails when the manifest has no `[fleet]` stanza or its trace or
    /// environment is invalid.
    pub fn new(manifest: &ScenarioManifest, file: &Path) -> Result<Self, BenchError> {
        let stanza = manifest
            .fleet
            .as_ref()
            .ok_or_else(|| BenchError("manifest has no [fleet] stanza".into()))?;
        let run_seed = derive_seed(DEFAULT_BASE_SEED, manifest.seed);
        let horizon_s = manifest.limits.max_sim_seconds;
        let time = |s: f64| SimDuration::from_micros(micros(s));
        let mut env = match stanza.eclipse_period_s {
            Some(period) => SharedEnvironment::orbital(time(period), stanza.eclipse_sunlit),
            None => SharedEnvironment::steady(),
        };
        if let Some(trace) = &stanza.trace {
            let path = file.parent().unwrap_or_else(|| Path::new(".")).join(trace);
            let text = fs::read_to_string(&path).map_err(err("read trace"))?;
            let samples = parse_harvest_trace(&text).map_err(err("parse trace"))?;
            env = env.with_trace(samples).map_err(err("trace environment"))?;
        }
        if stanza.dips > 0 {
            env = env.with_dips(
                derive_seed(run_seed, 0xD19),
                stanza.dips as usize,
                time(horizon_s / f64::from(stanza.dips + 1)),
                time(stanza.dip_hold_s),
                stanza.dip_factor,
            );
        }
        let env = env.shading(stanza.shading).map_err(err("shading"))?;
        let names = LeakedNames::from_manifest(manifest);
        let entries: Vec<&'static str> = stanza
            .mix
            .iter()
            .map(|(task, _)| {
                let index = manifest
                    .tasks
                    .iter()
                    .position(|t| t.name == *task)
                    .expect("parser resolved mix references");
                names.task(index)
            })
            .collect();
        let fleet_name: &'static str = Box::leak(manifest.name.clone().into_boxed_str());
        let horizon = SimTime::from_micros(micros(horizon_s));
        let spec = if stanza.mix.is_empty() {
            FleetSpec::new(fleet_name, stanza.devices, horizon)
        } else {
            let templates = entries
                .iter()
                .zip(&stanza.mix)
                .map(|(&name, (_, count))| TemplateSpec::new(name, *count))
                .collect();
            FleetSpec::mixed(fleet_name, horizon, templates)
        }
        .fleet_seed(run_seed)
        .panel_jitter(stanza.panel_jitter_pct / 100.0)
        .rate_jitter(stanza.rate_jitter_pct / 100.0)
        .environment(env.clone());
        Ok(Self {
            manifest: manifest.clone(),
            names,
            entries,
            env,
            spec,
        })
    }

    /// Simulates one device untraced: compile, run, outcome.
    #[must_use]
    pub fn device(&self, point: &DevicePoint) -> DeviceOutcome {
        let mut log = None;
        self.device_traced(point, &mut log, NO_PARENT, &mut Counts::default())
    }

    fn device_traced(
        &self,
        point: &DevicePoint,
        log: &mut Option<&mut SpanLog>,
        parent: u32,
        counts: &mut Counts,
    ) -> DeviceOutcome {
        let id = point.index;
        let compiled = span(log, "compile", parent, id, || {
            self.compile(point)
                .expect("the template compiled at set-up")
        });
        let mut sim = compiled.sim;
        span(log, "run", parent, id, || sim.run_limited(&compiled.limits));
        counts.attempts += sim.exec_stats().attempts;
        counts.events += sim.events().len() as u64;
        counts.charge_segments += sim.power().charge_segments();
        span(log, "outcome", parent, id, || {
            let completions = (0..self.manifest.tasks.len())
                .map(|i| sim.ctx().completions(i))
                .collect();
            DeviceOutcome::from_sim(&sim).with_task_completions(completions)
        })
    }

    /// Compiles one device with its fleet perturbation.
    fn compile(&self, point: &DevicePoint) -> Result<CompiledScenario, ManifestError> {
        compile_with(
            &self.manifest,
            &self.names,
            Some(&DeviceTweak {
                env: &self.env,
                point,
                entry: self.entries.get(point.template).copied(),
            }),
        )
    }

    /// The serial mirror of the manifest fleet path: devices striped
    /// over the same shards, folded per shard, merged in shard order.
    /// With a log, every device gets `device` → {`compile`, `run`,
    /// `outcome`, `fold`} spans and the merge one `merge` span.
    pub fn mirror(&self, mut log: Option<&mut SpanLog>, counts: &mut Counts) -> FleetAccumulator {
        let devices = self.spec.devices();
        let horizon = self.spec.horizon();
        let shards = FLEET_SHARDS.min(devices).max(1);
        let mut accs = Vec::with_capacity(shards as usize);
        for shard in 0..shards {
            let mut acc = FleetAccumulator::new();
            let mut index = shard;
            while index < devices {
                let point = self.spec.device(index);
                let root = log
                    .as_mut()
                    .map_or(NO_PARENT, |l| l.open("device", NO_PARENT, index));
                let outcome = self.device_traced(&point, &mut log, root, counts);
                span(&mut log, "fold", root, index, || {
                    acc.fold(horizon, &outcome)
                });
                if let Some(l) = log.as_mut() {
                    l.close(root);
                }
                index += shards;
            }
            accs.push(acc);
        }
        span(&mut log, "merge", NO_PARENT, devices, || {
            let mut merged = FleetAccumulator::new();
            for acc in &accs {
                merged.merge(acc);
            }
            merged
        })
    }
}

/// Runs `f`, as a span when a log is present.
fn span<T>(
    log: &mut Option<&mut SpanLog>,
    name: &'static str,
    parent: u32,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match log {
        Some(l) => l.time(name, parent, id, f),
        None => f(),
    }
}

/// Deterministic per-device counts summed over a mirror run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `exec_stats().attempts`.
    pub attempts: u64,
    /// `events().len()`.
    pub events: u64,
    /// `power().charge_segments()`.
    pub charge_segments: u64,
}

/// Compares the mirror's aggregate with a `run_batch`/`run_manifest_on`
/// result; `Some` names the first field that differs.
#[must_use]
pub fn aggregate_mismatch(result: &ScenarioResult, acc: &FleetAccumulator) -> Option<String> {
    let Some(fleet) = &result.fleet else {
        return Some("result has no fleet aggregate".into());
    };
    let min = if acc.min_device_completions == u64::MAX {
        0
    } else {
        acc.min_device_completions
    };
    let pairs: [(&str, u64, u64); 10] = [
        ("devices", fleet.devices, acc.devices),
        ("dead_devices", fleet.dead_devices, acc.dead_devices),
        (
            "stalled_devices",
            fleet.stalled_devices,
            acc.stalled_devices,
        ),
        ("min_device_completions", fleet.min_device_completions, min),
        (
            "max_device_completions",
            fleet.max_device_completions,
            acc.max_device_completions,
        ),
        (
            "latency_p50_us",
            fleet.latency_p50_us,
            acc.latency.quantile(0.5).unwrap_or(0),
        ),
        (
            "latency_p99_us",
            fleet.latency_p99_us,
            acc.latency.quantile(0.99).unwrap_or(0),
        ),
        ("attempts", result.summary.attempts, acc.attempts),
        ("completions", result.summary.completions, acc.completions),
        ("failures", result.summary.failures, acc.failures),
    ];
    pairs
        .iter()
        .find(|(_, a, b)| a != b)
        .map(|(name, a, b)| format!("mirror {name} = {b}, artifact {name} = {a}"))
        .or_else(|| {
            (fleet.survival != acc.survival).then(|| "mirror survival histogram differs".into())
        })
}

/// One manifest the way `capy-run` handles it — read, parse, run, render
/// and write the artifact — but with the fleet's worker count pinned
/// (`run_batch` shards over manifests and runs each fleet on every
/// core, whatever its own worker count). Returns the result and the
/// artifact text.
///
/// # Errors
///
/// Describes the first step that failed.
pub fn run_pinned(
    path: &Path,
    workers: usize,
    out_dir: &Path,
) -> Result<(ScenarioResult, String), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read manifest: {e}"))?;
    let manifest = parse_manifest(&text).map_err(|e| e.to_string())?;
    let result = run_manifest_on(&manifest, &path.display().to_string(), workers)
        .map_err(|e| e.to_string())?;
    let artifact = result.to_json().pretty();
    fs::write(result_path_for(path, Some(out_dir)), &artifact)
        .map_err(|e| format!("write artifact: {e}"))?;
    Ok((result, artifact))
}

/// Checks one run: exit 0 and an artifact identical to the reference
/// (the first one seen); for `fleet_coldstart`, every device alive and
/// past its first task. `Some` describes the failure.
fn check_run(
    workload: Workload,
    run: &Result<(ScenarioResult, String), String>,
    reference: &mut Option<String>,
) -> Option<String> {
    let (result, artifact) = match run {
        Ok(r) => r,
        Err(e) => return Some(e.clone()),
    };
    if result.exit_code != 0 {
        return Some(format!("exit code {}", result.exit_code));
    }
    if reference.get_or_insert_with(|| artifact.clone()) != artifact {
        return Some("artifact differs between runs or worker counts".into());
    }
    let fleet = result.fleet.as_ref()?;
    (workload == Workload::FleetColdstart
        && (fleet.dead_devices != 0 || fleet.min_device_completions == 0))
        .then(|| {
            format!(
                "cold start incomplete: {} dead, min completions {}",
                fleet.dead_devices, fleet.min_device_completions
            )
        })
}

/// Set-up as `setup_s` defines it: generate the manifest, parse it,
/// resolve the environment (which reads and parses the trace) and
/// compile the template once. [`prepare`] wrote the input files before
/// the first set-up, so no set-up writes to disk. Returns the text.
fn setup(config: &Config, path: &Path) -> Result<String, BenchError> {
    let text = generate(config)?;
    let manifest = parse_manifest(&text).map_err(err("generated manifest"))?;
    let plan = MirrorPlan::new(&manifest, path)?;
    plan.compile(&plan.spec.device(0))
        .map_err(err("compile the fleet template"))?;
    Ok(text)
}

/// Times `reps` set-ups into `samples`, rescaled to the reference host;
/// `false` when one generated other text than `input` holds.
fn time_setups(
    config: &Config,
    input: &FleetInput,
    reps: usize,
    samples: &mut Vec<f64>,
) -> Result<bool, BenchError> {
    let (timed, factor) = calibrated(1, || {
        let mut timed = Vec::with_capacity(reps);
        let mut same = true;
        for _ in 0..reps {
            let t = Instant::now();
            let text = setup(config, &input.path)?;
            timed.push(t.elapsed().as_secs_f64());
            same &= text == input.text;
        }
        Ok::<_, BenchError>((timed, same))
    });
    let (timed, same) = timed?;
    samples.extend(timed.iter().map(|s| s * factor));
    Ok(same)
}

fn setup_problem(same: bool) -> Option<String> {
    (!same).then(|| "the generated manifest changed between set-ups".into())
}

/// Runs one fleet workload invocation.
///
/// # Errors
///
/// Fails when an input is missing or invalid.
pub fn run(config: &Config) -> Result<Outcome, BenchError> {
    let input = prepare(config)?;
    let mut setup_samples = Vec::new();
    let mut setup_same = time_setups(config, &input, SETUP_REPS, &mut setup_samples)?;
    let plan = MirrorPlan::new(&input.manifest, &input.path)?;
    let mut tally = Tally::default();
    if config.trace {
        tally.record(setup_problem(setup_same));
        return traced(config, &input, &plan, tally);
    }

    let dir = input.path.parent().expect("input has a directory");
    let (out_one, out_all) = (dir.join("out-1"), dir.join("out-all"));
    fs::create_dir_all(&out_one).map_err(err("create output directory"))?;
    fs::create_dir_all(&out_all).map_err(err("create output directory"))?;

    let mut reference = None;
    let (mut one, mut all, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds = Rounds::new(config.budget, 3);
    while rounds.another() {
        for (workers, out, samples) in [(1, &out_one, &mut one), (config.cores, &out_all, &mut all)]
        {
            let ((run, raw), factor) = calibrated(workers, || {
                let t = Instant::now();
                let run = run_pinned(&input.path, workers, out);
                (run, t.elapsed().as_secs_f64())
            });
            samples.push(raw * factor);
            if workers == 1 {
                factors.push(factor);
            }
            tally.record(check_run(config.workload, &run, &mut reference));
        }
        setup_same &= time_setups(config, &input, SETUP_PER_ROUND, &mut setup_samples)?;
    }
    tally.record(setup_problem(setup_same));

    if config.workload == Workload::FleetTrace {
        tally.record(golden_mismatch(config)?);
    }

    let wall = median(&mut one);
    #[allow(clippy::cast_precision_loss)]
    let devices = input.devices() as f64;
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&mut setup_samples));
    metrics.set("wall_s", wall);
    metrics.set("work_per_s", devices / wall);
    metrics.set("sim_s_per_host_s", input.sim_seconds() / wall);
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

/// Runs the checked-in `fleet_trace` manifest as `capy-run` would and
/// compares its artifact with the golden byte for byte.
fn golden_mismatch(config: &Config) -> Result<Option<String>, BenchError> {
    let out = config.work.join("golden");
    fs::create_dir_all(&out).map_err(err("create golden directory"))?;
    let manifest = config.root.join(FLEET_TRACE);
    let batch = run_batch(&[manifest], config.cores, Some(&out));
    let golden = fs::read(config.root.join(FLEET_TRACE_GOLDEN)).map_err(err("read golden"))?;
    let produced = batch
        .entries
        .first()
        .and_then(|e| fs::read(&e.result_path).ok());
    Ok((produced.as_deref() != Some(golden.as_slice()))
        .then(|| "fleet_trace artifact differs from the golden".to_string()))
}

/// Per-layer numbers of one traced mirror repetition.
struct RepLayers {
    wall: f64,
    compile: (f64, f64),
    run: (f64, f64),
    device: (f64, f64),
    compile_share: f64,
    ns_per_attempt: f64,
    outcome_ns: f64,
    fold_ns: f64,
    merge_us: f64,
}

fn p50_p99_us(mut ns: Vec<f64>) -> (f64, f64) {
    (quantile(&mut ns, 0.5) / 1e3, quantile(&mut ns, 0.99) / 1e3)
}

/// Reads the per-layer numbers off one repetition's spans.
fn rep_layers(log: &SpanLog, wall: f64, devices: u64, counts: &Counts) -> RepLayers {
    #[allow(clippy::cast_precision_loss)]
    let per_device = |name| log.total_ns(name) as f64 / devices.max(1) as f64;
    #[allow(clippy::cast_precision_loss)]
    RepLayers {
        wall,
        compile: p50_p99_us(log.durations("compile")),
        run: p50_p99_us(log.durations("run")),
        device: p50_p99_us(log.durations("device")),
        compile_share: log.self_ns("compile") as f64 / log.total_ns("device").max(1) as f64,
        ns_per_attempt: log.self_ns("run") as f64 / counts.attempts.max(1) as f64,
        outcome_ns: per_device("outcome"),
        fold_ns: per_device("fold"),
        merge_us: log.total_ns("merge") as f64 / 1e3,
    }
}

/// The manifest- and fleet-layer metrics of `input`, measured by
/// alternating untraced 1-worker [`run_pinned`] runs with traced mirror
/// runs for `budget`, plus one all-cores utilization run. Every
/// traced mirror must reproduce the untraced artifact's aggregate. The
/// last repetition's spans go to `spans-<label>.tsv`.
fn layer_metrics(
    config: &Config,
    label: &str,
    input: &FleetInput,
    plan: &MirrorPlan,
    budget: Duration,
    tally: &mut Tally,
) -> Result<(Metrics, Counts), BenchError> {
    let mut metrics = Metrics::default();
    metrics.set(
        "manifest.parse_us",
        median_time(CALL_REPS, || parse_manifest(&input.text)) * 1e6,
    );

    let out = input
        .path
        .parent()
        .expect("input has a directory")
        .join("out-trace");
    fs::create_dir_all(&out).map_err(err("create output directory"))?;
    let mut log = SpanLog::new();
    let mut untraced = Vec::new();
    let mut reps: Vec<RepLayers> = Vec::new();
    let mut reference: Option<String> = None;
    let mut result: Option<ScenarioResult> = None;
    let mut first: Option<(Counts, FleetAccumulator)> = None;
    let mut rounds = Rounds::new(budget, 2);
    while rounds.another() {
        let t = Instant::now();
        let run = run_pinned(&input.path, 1, &out);
        untraced.push(t.elapsed().as_secs_f64());
        tally.record(check_run(config.workload, &run, &mut reference));
        if result.is_none() {
            result = run.ok().map(|(r, _)| r);
        }

        log.clear();
        let mut counts = Counts::default();
        let t = Instant::now();
        let parsed = log.time("parse", NO_PARENT, 0, || parse_manifest(&input.text));
        std::hint::black_box(&parsed);
        let acc = plan.mirror(Some(&mut log), &mut counts);
        let wall = t.elapsed().as_secs_f64();
        reps.push(rep_layers(&log, wall, plan.spec.devices(), &counts));
        let problem = match &result {
            None => Some("no untraced artifact to compare against".to_string()),
            Some(r) => aggregate_mismatch(r, &acc),
        }
        .or_else(|| {
            first
                .as_ref()
                .filter(|(c, _)| *c != counts)
                .map(|_| "per-layer counts changed between repetitions".to_string())
        });
        tally.record(problem);
        if first.is_none() {
            first = Some((counts, acc));
        }
    }
    let (counts, acc) = first.expect("a traced repetition ran");
    let result = result.ok_or_else(|| BenchError("no untraced result".into()))?;

    let pick = |f: &dyn Fn(&RepLayers) -> f64| {
        let mut v: Vec<f64> = reps.iter().map(f).collect();
        median(&mut v)
    };
    metrics.set("manifest.compile_us.p50", pick(&|r| r.compile.0));
    metrics.set("manifest.compile_us.p99", pick(&|r| r.compile.1));
    metrics.set("manifest.compile_share", pick(&|r| r.compile_share));
    metrics.set(
        "manifest.emit_us",
        median_time(CALL_REPS, || result.to_json().pretty()) * 1e6,
    );
    metrics.set("sim.run_us.p50", pick(&|r| r.run.0));
    metrics.set("sim.run_us.p99", pick(&|r| r.run.1));
    metrics.set("sim.ns_per_attempt", pick(&|r| r.ns_per_attempt));
    metrics.set("fleet.outcome_ns", pick(&|r| r.outcome_ns));
    metrics.set("fleet.fold_ns", pick(&|r| r.fold_ns));
    metrics.set("fleet.merge_us", pick(&|r| r.merge_us));
    #[allow(clippy::cast_precision_loss)]
    metrics.set("fleet.accumulator_bytes", acc.footprint_bytes() as f64);
    metrics.set("device_us.p50", pick(&|r| r.device.0));
    metrics.set("device_us.p99", pick(&|r| r.device.1));
    metrics.set(
        "trace.overhead_frac",
        pick(&|r| r.wall) / median(&mut untraced) - 1.0,
    );

    let (utilization, report_acc) = utilization(plan, config.cores);
    metrics.set("sweep.utilization", utilization);
    tally.record((report_acc != acc).then(|| "all-cores fleet differs from the mirror".into()));

    let spans = config.work.join(format!("spans-{label}.tsv"));
    log.write_tsv(&spans).map_err(err("write spans"))?;
    Ok((metrics, counts))
}

/// Runs the plan's fleet on `workers` threads through `run_fleet_on`,
/// summing host time spent inside the device closure; returns busy time
/// over `workers × wall` and the merged aggregate.
#[must_use]
pub fn utilization(plan: &MirrorPlan, workers: usize) -> (f64, FleetAccumulator) {
    let busy = AtomicU64::new(0);
    let t = Instant::now();
    let report = run_fleet_on(&plan.spec, workers, |point| {
        let start = Instant::now();
        let outcome = plan.device(point);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // A statistic only: no other data is published through it.
        busy.fetch_add(ns, Ordering::Relaxed);
        outcome
    });
    let wall = t.elapsed().as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let util = busy.load(Ordering::Relaxed) as f64 / 1e9 / (wall * workers.max(1) as f64);
    (util, report.acc)
}

/// The manifest- and fleet-layer metrics of the 48-device
/// `manifests/fleet_smoke.capy`, for workloads that do not touch those
/// layers themselves.
///
/// # Errors
///
/// Fails when the smoke manifest is missing or invalid.
pub fn smoke_probe(
    config: &Config,
    budget: Duration,
    tally: &mut Tally,
) -> Result<Metrics, BenchError> {
    let source = config.root.join(FLEET_SMOKE);
    let text = fs::read_to_string(&source).map_err(err(FLEET_SMOKE))?;
    let dir = config.work.join("fleet_smoke");
    fs::create_dir_all(&dir).map_err(err("create smoke directory"))?;
    let path = dir.join("fleet_smoke.capy");
    fs::write(&path, &text).map_err(err("write smoke manifest"))?;
    let manifest = parse_manifest(&text).map_err(err(FLEET_SMOKE))?;
    let plan = MirrorPlan::new(&manifest, &path)?;
    let input = FleetInput {
        path,
        text,
        manifest,
    };
    layer_metrics(config, "fleet_smoke", &input, &plan, budget, tally).map(|(metrics, _)| metrics)
}

/// A traced fleet invocation: the per-layer metrics.
fn traced(
    config: &Config,
    input: &FleetInput,
    plan: &MirrorPlan,
    mut tally: Tally,
) -> Result<Outcome, BenchError> {
    let (mut metrics, counts) = layer_metrics(
        config,
        config.workload.name(),
        input,
        plan,
        config.budget,
        &mut tally,
    )?;
    #[allow(clippy::cast_precision_loss)]
    {
        metrics.set("sim.attempts", counts.attempts as f64);
        metrics.set("sim.events", counts.events as f64);
        metrics.set("power.charge_segments", counts.charge_segments as f64);
    }
    // No kill grid runs on a fleet workload.
    for name in [
        "faults.points",
        "faults.snapshots",
        "faults.stepped_sim_s",
        "faults.build_calls",
    ] {
        metrics.set(name, 0.0);
    }
    metrics.fill_from(&killgrid::ta_probe(config.seed, &mut tally));
    Ok(Outcome {
        metrics,
        tally,
        host_factor: None,
    })
}
