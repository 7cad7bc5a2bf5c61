//! The benchmark's own checks: the traced mirror reproduces the manifest
//! fleet path, reduced runs are deterministic, and the printed metrics
//! are exactly the ones `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use capy_manifest::{parse_json, parse_manifest, run_manifest_on, JsonValue};
use perfbench::fleet::{self, aggregate_mismatch, Counts, MirrorPlan};
use perfbench::stats::SpanLog;
use perfbench::{killgrid, run, Config, Workload, END_TO_END, PER_LAYER};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// A reduced-size configuration. Like the benchmark command it runs
/// from the repository root: the golden artifact names its manifest by
/// the root-relative path.
fn reduced(workload: Workload, seed: u64, trace: bool, tag: &str) -> Config {
    std::env::set_current_dir(repo()).expect("the repository root exists");
    Config {
        workload,
        seed,
        budget: Duration::ZERO,
        trace,
        root: PathBuf::new(),
        work: Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "perfbench-{tag}-{}-{}",
            workload.name(),
            u8::from(trace)
        )),
        cores: 2,
        scale: 0.002,
    }
}

fn benchmark_json() -> JsonValue {
    let text = fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json exists");
    parse_json(&text).expect("BENCHMARK.json parses with capy_manifest::parse_json")
}

fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` array"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("`{key}` entry has a `{f}` string"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn object_keys(value: &JsonValue) -> BTreeSet<String> {
    match value {
        JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn benchmark_json_parses_and_declares_every_workload() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("a `workloads` array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
}

#[test]
fn declared_metrics_are_exactly_the_printed_ones() {
    let doc = benchmark_json();
    let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), as_owned(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), as_owned(PER_LAYER));
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "metric name `{name}` must match [A-Za-z0-9_.-]+"
        );
    }
}

/// Every workload, reduced, in both modes: passes its own checks and
/// prints exactly the metric names `BENCHMARK.json` declares for the
/// mode.
#[test]
fn reduced_runs_pass_and_print_the_declared_metrics() {
    let doc = benchmark_json();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let config = reduced(workload, 4242, trace, "names");
            let outcome = run(&config).expect("the reduced run has its inputs");
            assert!(
                outcome.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                outcome.tally.notes
            );
            let line = outcome.result_line(trace).expect("every metric measured");
            let result = parse_json(&line).expect("the result line is JSON");
            let printed = object_keys(result.get("metrics").expect("a metrics object"));
            let key = if trace { "per_layer" } else { "end_to_end" };
            let want: BTreeSet<String> = declared(&doc, key).into_iter().map(|(n, _)| n).collect();
            assert_eq!(printed, want, "{} trace={trace}", workload.name());
        }
    }
}

/// The serial traced mirror reproduces `run_manifest_on` on the
/// 48-device smoke fleet, traced or not, and so does the all-cores
/// `run_fleet_on` used for utilization.
#[test]
fn mirror_matches_run_manifest_on_for_fleet_smoke() {
    let path = repo().join(fleet::FLEET_SMOKE);
    let text = fs::read_to_string(&path).expect("fleet_smoke.capy exists");
    let manifest = parse_manifest(&text).expect("fleet_smoke parses");
    let result = run_manifest_on(&manifest, &path.display().to_string(), 2).expect("runs");
    let plan = MirrorPlan::new(&manifest, &path).expect("plan resolves");

    let mut counts = Counts::default();
    let untraced = plan.mirror(None, &mut counts);
    assert_eq!(aggregate_mismatch(&result, &untraced), None);

    let mut log = SpanLog::new();
    let mut traced_counts = Counts::default();
    let traced = plan.mirror(Some(&mut log), &mut traced_counts);
    assert_eq!(traced, untraced);
    assert_eq!(traced_counts, counts);
    assert_eq!(log.durations("device").len(), 48);
    assert_eq!(log.durations("compile").len(), 48);
    assert_eq!(log.durations("merge").len(), 1);

    let (utilization, parallel) = fleet::utilization(&plan, 2);
    assert_eq!(parallel, untraced);
    assert!(utilization > 0.0 && utilization <= 1.0 + 1e-9);
}

/// At the default seed and full size, the generated `fleet_trace`
/// manifest is the checked-in one; only the seed changes at other seeds.
#[test]
fn generated_fleet_trace_is_the_checked_in_manifest_at_the_default_seed() {
    let text = fs::read_to_string(repo().join(fleet::FLEET_TRACE)).expect("fleet_trace exists");
    let checked_in = parse_manifest(&text).expect("fleet_trace parses");
    let mut config = reduced(Workload::FleetTrace, fleet::DEFAULT_SEED, false, "generate");
    config.scale = 1.0;
    let generated = fleet::generate(&config).expect("generates");
    assert_eq!(parse_manifest(&generated).expect("parses"), checked_in);

    config.seed = 987_654_321;
    let mut reseeded = parse_manifest(&fleet::generate(&config).expect("generates")).unwrap();
    assert_eq!(reseeded.seed, config.seed);
    reseeded.seed = checked_in.seed;
    assert_eq!(reseeded, checked_in);
}

/// Reduced inputs at a non-default seed: the generated manifests and
/// their artifacts repeat byte for byte, across worker counts too, and
/// the kill grid explores the same strict grid at any worker count.
#[test]
fn reduced_runs_are_deterministic_at_a_non_default_seed() {
    let seed = 987_654_321;
    assert_ne!(seed, fleet::DEFAULT_SEED);
    for workload in [Workload::FleetTrace, Workload::FleetColdstart] {
        let config = reduced(workload, seed, false, "determinism");
        let first = fleet::prepare(&config).expect("inputs generate");
        let second = fleet::prepare(&config).expect("inputs generate");
        assert_eq!(first.text, second.text);
        assert!(first.text.contains(&format!("seed = {seed}")));
        let out = config.work.join("out");
        fs::create_dir_all(&out).unwrap();
        let (r1, a1) = fleet::run_pinned(&first.path, 1, &out).expect("runs");
        let (_, a2) = fleet::run_pinned(&first.path, 1, &out).expect("runs");
        let (_, a3) = fleet::run_pinned(&first.path, 3, &out).expect("runs");
        assert_eq!(r1.exit_code, 0, "{}: {:?}", workload.name(), r1.assertions);
        assert_eq!(a1, a2);
        assert_eq!(a1, a3);
    }

    let alarms = killgrid::alarms(seed);
    assert_eq!(alarms, killgrid::alarms(seed));
    let serial = killgrid::explore(seed, &alarms, 1);
    let parallel = killgrid::explore(seed, &alarms, 3);
    assert!(serial.is_clean_strict(), "{}", serial.digest());
    assert_eq!(serial, parallel);
    assert_eq!(serial.stats.stepped_sim(), parallel.stats.stepped_sim());
}
