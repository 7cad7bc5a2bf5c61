//! The `capy-scenario/v1` protocol contract:
//!
//! * parse → emit → parse round-trips to an equal manifest;
//! * `result.json` artifacts are bit-identical across reruns and for
//!   any batch worker count (golden determinism);
//! * every [`ManifestError`] variant surfaces with its line/field
//!   diagnostic;
//! * exit codes follow the protocol table.

use std::fs;
use std::path::PathBuf;

use capybara_suite::manifest::{
    parse_manifest, run_batch, run_manifest_on, validate_json, ManifestError, EXIT_ASSERT,
    EXIT_LIMIT, EXIT_PASS, RESULT_SCHEMA,
};
use capybara_suite::sweep::available_workers;

/// A scenario exercising nearly every grammar production: every
/// harvester field in use, multiple banks/modes/tasks, sleep + repeat,
/// a policy ladder, faults with margin, all limit kinds, and one of
/// each assertion form.
const KITCHEN_SINK: &str = "\
schema = capy-scenario/v1
name = kitchen-sink
seed = 7
variant = cb-p
mcu = msp430fr5969
degradation = true
harvest_during_operation = true

[harvester]
kind = square-wave
power_mw = 6.5
voltage = 3
on_ms = 1500
off_ms = 500
cycles = 400

[bank small]
parts = ceramic_x5r_300uf, ceramic_x5r_100uf
switch = normally-closed

[bank big]
parts = edlc_7_5mf
switch = normally-open

[mode sense-mode]
banks = small

[mode radio-mode]
banks = big

[task sample]
energy = preburst radio-mode sense-mode
compute_ms = 5.5
sleep_ms = 100
repeat = 4
then = send

[task send]
energy = burst radio-mode
compute_ms = 80
then = sample

[policy]
kind = reactive
ladder = sense-mode, radio-mode
timeout_ms = 5000

[faults]
fault = weak-latch big 8 @ 200
fault = degraded small 0.7 1.5 @ 400
startup_margin_v = 0.05

[limits]
max_sim_seconds = 600
max_steps = 100000
no_progress_steps = 50000
max_energy_joules = 2.5

[assert]
completions = sample >= 1
total_completions = >= 1
failures = <= 100000
require_event = boot
forbid_event = bank-failed
min_availability = 0.01
";

/// A minimal valid manifest, used as the base for error-injection
/// tests.
fn minimal(mutate: impl Fn(&mut String)) -> String {
    let mut text = String::from(
        "\
schema = capy-scenario/v1
name = minimal
variant = cb-p

[harvester]
kind = constant
power_mw = 5
voltage = 3

[bank small]
parts = ceramic_x5r_400uf, tantalum_330uf
switch = normally-closed

[bank big]
parts = edlc_7_5mf
switch = normally-open

[mode sense-mode]
banks = small

[mode alert-mode]
banks = big

[task sense]
energy = preburst alert-mode sense-mode
compute_ms = 10
then = alert

[task alert]
energy = burst alert-mode
compute_ms = 50
then = stop

[limits]
max_sim_seconds = 600
",
    );
    mutate(&mut text);
    text
}

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

// --- round-trip ---

#[test]
fn parse_emit_parse_round_trips_kitchen_sink() {
    let parsed = parse_manifest(KITCHEN_SINK).expect("kitchen sink parses");
    let emitted = parsed.emit();
    let reparsed = parse_manifest(&emitted).expect("canonical emit parses");
    assert_eq!(parsed, reparsed, "round-trip must be lossless");
    // The canonical form is a fixed point: emitting again is identical.
    assert_eq!(emitted, reparsed.emit());
}

#[test]
fn parse_emit_parse_round_trips_checked_in_manifests() {
    for rel in [
        "manifests/quickstart.capy",
        "manifests/temperature_alarm.capy",
        "manifests/fleet_smoke.capy",
        "manifests/fleet_trace.capy",
    ] {
        let text = fs::read_to_string(repo_path(rel)).expect("checked-in manifest reads");
        let parsed = parse_manifest(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let reparsed = parse_manifest(&parsed.emit()).expect("canonical emit parses");
        assert_eq!(parsed, reparsed, "{rel} round-trip must be lossless");
    }
}

// --- golden determinism ---

#[test]
fn same_manifest_twice_is_bit_identical() {
    let manifest = parse_manifest(KITCHEN_SINK).expect("parses");
    let a = run_manifest_on(&manifest, "kitchen-sink.capy", 1).expect("runs");
    let b = run_manifest_on(&manifest, "kitchen-sink.capy", 1).expect("runs");
    assert_eq!(a, b, "reruns must agree exactly");
    assert_eq!(a.to_json().pretty(), b.to_json().pretty());
}

#[test]
fn batch_artifacts_identical_for_any_worker_count() {
    let dir = std::env::temp_dir().join(format!("capy-batch-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let src: Vec<PathBuf> = [
        "manifests/quickstart.capy",
        "manifests/temperature_alarm.capy",
        "manifests/fleet_smoke.capy",
    ]
    .iter()
    .map(|rel| {
        let dst = dir.join(PathBuf::from(rel).file_name().unwrap());
        fs::copy(repo_path(rel), &dst).expect("copy manifest");
        dst
    })
    .collect();

    let serial = run_batch(&src, 1, None);
    assert_eq!(serial.exit_code, EXIT_PASS);
    let artifacts: Vec<String> = serial
        .entries
        .iter()
        .map(|e| fs::read_to_string(&e.result_path).expect("artifact written"))
        .collect();

    for workers in [2, 8] {
        let parallel = run_batch(&src, workers, None);
        assert_eq!(parallel.exit_code, EXIT_PASS);
        for (entry, expected) in parallel.entries.iter().zip(&artifacts) {
            let got = fs::read_to_string(&entry.result_path).expect("artifact written");
            assert_eq!(
                &got,
                expected,
                "artifact for {} must be bit-identical at {workers} workers",
                entry.path.display()
            );
            validate_json(&got, Some(RESULT_SCHEMA))
                .unwrap_or_else(|e| panic!("{}: {e}", entry.result_path.display()));
        }
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn checked_in_artifacts_match_fresh_runs() {
    // The result.json files committed next to the manifests are the
    // golden outputs; a fresh in-process run must reproduce them bit
    // for bit (catches accidental protocol drift in either direction).
    for rel in [
        "manifests/quickstart",
        "manifests/temperature_alarm",
        "manifests/fleet_smoke",
        "manifests/fleet_trace",
    ] {
        let manifest_path = repo_path(&format!("{rel}.capy"));
        let text = fs::read_to_string(&manifest_path).expect("manifest reads");
        let manifest = parse_manifest(&text).expect("parses");
        // The checked-in artifacts are produced by `capy-run manifests/`,
        // which records the path as given on its command line.
        let file_label = format!(
            "manifests/{}.capy",
            manifest_path.file_stem().unwrap().to_string_lossy()
        );
        let fresh = run_manifest_on(&manifest, &file_label, available_workers()).expect("runs");
        let golden =
            fs::read_to_string(repo_path(&format!("{rel}.result.json"))).expect("golden artifact");
        assert_eq!(
            fresh.to_json().pretty(),
            golden,
            "{rel}.result.json has drifted; regenerate with `capy-run manifests/`"
        );
    }
}

#[test]
fn fleet_artifact_identical_for_any_worker_count() {
    let text = fs::read_to_string(repo_path("manifests/fleet_smoke.capy")).expect("manifest reads");
    let manifest = parse_manifest(&text).expect("parses");
    let serial = run_manifest_on(&manifest, "fleet_smoke.capy", 1).expect("runs");
    assert!(serial.fleet.is_some(), "fleet stanza must aggregate");
    for workers in [2, 8] {
        let parallel = run_manifest_on(&manifest, "fleet_smoke.capy", workers).expect("runs");
        assert_eq!(serial, parallel, "fleet result must not depend on workers");
        assert_eq!(serial.to_json().pretty(), parallel.to_json().pretty());
    }
}

#[test]
fn trace_fleet_artifact_identical_for_any_worker_count() {
    // The 10k-device heterogeneous, trace-driven population: the fleet
    // v2 acceptance gate. The label is absolute so the trace file
    // resolves regardless of the test harness's working directory.
    let path = repo_path("manifests/fleet_trace.capy");
    let text = fs::read_to_string(&path).expect("manifest reads");
    let manifest = parse_manifest(&text).expect("parses");
    let label = path.display().to_string();
    let serial = run_manifest_on(&manifest, &label, 1).expect("runs");
    let fleet = serial.fleet.as_ref().expect("fleet stanza aggregates");
    assert_eq!(fleet.devices, 10_240);
    assert_eq!(
        fleet.mix,
        vec![("sense".to_string(), 7_168), ("relay".to_string(), 3_072)]
    );
    assert_eq!(fleet.trace.as_deref(), Some("traces/cloudy_day.trace"));
    // `then = stay` means a device only ever runs its entry task, so
    // relay completions prove the mix's per-template entry points took.
    let relay = serial
        .task_completions
        .iter()
        .find(|(name, _)| name == "relay")
        .expect("relay counted");
    assert!(relay.1 > 0, "relay devices must boot into `relay`");
    for workers in [2, 8] {
        let parallel = run_manifest_on(&manifest, &label, workers).expect("runs");
        assert_eq!(
            serial.to_json().pretty(),
            parallel.to_json().pretty(),
            "trace fleet artifact must be byte-identical on {workers} workers"
        );
    }
}

#[test]
fn fleet_mix_and_devices_are_mutually_exclusive() {
    let text = fs::read_to_string(repo_path("manifests/fleet_trace.capy")).expect("reads");
    let text = text.replace("[fleet]", "[fleet]\ndevices = 10");
    match parse_manifest(&text).unwrap_err() {
        ManifestError::BadValue { key, expected, .. } => {
            assert_eq!(key, "devices");
            assert!(expected.contains("not both"), "{expected}");
        }
        other => panic!("expected BadValue, got {other:?}"),
    }
}

#[test]
fn fleet_trace_and_eclipse_are_mutually_exclusive() {
    let text = fs::read_to_string(repo_path("manifests/fleet_trace.capy")).expect("reads");
    let text = text.replace("[fleet]", "[fleet]\neclipse_period_s = 60");
    match parse_manifest(&text).unwrap_err() {
        ManifestError::BadValue { key, expected, .. } => {
            assert_eq!(key, "trace");
            assert!(expected.contains("eclipse_period_s"), "{expected}");
        }
        other => panic!("expected BadValue, got {other:?}"),
    }
}

#[test]
fn fleet_mix_rejects_bad_templates() {
    // Malformed entry: no count.
    let make = |mix: &str| {
        minimal(|t| {
            t.push_str(&format!("\n[fleet]\nmix = {mix}\n"));
        })
    };
    match parse_manifest(&make("sense")).unwrap_err() {
        ManifestError::BadValue { key, expected, .. } => {
            assert_eq!(key, "mix");
            assert!(expected.contains("<task>:<count>"), "{expected}");
        }
        other => panic!("expected BadValue, got {other:?}"),
    }
    // Zero count.
    assert!(matches!(
        parse_manifest(&make("sense:0")).unwrap_err(),
        ManifestError::BadValue { .. }
    ));
    // The same template twice.
    match parse_manifest(&make("sense:3, sense:4")).unwrap_err() {
        ManifestError::Duplicate { kind, name, .. } => {
            assert_eq!(kind, "mix template");
            assert_eq!(name, "sense");
        }
        other => panic!("expected Duplicate, got {other:?}"),
    }
    // A template task that is never declared.
    match parse_manifest(&make("sense:3, transmit:4")).unwrap_err() {
        ManifestError::UnknownName { field, name, .. } => {
            assert_eq!(field, "mix");
            assert_eq!(name, "transmit");
        }
        other => panic!("expected UnknownName, got {other:?}"),
    }
}

#[test]
fn fleet_missing_population_names_both_keys() {
    let text = minimal(|t| t.push_str("\n[fleet]\npanel_jitter_pct = 5\n"));
    assert_eq!(
        parse_manifest(&text).unwrap_err(),
        ManifestError::MissingField {
            section: "fleet".to_string(),
            field: "devices (or mix)".to_string()
        }
    );
}

#[test]
fn unreadable_trace_is_a_build_error() {
    let text = minimal(|t| {
        t.push_str("\n[fleet]\ndevices = 4\ntrace = does/not/exist.trace\n");
    });
    let manifest = parse_manifest(&text).expect("parses");
    match run_manifest_on(&manifest, "m.capy", 1).unwrap_err() {
        ManifestError::Build { message } => {
            assert!(message.contains("cannot read trace"), "{message}");
        }
        other => panic!("expected Build, got {other:?}"),
    }
}

#[test]
fn fleet_rejects_per_device_assertions() {
    let text = fs::read_to_string(repo_path("manifests/fleet_smoke.capy")).expect("manifest reads");
    let text = text.replace("min_availability = 0.2", "require_event = boot");
    let manifest = parse_manifest(&text).expect("parses");
    match run_manifest_on(&manifest, "m.capy", 1).unwrap_err() {
        ManifestError::Build { message } => {
            assert!(message.contains("per-device"), "{message}");
        }
        other => panic!("expected Build, got {other:?}"),
    }
}

// --- exit codes ---

#[test]
fn failing_assertion_exits_one() {
    let text = minimal(|t| t.push_str("\n[assert]\ncompletions = alert >= 999\n"));
    let manifest = parse_manifest(&text).expect("parses");
    let result = run_manifest_on(&manifest, "m.capy", 1).expect("runs");
    assert_eq!(result.exit_code, EXIT_ASSERT);
    assert!(!result.passed);
    assert!(!result.assertions[0].passed);
}

#[test]
fn tripped_limit_exits_two() {
    let text = minimal(|t| {
        *t = t.replace(
            "max_sim_seconds = 600",
            "max_sim_seconds = 600\nmax_steps = 1",
        );
    });
    let manifest = parse_manifest(&text).expect("parses");
    let result = run_manifest_on(&manifest, "m.capy", 1).expect("runs");
    assert_eq!(result.exit_code, EXIT_LIMIT);
    assert_eq!(result.outcome, "step-budget");
}

// --- one test per ManifestError variant, each checking the diagnostic ---

#[test]
fn unsupported_schema_reports_line_and_schema() {
    let err = parse_manifest("schema = capy-scenario/v9\n").unwrap_err();
    assert_eq!(
        err,
        ManifestError::UnsupportedSchema {
            line: 1,
            found: "capy-scenario/v9".to_string()
        }
    );
    assert!(err.to_string().contains("line 1"), "{err}");
}

#[test]
fn syntax_error_reports_line() {
    let text = minimal(|t| t.push_str("\nthis line is not a key value pair\n"));
    let line = text.lines().count();
    match parse_manifest(&text).unwrap_err() {
        ManifestError::Syntax { line: l, message } => {
            assert_eq!(l, line);
            assert!(message.contains("key = value"), "{message}");
        }
        other => panic!("expected Syntax, got {other:?}"),
    }
}

#[test]
fn unknown_section_reports_line_and_name() {
    let text = minimal(|t| t.push_str("\n[thermals]\nq = 1\n"));
    match parse_manifest(&text).unwrap_err() {
        ManifestError::UnknownSection { line, section } => {
            assert_eq!(section, "thermals");
            assert!(line > 1);
        }
        other => panic!("expected UnknownSection, got {other:?}"),
    }
}

#[test]
fn unknown_key_reports_section_and_key() {
    let text = minimal(|t| {
        *t = t.replace(
            "switch = normally-closed",
            "switch = normally-closed\ncolour = red",
        );
    });
    match parse_manifest(&text).unwrap_err() {
        ManifestError::UnknownKey { section, key, .. } => {
            assert_eq!(section, "bank small");
            assert_eq!(key, "colour");
        }
        other => panic!("expected UnknownKey, got {other:?}"),
    }
}

#[test]
fn bad_value_reports_key_value_and_expectation() {
    let text = minimal(|t| {
        *t = t.replace("variant = cb-p", "variant = hyperdrive");
    });
    match parse_manifest(&text).unwrap_err() {
        ManifestError::BadValue {
            line,
            key,
            value,
            expected,
        } => {
            assert_eq!(line, 3);
            assert_eq!(key, "variant");
            assert_eq!(value, "hyperdrive");
            assert!(expected.contains("cb-p"), "{expected}");
        }
        other => panic!("expected BadValue, got {other:?}"),
    }
}

#[test]
fn duplicate_reports_kind_and_name() {
    let text = minimal(|t| {
        t.push_str("\n[task sense]\nenergy = unannotated\ncompute_ms = 1\nthen = stop\n");
    });
    match parse_manifest(&text).unwrap_err() {
        ManifestError::Duplicate { kind, name, .. } => {
            assert_eq!(kind, "task");
            assert_eq!(name, "sense");
        }
        other => panic!("expected Duplicate, got {other:?}"),
    }
}

#[test]
fn unknown_name_reports_field_and_name() {
    let text = minimal(|t| {
        *t = t.replace("then = alert", "then = transmit");
    });
    match parse_manifest(&text).unwrap_err() {
        ManifestError::UnknownName { field, name, line } => {
            assert_eq!(field, "then");
            assert_eq!(name, "transmit");
            assert!(line > 1);
        }
        other => panic!("expected UnknownName, got {other:?}"),
    }
}

#[test]
fn missing_field_reports_section_and_field() {
    let text = minimal(|t| {
        *t = t.replace("max_sim_seconds = 600\n", "");
    });
    assert_eq!(
        parse_manifest(&text).unwrap_err(),
        ManifestError::MissingField {
            section: "limits".to_string(),
            field: "max_sim_seconds".to_string()
        }
    );
}

#[test]
fn build_rejection_surfaces_as_manifest_error() {
    // Structurally valid text but an impossible scenario: an EWMA
    // ladder whose thresholds do not ascend cannot be constructed, and
    // the compiler reports that as the exit-3 Build variant instead of
    // panicking inside the policy constructor.
    let text = minimal(|t| {
        // Three rungs need two thresholds, and they must ascend; these
        // descend.
        t.push_str(
            "\n[policy]\nkind = ewma\nladder = sense-mode, alert-mode, sense-mode\n\
             thresholds_mw = 9, 2\nalpha = 0.5\n",
        );
    });
    let manifest = parse_manifest(&text).expect("parses");
    match run_manifest_on(&manifest, "m.capy", 1).unwrap_err() {
        ManifestError::Build { message } => {
            assert!(message.contains("ascend"), "{message}");
        }
        other => panic!("expected Build, got {other:?}"),
    }
}
