#!/usr/bin/env bash
# Local CI: everything a PR must keep green.
#
#   ./ci.sh          run the full gate: build, tests, lints, formatting,
#                    bench compile + end-to-end bench runs, the perf
#                    trajectory artifact, and the manifests/ scenario
#                    batch with schema-validated result.json artifacts
#   ./ci.sh --quick  the fast inner loop: build, tests, clippy, fmt, and
#                    the capy-run smoke batch — skips the benches and
#                    example smoke runs (minutes → seconds)
#
# The bench compile check (`cargo bench --no-run`) keeps the
# harness = false figure binaries from rotting — `cargo test` alone
# never builds them.
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
fi

run() {
    echo "==> $*"
    "$@"
}

# The root manifest is both the facade package and the workspace, so
# every step pins --workspace: without it cargo only covers the facade.
run cargo build --release --workspace
run cargo test -q --workspace
run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --all -- --check

# The scenario-manifest batch: compile capy-run, execute every checked-in
# manifest headlessly, and fail the gate on any nonzero exit (assertion
# failure, limit hit, manifest error) or malformed artifact. The runner
# regenerates the checked-in result.json files in place; golden tests in
# tests/manifest_protocol.rs pin their content, and `git status` will
# show any drift to commit.
run cargo build --release --bin capy-run
CAPY_RUN=target/release/capy-run
run "$CAPY_RUN" manifests/
for artifact in manifests/*.result.json; do
    run "$CAPY_RUN" --validate-json "$artifact" --schema capy-result/v1
done

# Seeded fuzz smoke gate: a fixed master seed and a small case budget of
# randomized kill/fault schedules (including correlated rail surges)
# must recover cleanly; any violation's digest prints the
# (master_seed, case_index) reproducer. Cheap enough for the quick gate.
run cargo run --release --example fuzz -- --smoke

# Fleet smoke gate: a 1k-device population must stream through the
# fleet engine, and --check pins the parallel-vs-serial bit-identity of
# the merged report. The checked-in perf artifact must also carry the
# fleet_devices_per_s series (the schema validator rejects it without).
run cargo run --release --example fleet -- --devices 1000 --check
run "$CAPY_RUN" --validate-json BENCH_sim_throughput.json --schema capybara-sim-throughput/v1

# Trace-driven fleet gate: the checked-in heterogeneous 10k-device
# manifest (template mix + recorded harvest trace) must reproduce its
# golden artifact bit-for-bit, and the artifact must be identical
# whether the batch runs on 1 worker or 8 — the mixed/trace fleet path
# has no worker-count dependence. `--workers` pins the fleet's own
# sharding too, so the two runs really use different thread counts. The checked-in perf artifact must also
# carry the trace-driven fleet series (the schema validator above
# rejects it without).
FLEET_TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$FLEET_TRACE_TMP"' EXIT
run "$CAPY_RUN" --workers 1 --out-dir "$FLEET_TRACE_TMP/w1" manifests/fleet_trace.capy
run "$CAPY_RUN" --workers 8 --out-dir "$FLEET_TRACE_TMP/w8" manifests/fleet_trace.capy
run cmp manifests/fleet_trace.result.json "$FLEET_TRACE_TMP/w1/fleet_trace.result.json"
run cmp "$FLEET_TRACE_TMP/w1/fleet_trace.result.json" "$FLEET_TRACE_TMP/w8/fleet_trace.result.json"

# The benchmark crate is its own workspace, so --workspace never builds
# it: test it by manifest path, or a library API change that breaks the
# benchmark would pass every step above.
run cargo test -q --offline --manifest-path perfbench/Cargo.toml

if [[ "$QUICK" == "1" ]]; then
    echo "==> ci.sh: quick gate passed (benches skipped)"
    exit 0
fi

# Full gate scales the fleet smoke to 100k devices: the streaming
# accumulator keeps peak memory flat no matter the population size.
run cargo run --release --example fleet -- --devices 100000

run cargo bench --no-run --workspace
run cargo run --release --example policy_compare -- --smoke
run cargo run --release --example faults -- --smoke
# The three formerly serial benches now run on the sweep engine; run
# them end-to-end so a regression in their sweep drivers (not just a
# compile rot) fails the gate.
run cargo bench -p capy-bench --bench baseline_federated
run cargo bench -p capy-bench --bench char_area
run cargo bench -p capy-bench --bench capysat_case_study

# Perf trajectory: the sim-kernel throughput bench must run and emit a
# well-formed BENCH_sim_throughput.json at the repo root; the artifact
# is checked in per PR as the recorded trajectory. Quick mode keeps the
# gate fast — for steadier numbers run the bench without --quick.
# (`cargo bench` runs the binary with the package dir as CWD, so the
# output path must be absolute to land at the workspace root.)
run cargo bench -p capy-bench --bench sim_throughput -- --quick --out "$PWD/BENCH_sim_throughput.json"
run "$CAPY_RUN" --validate-json BENCH_sim_throughput.json --schema capybara-sim-throughput/v1

echo "==> ci.sh: all checks passed"
