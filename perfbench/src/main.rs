//! Runs one benchmark workload and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_trace --seed 17 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root. Exit code 0 means every output
//! check passed; 1 means a check failed (the result line says how
//! many); 2 means the inputs or arguments were unusable and no result
//! was printed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::{run, Config, Workload};

const USAGE: &str =
    "usage: perfbench --workload <fleet_trace|fleet_coldstart|kill_grid_ta> --seed <n> \
     --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
            },
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok(Config {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        budget: Duration::from_secs(seconds.ok_or("missing --seconds")?.max(1)),
        trace: trace.ok_or("missing --trace")?,
        root: PathBuf::new(),
        work: target.join("perfbench-work"),
        cores,
        scale: 1.0,
    })
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: host nproc={} workers=[1, {}] profile={} rustc=\"{}\"",
        config.cores,
        config.cores,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env!("PERFBENCH_RUSTC_VERSION"),
    );
    let outcome = match run(&config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(factor) = outcome.host_factor {
        eprintln!(
            "perfbench: median host-speed factor {factor:.4} (the timings are host time × factor)"
        );
    }
    for note in &outcome.tally.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    match outcome.result_line(config.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
