//! Command line of the benchmark. The driver's form is
//! `trajectory --workload <name> --seed <n> --seconds <s> --trace <0|1>`;
//! `trajectory all` and `trajectory compare` build and compare whole
//! records (see `README.md`).

use std::path::PathBuf;
use std::process::ExitCode;
use trajectory::json::Json;
use trajectory::record::{all, compare, AllOptions};
use trajectory::run::{run, Options};
use trajectory::workloads::{find, WORKLOADS};

const DEFAULT_OUT: &str = "trajectory_out";

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage:\n  \
         trajectory --workload <{}> --seed <u64> --seconds <s> --trace <0|1> [--out <dir>]\n  \
         trajectory all [--seed <u64>] [--seconds <s>] [--repeat <k>] [--record <file>] [--out <dir>]\n  \
         trajectory compare <parent.json> <change.json>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("trajectory: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    // `Err(())` = present but malformed.
    let parsed = |name: &str| flag(name).map(|v| v.parse::<f64>().map_err(|_| ()));
    let whole = |name: &str, min: f64| match parsed(name) {
        None => Ok(None),
        Some(Ok(v)) if v >= min && v.fract() == 0.0 => Ok(Some(v as u64)),
        Some(_) => Err(()),
    };
    let seconds = match parsed("--seconds") {
        None => Ok(None),
        Some(Ok(s)) if s > 0.0 && s <= 3600.0 => Ok(Some(s)),
        Some(_) => Err(()),
    };
    let (Ok(seed), Ok(seconds), Ok(repeat)) =
        (whole("--seed", 0.0), seconds, whole("--repeat", 1.0))
    else {
        return usage();
    };
    let out_dir = flag("--out").unwrap_or(DEFAULT_OUT).to_owned();

    match args.first().map(String::as_str) {
        Some("compare") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let load = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
            };
            match load(a).and_then(|a| compare(&a, &load(b)?)) {
                Ok((rows, any_worse)) => {
                    for row in rows {
                        println!("{row}");
                    }
                    if any_worse {
                        ExitCode::from(1)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("trajectory compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("all") => {
            let options = AllOptions {
                seed: seed.unwrap_or(1),
                seconds: seconds.unwrap_or(10.0),
                repeat: repeat.unwrap_or(1) as usize,
                out_dir,
            };
            match all(&options) {
                Ok(record) => {
                    if let Some(path) = flag("--record") {
                        if let Err(e) = std::fs::write(path, record.render_pretty()) {
                            eprintln!("trajectory all: {path}: {e}");
                            return ExitCode::from(2);
                        }
                    }
                    println!("{}", record.render());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("trajectory all: {e}");
                    ExitCode::from(1)
                }
            }
        }
        _ => {
            let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
                flag("--workload").and_then(find),
                seed,
                seconds,
                flag("--trace").and_then(|t| match t {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }),
            ) else {
                return usage();
            };
            let outcome = run(&Options {
                workload,
                seed,
                seconds,
                trace,
                persons: workload.persons,
                out_dir: PathBuf::from(out_dir),
            });
            println!("{}", outcome.contract_line());
            ExitCode::SUCCESS
        }
    }
}
