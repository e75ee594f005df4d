//! Command line of the repo benchmark.
//!
//! ```text
//! spgist-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! spgist-benchmark compare BASE_DIR NEW_DIR [--manifest BENCHMARK.json]
//! spgist-benchmark manifest
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use spgist_benchmark::compare::compare;
use spgist_benchmark::config::Workload;
use spgist_benchmark::metrics::{manifest, RUN_SECONDS};
use spgist_benchmark::report::{render, result_line};
use spgist_benchmark::run::{run, RunConfig};

const USAGE: &str = "usage:
  spgist-benchmark --workload <query-hot|query-cold|ingest|mixed-rw> --seed <n> --seconds <n> --trace <0|1> [--quick] [--out <dir>]
  spgist-benchmark compare <base-dir> <new-dir> [--manifest <BENCHMARK.json>]
  spgist-benchmark manifest";

fn parse_run(args: &[String]) -> Result<RunConfig, String> {
    let mut config = RunConfig {
        workload: Workload::QueryHot,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut workload = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => config.quick = true,
            "--out" => config.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    config.workload = workload.ok_or("--workload is required")?;
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => {
            println!("{}", manifest().to_line());
            Ok(true)
        }
        Some("compare") => {
            let manifest = match args.iter().position(|a| a == "--manifest") {
                Some(i) => args.get(i + 1).map(PathBuf::from),
                None => Some(PathBuf::from("BENCHMARK.json")),
            };
            match (args.get(1), args.get(2), manifest) {
                (Some(base), Some(new), Some(manifest)) => {
                    compare(base.as_ref(), new.as_ref(), &manifest).map(|(table, regressed)| {
                        print!("{table}");
                        !regressed
                    })
                }
                _ => Err(USAGE.to_string()),
            }
        }
        Some(_) => parse_run(&args).and_then(|config| {
            let report = run(&config)?;
            print!("{}", render(&report));
            println!("{}", result_line(&report).to_line());
            Ok(report.correct)
        }),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
