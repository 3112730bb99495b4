//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload from the repository root, prints progress lines and
//! then, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 0 when every check passed, 1 when a
//! check or operation failed or set-up broke, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::inputs::{Workload, DEFAULT_SEED};
use perfbench::{mine, serve, Run};

const USAGE: &str = "usage: perfbench --workload wide|dense|serve \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = Run {
        workload: Workload::Wide,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut workload = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                run.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    Ok(run)
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Scratch files live under the working directory, one directory per
    // process, removed when the run ends.
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        run.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let outcome = match run.workload {
        Workload::Serve => serve::run(&run, &work),
        _ => mine::run(&run, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok(mut outcome) => {
            outcome.check_metrics();
            for failure in &outcome.check_failures {
                eprintln!("perfbench: check failed: {failure}");
            }
            println!("{}", outcome.to_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", run.workload.name());
            ExitCode::FAILURE
        }
    }
}
