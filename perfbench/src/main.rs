//! `perfbench`: the serving benchmark. Starts `inano-serve` as a child
//! process, drives it over loopback from one thread per core, checks
//! its answers against a fresh in-process predictor, and prints one
//! JSON record per phase followed by the summary line.
//!
//! Usage:
//!   perfbench --workload cold_uniform|hot_pool|swap_udp --seed N
//!             --seconds S --trace 0|1 --serve-bin PATH [--out-dir DIR]
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reruns the
//! workload with every 16th TCP request traced, replays its inputs
//! against each layer in-process, and reports the per-layer metrics.
//! See README.md next to this crate for the workloads and metrics.

mod classify;
mod inputs;
mod layers;
mod load;
mod record;
mod run;
mod serve;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

fn parse_args() -> Result<run::Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let workload = need("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let serve_bin = PathBuf::from(need("--serve-bin")?);
    if !serve_bin.is_file() {
        return Err(format!("no server binary at {}", serve_bin.display()));
    }
    Ok(run::Args {
        workload,
        seed,
        seconds,
        trace,
        serve_bin,
        out_dir: PathBuf::from(get("--out-dir").unwrap_or("perfbench-out")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run::run(&args) {
        Ok(summary) => {
            record::print_summary(&summary);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
