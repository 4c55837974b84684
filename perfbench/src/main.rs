//! Command-line front end of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn|grow|roster --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints the provenance block, a human-readable report, and as the
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when any operation failed, 2 on bad arguments.

use perfbench::{run, RunConfig, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload churn|grow|roster --seed N --seconds S \
                     --trace 0|1 [--scale full|tiny] [--out-dir DIR]";

fn parse(args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut out_dir = perfbench::default_out_dir();
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale takes full or tiny, got {value}")),
                };
            }
            "--out-dir" => out_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
        out_dir,
    })
}

fn main() -> ExitCode {
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg);
    println!("provenance: {}", result.provenance.to_json());
    for line in &result.report {
        println!("{line}");
    }
    for m in result.metrics.iter() {
        println!("metric {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.result_line());
    if result.tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
