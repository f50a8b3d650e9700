//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <orient-mixed|assign-mixed|orient-solve>
//!           [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). The last line of standard output is the
//! JSON result; the lines before it are the run's facts and counters. A
//! traced run also writes its spans to `perfbench/out/`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::{run, Mode, Plan, RunConfig, Workload};

const USAGE: &str = "usage: perfbench --workload <orient-mixed|assign-mixed|orient-solve> \
[--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("--seconds wants 1..=3600, got '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        plan: Plan::of(args.workload),
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        events: None,
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        perfbench::workloads::available_parallelism()
    );
    let out = run(&cfg);
    for fact in &out.report.facts {
        println!("{fact}");
    }
    if let Some(tracer) = &out.tracer {
        let dir = PathBuf::from("perfbench/out");
        let path = dir.join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let mode = if args.trace {
        Mode::Layer
    } else {
        Mode::EndToEnd
    };
    println!("{}", out.report.result_line(mode));
    ExitCode::SUCCESS
}
