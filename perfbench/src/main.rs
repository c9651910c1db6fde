//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <cluster-warm|cluster-churn|fork-unit> [--seed N]
//!           [--seconds S] [--trace 0|1] [--size full|smoke]
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`).

use std::process::ExitCode;

use perfbench::metrics::result_line;
use perfbench::{Options, Size, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};

fn usage(error: &str) -> ExitCode {
    eprintln!("perfbench: {error}");
    eprintln!(
        "usage: perfbench --workload <cluster-warm|cluster-churn|fork-unit> [--seed N] \
         [--seconds S] [--trace 0|1] [--size full|smoke]"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: Workload::ClusterWarm,
        seed: DEFAULT_SEED,
        seconds: 25,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = number()?.max(1),
            "--trace" => {
                options.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--size" => {
                options.size = match value {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(format!("--size takes full or smoke, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let outcome = perfbench::run(&options);
    let names: &[(&str, &str)] = if options.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    println!(
        "perfbench {} seed {} seconds {} trace {} size {:?}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        options.size
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for m in outcome.metrics.iter() {
        let shown = if names.iter().any(|(n, _)| *n == m.name) {
            " "
        } else {
            "~"
        };
        println!("{shown} {:<40} {:>22} {}", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        println!("  CHECK FAILED: {e}");
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "{}",
        result_line(
            outcome.errors.is_empty(),
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics,
            names,
        )
    );
    ExitCode::SUCCESS
}
