//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exact_dphyp|serve_hot|serve_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one closed-loop client (the next operation starts when the previous one
//! returned), default `AdaptiveOptions` and `ServiceOptions`, no `plan_batch` and no
//! intra-query parallelism. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of a traced replay with `--trace 1` (see `report.rs` for the names).
//! Failed operations (an `Err`, a panic or a failed correctness check) are counted, never
//! fatal; `failed / attempted` is the run's error rate.

mod churn;
mod exact;
mod harness;
mod hot;
mod inputs;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use harness::{contain, Args};
use report::{Report, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <exact_dphyp|serve_hot|serve_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad value `{value}`"))?
            }
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run: fn(&Args, &mut Report) = match args.workload.as_str() {
        "exact_dphyp" => exact::run,
        "serve_hot" => hot::run,
        "serve_churn" => churn::run,
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    // A panic outside any single operation (in set-up, say) still yields a result line,
    // with every metric written and the run marked failed.
    if let Err(message) = contain(|| run(&args, &mut report)) {
        eprintln!("run failed: {message}");
        report.attempted += 1;
        report.failed += 1;
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.to_json(names));
}
