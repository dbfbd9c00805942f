//! `harvbench --workload <table2|explore|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable measurement lines, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`, `failed`
//! and the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
//! Exits 2 on bad arguments and 1 when set-up fails and no result exists.

use std::process::ExitCode;

use harvbench::{Options, Size, WORKLOADS};

const USAGE: &str =
    "usage: harvbench --workload <table2|explore|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options =
        Options { workload: String::new(), seed: 0, seconds: 10.0, trace: false, size: Size::Full };
    let mut at = 0;
    while at < args.len() {
        let flag = args[at].as_str();
        let value = args.get(at + 1).ok_or_else(|| format!("{flag} expects a value"))?;
        at += 2;
        match flag {
            "--workload" if WORKLOADS.contains(&value.as_str()) => options.workload = value.clone(),
            "--seed" => options.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag} {value}`")),
        }
    }
    if options.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("harvbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match harvbench::run(&options) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", report.result_line(options.trace));
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("harvbench: {err}");
            ExitCode::from(1)
        }
    }
}
