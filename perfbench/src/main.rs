//! `til-perfbench --workload <table1|run-pressured|differential>
//! --seed <n> --seconds <n> --trace <0|1>` runs one workload and prints
//! rows of medians, then one JSON result line. `--smoke` runs every
//! workload, untraced and traced, for a single pass each.

use std::process::ExitCode;
use std::time::Instant;
use til_perfbench::bench::{self, Outcome, Settings, Workload};

/// Environment variables that change the timed code paths (tracing,
/// profiling, thread count, collection mode, census cadence, seeded
/// faults).
const GUARDED_ENV: [&str; 7] = [
    "TIL_TRACE",
    "TIL_PROFILE",
    "TIL_JOBS",
    "TIL_GC_MODE",
    "TIL_CENSUS_EVERY",
    "TIL_BREAK_PASS",
    "TIL_BREAK_EMIT",
];

const USAGE: &str =
    "usage: til-perfbench --workload <table1|run-pressured|differential> [--seed N] [--seconds N] [--trace 0|1]\n       til-perfbench --smoke";

fn parse(args: &[String]) -> Result<Option<Settings>, String> {
    let mut s = Settings {
        workload: Workload::Table1,
        seed: 1,
        seconds: 30,
        trace: false,
        one_pass: false,
        started: Instant::now(),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => s.seed = num()?,
            "--seconds" => s.seconds = num()?,
            "--trace" => {
                s.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    s.workload = workload.ok_or("--workload is required")?;
    Ok(Some(s))
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a build with debug assertions: build with --release");
        return ExitCode::from(3);
    }
    if let Some(var) = GUARDED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("refusing to run with {var} set: it changes the measured code");
        return ExitCode::from(3);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut s) = settings else {
        let mut all_ok = true;
        for workload in Workload::ALL {
            for trace in [false, true] {
                let s = Settings {
                    workload,
                    seed: 1,
                    seconds: 0,
                    trace,
                    one_pass: true,
                    started: Instant::now(),
                };
                let o = bench::run(&s);
                println!(
                    "smoke {} trace {} correct {}",
                    workload.name(),
                    u8::from(trace),
                    o.correct
                );
                all_ok &= o.correct;
            }
        }
        return if all_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    s.started = started;
    let outcome = bench::run(&s);
    println!("{}", json_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
