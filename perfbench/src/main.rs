//! Seeded benchmark of the OpenSerDes link, analog/signoff and serve
//! paths. See `perfbench/README.md` for the workloads, the metrics and
//! the baseline numbers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload link_char --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root: the metric names and units printed on
//! the last line come from `BENCHMARK.json` there. Every line before the
//! last is a human-readable report (all metrics, deterministic work
//! counters, output digest); the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod analog_signoff;
mod common;
mod link_char;
mod serve_mix;

use common::Report;
use openserdes_core::json::{self, Json};
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Nominal measured seconds; sets the size of the fixed job list.
    pub seconds: u64,
    /// `true`: also replay the jobs as timed layer calls and print the
    /// per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(bench: &Json, section: &str) -> Result<Vec<(String, String)>, String> {
    let obj = bench.as_obj("BENCHMARK.json")?;
    json::get(obj, section)?
        .as_arr(section)?
        .iter()
        .map(|m| {
            let m = m.as_obj(section)?;
            Ok((
                json::get(m, "name")?.as_str("name")?.to_string(),
                json::get(m, "unit")?.as_str("unit")?.to_string(),
            ))
        })
        .collect()
}

fn run() -> Result<(), String> {
    common::start_clock();
    let args = parse_args()?;
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bench = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let end_to_end = declared(&bench, "end_to_end")?;
    let per_layer = declared(&bench, "per_layer")?;

    let report: Report = match args.workload.as_str() {
        "link_char" => link_char::run(&args)?,
        "analog_signoff" => analog_signoff::run(&args)?,
        "serve_mix" => serve_mix::run(&args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    report.print_lines(&args.workload, args.seed);

    // End-to-end metrics must all be measured; a per-layer metric of a
    // layer this workload never calls reads 0.
    let (wanted, required) = if args.trace {
        (&per_layer, false)
    } else {
        (&end_to_end, true)
    };
    let mut metrics = String::new();
    for (name, unit) in wanted {
        let value = match report.metric(name) {
            Some(v) => v,
            None if required => return Err(format!("workload did not measure {name}")),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        json::push_quoted(&mut metrics, name);
        metrics.push_str(": {\"value\": ");
        json::push_f64(&mut metrics, value);
        metrics.push_str(", \"unit\": ");
        json::push_quoted(&mut metrics, unit);
        metrics.push('}');
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
