//! Runs one workload of the benchmark:
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload roster_m16 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints one `name value unit` line per metric, then, as the last line
//! of standard output, a JSON object with `correct`, `attempted`,
//! `failed` and the metrics: the end-to-end ones with `--trace 0`, the
//! per-layer ones with `--trace 1`.

use shs_perfbench::report::Report;
use shs_perfbench::trace::Tracer;
use shs_perfbench::workloads::{self, Ctx, WORKLOADS};
use shs_perfbench::{host, probes, tcp, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::describe());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        tracer: args.trace.then(|| Arc::new(Tracer::new())),
    };
    let mut report = Report::default();
    let ran = match args.workload {
        "service_paced" => workloads::service::run(&ctx, &mut report),
        "roster_m16" => workloads::roster::run(&ctx, &mut report),
        _ => workloads::churn::run(&ctx, &mut report),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {} set-up failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if let Some(tracer) = ctx.tracer.as_deref() {
        probes::run_all(args.seed, tracer, &mut report);
        if let Err(e) = tcp::probe(args.seed, tracer, &mut report) {
            eprintln!("perfbench: TCP probe set-up failed: {e}");
            return ExitCode::FAILURE;
        }
        // Layers this workload never enters: nothing was spent there.
        for (name, unit) in PER_LAYER {
            if !report.metrics.iter().any(|m| m.name == name) {
                report.put(name, 0.0, unit);
            }
        }
    }
    println!("failed_frac {} ratio", report.failed_frac());
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let keep: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    println!("{}", report.json(&keep));
    ExitCode::SUCCESS
}
