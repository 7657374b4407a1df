//! `relser-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the workload's metrics by name and, as the last line of
//! standard output, one JSON object `{correct, attempted, failed,
//! metrics}`. Exits non-zero on any correctness failure.

use relser_benchmark::round::Failures;
use relser_benchmark::run::{result_json, run_workload, selftest, RunCfg, Tracing};
use relser_benchmark::workloads::{self, Workload, WORKLOADS};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: relser-benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--quick] [--selftest]
  --workload   pingpong | saturate | longlived_rel | longlived_abs | durable | all (default all)
  --seed       seed of the generated inputs (default 1)
  --seconds    seconds measured per workload (default 20)
  --trace      0: end-to-end metrics from untraced rounds; 1: per-layer metrics from
               traced rounds; absent: the untraced run, then one traced pass, both tables
  --quick      one pass per workload instead of --seconds (smoke run, no bounds)
  --selftest   two full sets back to back; non-zero exit if any end-to-end pairing
               differs by more than its bound
  --plant-lost-ack   test hook: hide one acknowledged commit from the durability
               comparison, which must flip the exit code";

struct Args {
    workloads: Vec<&'static Workload>,
    cfg: RunCfg,
    selftest: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        cfg: RunCfg {
            seed: 1,
            seconds: 20.0,
            tracing: Tracing::Both,
            quick: false,
            plant_lost_ack: false,
        },
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = workloads::find(&name).ok_or(format!("unknown workload {name}"))?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => args.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.cfg.seconds = s;
            }
            "--trace" => {
                args.cfg.tracing = match value()?.as_str() {
                    "0" => Tracing::Off,
                    "1" => Tracing::On,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.cfg.quick = true,
            "--selftest" => args.selftest = true,
            "--plant-lost-ack" => args.cfg.plant_lost_ack = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs every chosen workload; returns the failure count and the last
/// workload's result object.
fn run_all(args: &Args, started: Instant) -> std::io::Result<(u64, Option<String>)> {
    let mut failures = Failures::default();
    let mut last = None;
    for (i, &w) in args.workloads.iter().enumerate() {
        // The first workload's set-up is timed from process start.
        let t0 = if i == 0 { started } else { Instant::now() };
        let result = run_workload(w, args.cfg, t0)?;
        last = Some(result_json(&result, args.cfg.tracing));
        failures.absorb(result.failures);
    }
    Ok((failures.total(), last))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.selftest {
        selftest(&args.workloads, args.cfg).map(|(breaches, failures)| {
            println!("selftest: {breaches} pairings outside their bound");
            (breaches + failures.total(), None)
        })
    } else {
        run_all(&args, started)
    };
    match outcome {
        Ok((failed, json)) => {
            // With one workload (how the driver calls it) the last line
            // is that workload's result object.
            if let (Some(json), 1) = (json, args.workloads.len()) {
                println!("{json}");
            }
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("benchmark failed: {failed} failures");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            ExitCode::FAILURE
        }
    }
}
