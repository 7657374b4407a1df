//! The correctness gate must be able to fail, and `BENCHMARK.json` must
//! describe the binary that is actually built.

use relser_benchmark::metrics::{END_TO_END, PER_LAYER};
use relser_benchmark::workloads::WORKLOADS;
use std::process::Command;

/// Runs the benchmark binary on the cheapest workload, one pass.
fn quick_run(extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_relser-benchmark"))
        .args([
            "--workload",
            "longlived_abs",
            "--seed",
            "7",
            "--quick",
            "--trace",
            "0",
        ])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

#[test]
fn a_planted_lost_ack_flips_the_exit_code() {
    let (ok, last) = quick_run(&[]);
    assert!(ok, "clean run must exit 0, printed: {last}");
    assert!(last.contains("\"correct\": true") && last.contains("\"failed\": 0"));
    for def in &END_TO_END {
        assert!(
            last.contains(&format!("\"{}\": {{\"value\": ", def.name)),
            "result line lacks {}",
            def.name
        );
    }

    // One acknowledged commit hidden from the comparison set per round:
    // the same run must now count failures and exit non-zero.
    let (ok, last) = quick_run(&["--plant-lost-ack"]);
    assert!(!ok, "a lost acknowledged commit must flip the exit code");
    assert!(last.contains("\"correct\": false"));
    assert!(!last.contains("\"failed\": 0"));
}

#[test]
fn benchmark_json_describes_this_binary() {
    let quoted = |s: &str| format!("\"{s}\"");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(d.name),
                quoted(d.unit),
                quoted(d.better.as_str()),
                d.bound.expect("end-to-end metrics are bounded")
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(d.name),
                quoted(d.unit),
                quoted(d.better.as_str())
            )
        })
        .collect();
    let expected = format!(
        "{{\"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"], \"paths\": [\"benchmark\"], \
         \"run_seconds\": 20, \"workloads\": [{}], \"end_to_end\": [{}], \"per_layer\": [{}]}}",
        workloads.join(", "),
        end_to_end.join(", "),
        per_layer.join(", ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let actual = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let squeeze = |s: &str| s.split_whitespace().collect::<String>();
    assert_eq!(
        squeeze(&actual),
        squeeze(&expected),
        "BENCHMARK.json and the tables in metrics.rs / workloads.rs disagree"
    );
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
}
