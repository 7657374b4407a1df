//! A3 (bench form): RSG-SGT per-request rebuild vs incremental graph
//! maintenance, plus the depends-on closure in isolation.
//!
//! Run with `cargo bench -p relser-bench --bench incremental`. Besides
//! printing the comparison, this writes the scaling measurements to
//! `BENCH_rsg_sgt.json` at the repository root (EXPERIMENTS.md A3).

use relser_bench::harness::{git_commit, Harness};
use relser_core::depends::DependsOn;
use relser_protocols::driver::{run, RunConfig};
use relser_protocols::rsg_sgt::{RsgSgt, RsgSgtOracle};
use relser_workload::longlived::{long_lived, LongLivedConfig};
use relser_workload::random_schedule;
use std::hint::black_box;

/// Short-transaction counts: the last size pushes the workload past
/// 1,000 operations, where the per-request O(P²) rebuild visibly
/// diverges from the incremental engine.
const SIZES: [usize; 4] = [8, 16, 32, 256];

fn bench_incremental(h: &mut Harness) {
    let mut group = h.group("rsg_sgt_formulations");
    group.sample_size(5);
    for &short in &SIZES {
        let sc = long_lived(
            &LongLivedConfig {
                short_txns: short,
                steps: 8,
                objects: short.max(8),
                ..Default::default()
            },
            19,
        );
        let cfg = RunConfig {
            seed: 5,
            max_steps: 10_000_000,
        };
        let ops = sc.txns.total_ops();
        group.bench_function(format!("rebuild/{ops}"), |b| {
            b.iter(|| {
                black_box(
                    run(&sc.txns, &mut RsgSgtOracle::new(&sc.txns, &sc.spec), &cfg)
                        .unwrap()
                        .grants,
                )
            })
        });
        group.bench_function(format!("incremental/{ops}"), |b| {
            b.iter(|| {
                black_box(
                    run(&sc.txns, &mut RsgSgt::new(&sc.txns, &sc.spec), &cfg)
                        .unwrap()
                        .grants,
                )
            })
        });
    }
}

fn bench_depends_on(h: &mut Harness) {
    let mut group = h.group("depends_on_closure");
    group.sample_size(10);
    for &short in &[16usize, 64, 128] {
        let sc = long_lived(
            &LongLivedConfig {
                short_txns: short,
                steps: 8,
                objects: short.max(8),
                ..Default::default()
            },
            1,
        );
        let s = random_schedule(&sc.txns, 1);
        let ops = s.len();
        group.bench_function(format!("transitive/{ops}"), |b| {
            b.iter(|| black_box(DependsOn::compute(&sc.txns, &s).pair_count()))
        });
    }
}

fn main() {
    let mut h = Harness::new("incremental");
    // Provenance: which code and which workload produced these figures.
    h.set_meta("git_commit", git_commit());
    h.set_meta("workload", "long_lived");
    h.set_meta("short_txns", SIZES.map(|s| s.to_string()).join(","));
    h.set_meta("steps", 8);
    h.set_meta("workload_seed", 19);
    h.set_meta("driver_seed", 5);
    bench_incremental(&mut h);
    bench_depends_on(&mut h);
    // Anchor at the workspace root, not the bench cwd, so the tracked
    // file is always the one that gets refreshed.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rsg_sgt.json");
    if let Err(e) = h.write_json(out) {
        eprintln!("could not write {out}: {e}");
    }
}
