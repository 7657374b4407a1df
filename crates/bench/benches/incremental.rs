//! A3 (bench form): RSG-SGT per-request rebuild vs incremental graph
//! maintenance, the depends-on closure in isolation, and the cost of
//! building (and dropping) one scheduler on a benchmark-sized set.
//!
//! Run with `cargo bench -p relser-bench --bench incremental`. Besides
//! printing the comparison, this writes the scaling measurements to
//! `BENCH_rsg_sgt.json` at the repository root (EXPERIMENTS.md A3).

use rand::rngs::StdRng;
use rand::SeedableRng;
use relser_bench::harness::{git_commit, Harness};
use relser_core::depends::DependsOn;
use relser_core::op::AccessMode;
use relser_core::txn::TxnSet;
use relser_protocols::driver::{run, RunConfig};
use relser_protocols::rsg_sgt::{RsgSgt, RsgSgtOracle};
use relser_workload::longlived::{long_lived, LongLivedConfig};
use relser_workload::zipf::Zipf;
use relser_workload::{random_schedule, random_spec};
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

/// The repository benchmark's `pingpong`/`saturate` set shape: 1 024
/// single-record read-modify-write transactions over 2 048 Zipf(0.4)
/// objects under a random spec (breakpoint probability 0.4).
const CONSTRUCT_TXNS: usize = 1024;
const CONSTRUCT_OBJECTS: usize = 2048;
const CONSTRUCT_SEED: u64 = 7;

/// `RsgSgt::new` on one benchmark-sized set, dropped in the same
/// iteration: what a shard pays to build its scheduler at start, on every
/// restart and on every recovery.
fn bench_construct(h: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(CONSTRUCT_SEED);
    let zipf = Zipf::new(CONSTRUCT_OBJECTS, 0.4);
    let names: Vec<String> = (0..CONSTRUCT_OBJECTS).map(|i| format!("r{i}")).collect();
    let mut txns = TxnSet::new();
    for _ in 0..CONSTRUCT_TXNS {
        let record = names[zipf.sample(&mut rng)].as_str();
        txns.add(&[(AccessMode::Read, record), (AccessMode::Write, record)])
            .expect("non-empty transaction");
    }
    let spec = random_spec(&txns, 0.4, CONSTRUCT_SEED);
    let mut group = h.group("rsg_sgt_construction");
    group.sample_size(10);
    group.bench_function(format!("construct/{CONSTRUCT_TXNS}"), |b| {
        b.iter(|| RsgSgt::new(&txns, &spec))
    });
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
    bench_construct(&mut h);
    // Anchor at the workspace root, not the bench cwd, so the tracked
    // file is always the one that gets refreshed.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rsg_sgt.json");
    if let Err(e) = h.write_json(out) {
        eprintln!("could not write {out}: {e}");
    }
}
