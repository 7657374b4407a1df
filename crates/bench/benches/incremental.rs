//! A3 (bench form): RSG-SGT per-request rebuild vs incremental graph
//! maintenance, the depends-on closure in isolation, the cost of
//! building (and dropping) one scheduler on a benchmark-sized set, and
//! the cost of one commit on such sets.
//!
//! Run with `cargo bench -p relser-bench --bench incremental`. Besides
//! printing the comparison, this writes the scaling measurements to
//! `BENCH_rsg_sgt.json` at the repository root (EXPERIMENTS.md A3).

use rand::rngs::StdRng;
use rand::SeedableRng;
use relser_bench::harness::{git_commit, Harness};
use relser_core::depends::DependsOn;
use relser_core::ids::{OpId, TxnId};
use relser_core::op::AccessMode;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::driver::{run, RunConfig};
use relser_protocols::rsg_sgt::{RsgSgt, RsgSgtOracle};
use relser_protocols::{Decision, Scheduler};
use relser_workload::longlived::{long_lived, LongLivedConfig};
use relser_workload::zipf::Zipf;
use relser_workload::{random_schedule, random_spec};
use std::hint::black_box;
use std::time::{Duration, Instant};

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

/// The repository benchmark's `pingpong`/`saturate` set shape: `n`
/// single-record read-modify-write transactions over `2n` Zipf(0.4)
/// objects under a random spec (breakpoint probability 0.4).
fn pingpong_set(n: usize) -> (TxnSet, AtomicitySpec) {
    let objects = 2 * n;
    let mut rng = StdRng::seed_from_u64(SET_SEED);
    let zipf = Zipf::new(objects, 0.4);
    let names: Vec<String> = (0..objects).map(|i| format!("r{i}")).collect();
    let mut txns = TxnSet::new();
    for _ in 0..n {
        let record = names[zipf.sample(&mut rng)].as_str();
        txns.add(&[(AccessMode::Read, record), (AccessMode::Write, record)])
            .expect("non-empty transaction");
    }
    let spec = random_spec(&txns, 0.4, SET_SEED);
    (txns, spec)
}

const CONSTRUCT_TXNS: usize = 1024;
const SET_SEED: u64 = 7;

/// `RsgSgt::new` on one benchmark-sized set, dropped in the same
/// iteration: what a shard pays to build its scheduler at start, on every
/// restart and on every recovery.
fn bench_construct(h: &mut Harness) {
    let (txns, spec) = pingpong_set(CONSTRUCT_TXNS);
    let mut group = h.group("rsg_sgt_construction");
    group.sample_size(10);
    group.bench_function(format!("construct/{CONSTRUCT_TXNS}"), |b| {
        b.iter(|| RsgSgt::new(&txns, &spec))
    });
}

/// `Scheduler::commit` alone on the `pingpong_set` shape, in serial
/// windows of `w` live transactions: admit the window's operations one
/// transaction after another (untimed), then commit the window in order
/// (timed). One iteration is one commit; a scheduler that has committed
/// the whole set is replaced, untimed, by a fresh one. Two set sizes show
/// whether a commit's cost grows with n.
fn bench_commit(h: &mut Harness) {
    let mut group = h.group("rsg_sgt_commit");
    group.sample_size(10);
    for n in [1024usize, 4096] {
        let (txns, spec) = pingpong_set(n);
        for w in [1usize, 32] {
            let mut sched = RsgSgt::new(&txns, &spec);
            let mut next = 0usize;
            group.bench_function(format!("commit/{n}/w{w}"), |b| {
                b.iter_custom(|iters| {
                    let mut timed = Duration::ZERO;
                    let mut done = 0u64;
                    while done < iters {
                        if next == n {
                            sched = RsgSgt::new(&txns, &spec);
                            next = 0;
                        }
                        let window = w.min(n - next).min((iters - done) as usize);
                        for t in next..next + window {
                            let t = TxnId(t as u32);
                            for j in 0..txns.txn(t).len() as u32 {
                                let d = sched.request(OpId::new(t, j));
                                assert_eq!(d, Decision::Granted, "serial windows admit");
                            }
                        }
                        let start = Instant::now();
                        for t in next..next + window {
                            sched.commit(TxnId(t as u32));
                        }
                        timed += start.elapsed();
                        next += window;
                        done += window as u64;
                    }
                    timed
                })
            });
        }
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
    bench_construct(&mut h);
    bench_commit(&mut h);
    // Anchor at the workspace root, not the bench cwd, so the tracked
    // file is always the one that gets refreshed.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rsg_sgt.json");
    if let Err(e) = h.write_json(out) {
        eprintln!("could not write {out}: {e}");
    }
}
