//! A3 (bench form): RSG-SGT per-request rebuild vs incremental graph
//! maintenance, the depends-on closure in isolation, the cost of
//! building (and dropping) one scheduler on a benchmark-sized set, the
//! cost of one commit on such sets, the cost of one request and one
//! abort on the benchmark's long-lived sets, and the recovery
//! certifier's cost per operation on benchmark-shaped sets.
//!
//! Run with `cargo bench -p relser-bench --bench incremental`. Besides
//! printing the comparison, this writes the scaling measurements to
//! `BENCH_rsg_sgt.json` at the repository root (EXPERIMENTS.md A3).

use relser_bench::harness::{git_commit, Harness};
use relser_bench::streams::{long_lived_sets, rmw_set, LoopRun, SETS, STREAMS};
use relser_check::RsgSgtOracle;
use relser_core::depends::DependsOn;
use relser_core::ids::{OpId, TxnId};
use relser_core::incremental::{AdmitError, IncrementalRsg};
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock::VClockCertifier;
use relser_protocols::driver::{run, RunConfig};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::{AbortReason, Decision, Scheduler};
use relser_workload::longlived::{long_lived, LongLivedConfig};
use relser_workload::random_schedule;
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

/// The repository benchmark's `pingpong`/`saturate` set shape
/// ([`rmw_set`]) with `n` transactions.
fn pingpong_set(n: usize) -> (TxnSet, AtomicitySpec) {
    rmw_set(n, SET_SEED)
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

/// The recovery certifier on the `pingpong_set` shape:
/// `VClockCertifier::new` + `observe` of every operation + `seal` on the
/// serial feed (each transaction whole, in id order), as recovery's step
/// 4 runs it. A sample certifies the whole set until it has observed
/// `iters` operations, so a row is the cost per operation; three set
/// sizes show whether it grows with n.
fn bench_vclock_certify(h: &mut Harness) {
    let mut group = h.group("vclock_certify");
    group.sample_size(10);
    for n in [256usize, 1024, 4096] {
        let (txns, spec) = pingpong_set(n);
        let feed: Vec<OpId> = txns
            .txn_ids()
            .flat_map(|t| (0..txns.txn(t).len() as u32).map(move |j| OpId::new(t, j)))
            .collect();
        group.bench_function(format!("certify/{n}"), |b| {
            b.iter_custom(|iters| {
                let (start, mut ops) = (Instant::now(), 0u64);
                while ops < iters {
                    let mut c = VClockCertifier::new(&txns, &spec);
                    for &op in &feed {
                        c.observe(op).expect("the serial feed is in program order");
                    }
                    assert!(
                        black_box(c.seal()).is_acyclic(),
                        "a serial feed is serializable"
                    );
                    ops += feed.len() as u64;
                }
                let ns = start.elapsed().as_nanos() * u128::from(iters) / u128::from(ops);
                Duration::from_nanos(ns as u64)
            })
        });
    }
}

/// The engine behind a timing and counting [`Scheduler`] adapter: each
/// request and each abort is timed, and the arcs of every admission
/// (`AdmitSummary::arcs`) are kept by grant position, so an abort can
/// count what it rolls back from `admitted()` alone.
struct Counted {
    engine: IncrementalRsg,
    /// `AdmitSummary::arcs` per admitted position, as granted.
    arcs: Vec<usize>,
    request_ns: u64,
    abort_ns: u64,
    grants: u64,
    granted_arcs: u64,
    aborts: u64,
    /// Arcs of the admissions an abort pops (an upper bound on the
    /// journal entries it undoes: a merge that changes no label is not
    /// journalled, and a retired survivor's journal is blank).
    undone: u64,
    /// Surviving admissions an abort puts back.
    replayed: u64,
}

impl Counted {
    fn new(txns: &TxnSet, spec: &AtomicitySpec) -> Self {
        Counted {
            engine: IncrementalRsg::new(txns, spec),
            arcs: Vec::new(),
            request_ns: 0,
            abort_ns: 0,
            grants: 0,
            granted_arcs: 0,
            aborts: 0,
            undone: 0,
            replayed: 0,
        }
    }
}

impl Scheduler for Counted {
    fn name(&self) -> &'static str {
        "RSG-SGT-counted"
    }

    fn begin(&mut self, _txn: TxnId) {}

    fn request(&mut self, op: OpId) -> Decision {
        let t0 = Instant::now();
        let r = self.engine.try_admit(op);
        self.request_ns += t0.elapsed().as_nanos() as u64;
        match r {
            Ok(summary) => {
                self.arcs.push(summary.arcs);
                self.grants += 1;
                self.granted_arcs += summary.arcs as u64;
                Decision::Granted
            }
            Err(AdmitError::Cycle(_)) => Decision::Aborted(AbortReason::CycleRejected),
            Err(e) => panic!("closed-loop streams retire nothing early: {e:?}"),
        }
    }

    fn commit(&mut self, txn: TxnId) {
        self.engine.commit(txn);
    }

    fn abort(&mut self, txn: TxnId) {
        let admitted = self.engine.admitted();
        let k = admitted
            .iter()
            .position(|o| o.txn == txn)
            .unwrap_or(admitted.len());
        let survivors: Vec<usize> = (k..admitted.len())
            .filter(|&i| admitted[i].txn != txn)
            .map(|i| self.arcs[i])
            .collect();
        self.undone += self.arcs[k..].iter().sum::<usize>() as u64;
        self.replayed += survivors.len() as u64;
        self.aborts += 1;
        let t0 = Instant::now();
        self.engine.abort(txn);
        self.abort_ns += t0.elapsed().as_nanos() as u64;
        // A survivor keeps the count of its first grant.
        self.arcs.truncate(k);
        self.arcs.extend(survivors);
    }
}

/// One request and one abort of the engine on the repository benchmark's
/// long-lived sets (`relser_bench::streams`): every set of the pool runs
/// to commit on six closed-loop streams, under the relative and under
/// the absolute spec. A sample runs whole sets, cycling through the
/// pool, until it has seen `iters` events of its kind, and reports their
/// timed share scaled to `iters`. Beside the rows, one pass over the
/// pool prints the requests and aborts it made (identical across builds
/// that decide alike) and three counts: arcs handed to the graph per
/// admission, journal entries undone per abort (bounded above by the
/// popped admissions' arcs) and survivors replayed per abort.
fn bench_longlived(h: &mut Harness) {
    let mut group = h.group("rsg_sgt_longlived");
    group.sample_size(5);
    for (label, relative) in [("rel", true), ("abs", false)] {
        let sets = long_lived_sets(relative);
        let mut cursor = 0usize;
        let mut timed = |iters: u64, pick: fn(&Counted) -> (u64, u64)| {
            let (mut ns, mut n) = (0u64, 0u64);
            while n < iters {
                let set = &sets[cursor % sets.len()];
                cursor += 1;
                let mut c = Counted::new(&set.txns, &set.spec);
                set.run(&mut c);
                let (a, b) = pick(&c);
                ns += a;
                n += b;
            }
            Duration::from_nanos((ns as u128 * u128::from(iters) / u128::from(n)) as u64)
        };
        group.bench_function(format!("request/longlived/{label}"), |b| {
            b.iter_custom(|iters| timed(iters, |c| (c.request_ns, c.grants + c.aborts)))
        });
        group.bench_function(format!("abort/longlived/{label}"), |b| {
            b.iter_custom(|iters| timed(iters, |c| (c.abort_ns, c.aborts)))
        });
        let mut run = LoopRun::default();
        let (mut grants, mut arcs, mut undone, mut replayed) = (0u64, 0u64, 0u64, 0u64);
        for set in &sets {
            let mut c = Counted::new(&set.txns, &set.spec);
            let r = set.run(&mut c);
            run.requests += r.requests;
            run.aborts += r.aborts;
            grants += c.grants;
            arcs += c.granted_arcs;
            undone += c.undone;
            replayed += c.replayed;
        }
        let per = |x: u64, n: u64| x as f64 / n.max(1) as f64;
        println!(
            "  longlived/{label}: {SETS} sets x {STREAMS} streams: {} requests, {} aborts; \
             {:.1} arcs/admission, <= {:.1} journal entries undone/abort, \
             {:.1} survivors replayed/abort",
            run.requests,
            run.aborts,
            per(arcs, grants),
            per(undone, run.aborts),
            per(replayed, run.aborts),
        );
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
    bench_longlived(&mut h);
    bench_vclock_certify(&mut h);
    // Anchor at the workspace root, not the bench cwd, so the tracked
    // file is always the one that gets refreshed.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rsg_sgt.json");
    if let Err(e) = h.write_json(out) {
        eprintln!("could not write {out}: {e}");
    }
}
