//! The repository benchmark's long-lived sets, driven by closed-loop
//! streams in one thread.
//!
//! The `longlived_rel` and `longlived_abs` workloads of `BENCHMARK.json`
//! run a pool of long-lived sets over TCP with six streams in flight. This
//! module keeps their shape without the wire: [`LONG_LIVED`] is the set
//! generator's configuration, [`long_lived_sets`] the pool, and
//! [`closed_loop`] hands a set's transactions, in the benchmark's seeded
//! arrival order, to a fixed number of streams, each of which requests
//! its transaction's operations one at a time and restarts it at once
//! when it is aborted. The streams take turns round-robin, so a run is
//! deterministic: two builds that decide alike make the same requests in
//! the same order.
//!
//! The `incremental` bench times the engine on these runs, and the
//! `arc_volume` test bounds the arcs the engine hands its graph.
//! [`LongLivedSet::committed_history`] is what a run's log would hold:
//! the `incremental` bench times the recovery certifier on it, and the
//! `clock_width` test pins the skeleton the certifier builds from it.
//! [`rmw_set`] is the shape of the other workloads' sets.

use rand::rngs::StdRng;
use rand::SeedableRng;
use relser_core::ids::{OpId, TxnId};
use relser_core::op::AccessMode;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::{Decision, Scheduler};
use relser_workload::longlived::{long_lived, LongLivedConfig};
use relser_workload::random::random_spec;
use relser_workload::stream::RequestStream;
use relser_workload::zipf::Zipf;

/// The repository benchmark's `pingpong`/`saturate`/`durable` set shape:
/// `n` single-record read-modify-write transactions (`R x; W x`) over
/// `2n` Zipf(0.4) objects under a random spec (breakpoint probability
/// 0.4), generated and specified from `seed`.
pub fn rmw_set(n: usize, seed: u64) -> (TxnSet, AtomicitySpec) {
    let objects = 2 * n;
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(objects, 0.4);
    let names: Vec<String> = (0..objects).map(|i| format!("r{i}")).collect();
    let mut txns = TxnSet::new();
    for _ in 0..n {
        let record = names[zipf.sample(&mut rng)].as_str();
        txns.add(&[(AccessMode::Read, record), (AccessMode::Write, record)])
            .expect("non-empty transaction");
    }
    let spec = random_spec(&txns, 0.4, seed);
    (txns, spec)
}

/// The benchmark's long-lived set: 16 long transactions × 8 read-write
/// steps plus 240 short ones over 192 objects, θ = 0.5.
pub const LONG_LIVED: LongLivedConfig = LongLivedConfig {
    long_txns: 16,
    steps: 8,
    long_writes: true,
    short_txns: 240,
    short_objects: 2,
    objects: 192,
    theta: 0.5,
};

/// Streams in flight, as in the benchmark's long-lived workloads (two
/// connections of three streams).
pub const STREAMS: usize = 6;

/// Sets in the pool, one per seed `0..SETS`.
pub const SETS: u64 = 16;

/// One set of the pool and the seed of its arrival order.
pub struct LongLivedSet {
    /// The transactions.
    pub txns: TxnSet,
    /// Their atomicity specification.
    pub spec: AtomicitySpec,
    /// Generator and arrival-order seed.
    pub seed: u64,
}

impl LongLivedSet {
    /// Runs the set to commit on [`STREAMS`] streams through `sched`.
    pub fn run(&self, sched: &mut dyn Scheduler) -> LoopRun {
        let arrivals = RequestStream::shuffled(&self.txns, self.seed);
        closed_loop(&self.txns, &arrivals, STREAMS, sched)
    }

    /// The committed history a log of [`LongLivedSet::run`] under
    /// RSG-SGT holds: grants in grant order, minus the aborted
    /// incarnations'. Every transaction commits, so it is complete.
    pub fn committed_history(&self) -> Vec<OpId> {
        let mut s = Committed {
            inner: RsgSgt::new(&self.txns, &self.spec),
            history: Vec::new(),
        };
        self.run(&mut s);
        assert_eq!(
            s.history.len(),
            self.txns.total_ops(),
            "every transaction commits"
        );
        s.history
    }
}

/// RSG-SGT recording its grants, less those of aborted incarnations.
struct Committed {
    inner: RsgSgt,
    history: Vec<OpId>,
}

impl Scheduler for Committed {
    fn name(&self) -> &'static str {
        "RSG-SGT-history"
    }

    fn begin(&mut self, txn: TxnId) {
        self.inner.begin(txn);
    }

    fn request(&mut self, op: OpId) -> Decision {
        let d = self.inner.request(op);
        if d == Decision::Granted {
            self.history.push(op);
        }
        d
    }

    fn commit(&mut self, txn: TxnId) {
        self.inner.commit(txn);
    }

    fn abort(&mut self, txn: TxnId) {
        self.inner.abort(txn);
        self.history.retain(|o| o.txn != txn);
    }
}

/// The pool of long-lived sets, under the generator's relative spec (a
/// breakpoint after every long step) or, with `relative` false, under
/// `AtomicitySpec::absolute` on the same transactions.
pub fn long_lived_sets(relative: bool) -> Vec<LongLivedSet> {
    (0..SETS)
        .map(|seed| {
            let sc = long_lived(&LONG_LIVED, seed);
            let spec = if relative {
                sc.spec
            } else {
                AtomicitySpec::absolute(&sc.txns)
            };
            LongLivedSet {
                txns: sc.txns,
                spec,
                seed,
            }
        })
        .collect()
}

/// What one [`closed_loop`] run asked of its scheduler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopRun {
    /// Operation requests, granted or not.
    pub requests: u64,
    /// Requests answered `Aborted` (each one restarts its transaction).
    pub aborts: u64,
}

/// Runs every transaction of `arrivals` to commit on `streams`
/// closed-loop streams (see the module docs). Panics if the run makes no
/// progress within 100 requests per operation of the set.
pub fn closed_loop(
    txns: &TxnSet,
    arrivals: &RequestStream,
    streams: usize,
    sched: &mut dyn Scheduler,
) -> LoopRun {
    let mut run = LoopRun::default();
    // Per stream: its transaction and the index of its next operation.
    let mut slots: Vec<Option<(TxnId, u32)>> = vec![None; streams];
    let cap = 100 * txns.total_ops() as u64;
    loop {
        let mut busy = false;
        for slot in slots.iter_mut() {
            if slot.is_none() {
                if let Some(t) = arrivals.next() {
                    sched.begin(t);
                    *slot = Some((t, 0));
                }
            }
            let Some((t, next)) = slot else { continue };
            let t = *t;
            busy = true;
            run.requests += 1;
            match sched.request(OpId::new(t, *next)) {
                Decision::Granted => {
                    *next += 1;
                    if *next as usize == txns.txn(t).len() {
                        sched.commit(t);
                        *slot = None;
                    }
                }
                Decision::Aborted(_) => {
                    run.aborts += 1;
                    sched.abort(t);
                    sched.begin(t);
                    *next = 0;
                }
                Decision::Blocked { .. } => {} // asks again on its next turn
            }
        }
        if !busy {
            return run;
        }
        assert!(run.requests < cap, "closed loop made no progress");
    }
}
