//! Crude hot-path cost split for the incremental RSG engine, for use when
//! no system profiler is available (this container has no `perf`).
//!
//! Wraps `RsgSgt`'s engine in a timing adapter that measures, per
//! request, the delta computation (`propose`: the ancestor-bitset union,
//! then the clock-skeleton pair of each moved maximum) and the full
//! admission (`try_admit`, which recomputes the delta in scratch and
//! applies it to the dag), plus rollback time in `abort`. `try_admit −
//! propose` then approximates the dag batch-application share; extend
//! the adapter with more `Instant` spans when a finer split is needed
//! (that is how the per-head batch DFS and the scratch-buffer reuse wins
//! were found, and how the per-ancestor arc family showed up as the
//! long-lived regime's cost). The same split on the repository
//! benchmark's long-lived sets, with arcs per admission and the rollback
//! counts beside it, is the `incremental` bench's `rsg_sgt_longlived`
//! group.
//!
//! Run on an idle machine (a concurrent build inflates every row), at
//! least twice, and read the minimum — outside load only ever inflates:
//!
//! ```text
//! cargo run --release -p relser-bench --example prof_engine
//! ```
//!
//! The service's own per-layer costs (queue transfer, decision time,
//! WAL barrier) are the repo benchmark's `--trace 1` rows, not this.

use relser_core::ids::{OpId, TxnId};
use relser_core::incremental::{AdmitError, IncrementalRsg};
use relser_protocols::driver::{run, RunConfig};
use relser_protocols::{AbortReason, Decision, Scheduler};
use relser_workload::longlived::{long_lived, LongLivedConfig};
use std::time::Instant;

struct Split {
    engine: IncrementalRsg,
    propose_ns: u64,
    admit_ns: u64,
    abort_ns: u64,
    commit_ns: u64,
    requests: u64,
    aborts: u64,
}

impl Scheduler for Split {
    fn name(&self) -> &'static str {
        "RSG-SGT-split"
    }

    fn begin(&mut self, _txn: TxnId) {}

    fn request(&mut self, op: OpId) -> Decision {
        let t0 = Instant::now();
        let delta = self.engine.propose(op);
        let t1 = Instant::now();
        let r = self.engine.try_admit(op);
        let t2 = Instant::now();
        std::hint::black_box(&delta);
        self.propose_ns += (t1 - t0).as_nanos() as u64;
        self.admit_ns += (t2 - t1).as_nanos() as u64;
        self.requests += 1;
        match r {
            Ok(_) => Decision::Granted,
            Err(AdmitError::Cycle(_)) => Decision::Aborted(AbortReason::CycleRejected),
            Err(_) => Decision::Aborted(AbortReason::Retired), // retired or out of order
        }
    }

    fn commit(&mut self, txn: TxnId) {
        let t0 = Instant::now();
        self.engine.commit(txn);
        self.commit_ns += t0.elapsed().as_nanos() as u64;
    }

    fn abort(&mut self, txn: TxnId) {
        let t0 = Instant::now();
        self.engine.abort(txn);
        self.abort_ns += t0.elapsed().as_nanos() as u64;
        self.aborts += 1;
    }

    fn retired(&self, txn: TxnId) -> bool {
        self.engine.is_retired(txn)
    }
}

fn main() {
    let sc = long_lived(&LongLivedConfig::default(), 19);
    let cfg = RunConfig {
        seed: 5,
        max_steps: 10_000_000,
    };
    let mut total_prop = 0u64;
    let mut total_admit = 0u64;
    let mut total_abort = 0u64;
    let mut total_commit = 0u64;
    let mut reqs = 0u64;
    for seed in 0..10u64 {
        let mut s = Split {
            engine: IncrementalRsg::new(&sc.txns, &sc.spec),
            propose_ns: 0,
            admit_ns: 0,
            abort_ns: 0,
            commit_ns: 0,
            requests: 0,
            aborts: 0,
        };
        let cfg = RunConfig { seed, ..cfg };
        run(&sc.txns, &mut s, &cfg).unwrap();
        total_prop += s.propose_ns;
        total_admit += s.admit_ns;
        total_abort += s.abort_ns;
        total_commit += s.commit_ns;
        reqs += s.requests;
    }
    println!("requests: {reqs}");
    println!(
        "propose (alloc variant): {} ns/req",
        total_prop / reqs.max(1)
    );
    println!(
        "try_admit (scratch propose + dag): {} ns/req",
        total_admit / reqs.max(1)
    );
    println!("abort amortized: {} ns/req", total_abort / reqs.max(1));
    println!("commit amortized: {} ns/req", total_commit / reqs.max(1));
}
