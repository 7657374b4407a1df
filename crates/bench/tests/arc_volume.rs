//! A deterministic guard on the arcs the incremental engine hands its
//! graph, with no timing in it.
//!
//! The benchmark's sixteen long-lived sets (`relser_bench::streams`) run
//! to commit on six closed-loop streams through [`RsgSgt`]. The mean
//! number of arcs per admission must stay at the clock skeleton's size:
//! at most 8 under the relative spec and at most 1 under the absolute
//! spec, where the whole Definition 3 family per ancestor operation
//! hands over 71.8 and 3.3 on these runs. The decisions must stay what
//! they were under that family: the runs make the same requests and
//! aborts, and in lockstep with the full-rebuild [`RsgSgtOracle`] every
//! decision and the admitted prefix after every step are identical.

use relser_bench::streams::{long_lived_sets, LoopRun};
use relser_check::RsgSgtOracle;
use relser_core::ids::{OpId, TxnId};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::{Decision, Scheduler};

/// The engine, optionally in lockstep with the oracle; counts the arcs
/// of each grant (`propose` is the delta `try_admit` applies).
struct Lockstep {
    inc: RsgSgt,
    oracle: Option<RsgSgtOracle>,
    grants: u64,
    arcs: u64,
}

impl Scheduler for Lockstep {
    fn name(&self) -> &'static str {
        "RSG-SGT-lockstep"
    }

    fn begin(&mut self, txn: TxnId) {
        self.inc.begin(txn);
        if let Some(o) = &mut self.oracle {
            o.begin(txn);
        }
    }

    fn request(&mut self, op: OpId) -> Decision {
        let arcs = self.inc.engine().propose(op).arcs.len() as u64;
        let decision = self.inc.request(op);
        if let Some(o) = &mut self.oracle {
            assert_eq!(decision, o.request(op), "decision at {op:?}");
            assert_eq!(self.inc.admitted(), o.admitted(), "prefix at {op:?}");
        }
        if decision == Decision::Granted {
            self.grants += 1;
            self.arcs += arcs;
        }
        decision
    }

    fn commit(&mut self, txn: TxnId) {
        self.inc.commit(txn);
        if let Some(o) = &mut self.oracle {
            o.commit(txn);
        }
    }

    fn abort(&mut self, txn: TxnId) {
        self.inc.abort(txn);
        if let Some(o) = &mut self.oracle {
            o.abort(txn);
            assert_eq!(self.inc.admitted(), o.admitted(), "abort of {txn:?}");
        }
    }
}

/// Requests and aborts over the pool, and the mean arcs per admission.
fn run_pool(relative: bool, with_oracle: bool) -> (LoopRun, f64) {
    let (mut total, mut grants, mut arcs) = (LoopRun::default(), 0, 0);
    for set in long_lived_sets(relative) {
        let mut s = Lockstep {
            inc: RsgSgt::new(&set.txns, &set.spec),
            oracle: with_oracle.then(|| RsgSgtOracle::new(&set.txns, &set.spec)),
            grants: 0,
            arcs: 0,
        };
        let run = set.run(&mut s);
        total.requests += run.requests;
        total.aborts += run.aborts;
        grants += s.grants;
        arcs += s.arcs;
    }
    (total, arcs as f64 / grants as f64)
}

/// What the pool asks under the relative and the absolute spec when every
/// ancestor operation contributes its whole Definition 3 family: the
/// skeleton must decide alike.
const RELATIVE_RUN: LoopRun = LoopRun {
    requests: 20_920,
    aborts: 401,
};
const ABSOLUTE_RUN: LoopRun = LoopRun {
    requests: 21_485,
    aborts: 444,
};

#[test]
fn relative_spec_hands_at_most_eight_arcs_per_admission() {
    let (run, mean) = run_pool(true, false);
    assert_eq!(run, RELATIVE_RUN);
    assert!(mean <= 8.0, "{mean:.2} arcs per admission");
}

#[test]
fn absolute_spec_hands_at_most_one_arc_per_admission() {
    let (run, mean) = run_pool(false, false);
    assert_eq!(run, ABSOLUTE_RUN);
    assert!(mean <= 1.0, "{mean:.2} arcs per admission");
}

/// The rebuild oracle costs O(P²) per request on sets of ~600
/// operations: about a minute and a half a spec in release, far longer
/// unoptimized, so these locksteps run in release builds only (CI's
/// vector-clock job).
#[test]
#[cfg_attr(debug_assertions, ignore = "the O(P²) rebuild oracle needs --release")]
fn relative_spec_decisions_match_the_rebuild_oracle() {
    assert_eq!(run_pool(true, true).0, RELATIVE_RUN);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the O(P²) rebuild oracle needs --release")]
fn absolute_spec_decisions_match_the_rebuild_oracle() {
    assert_eq!(run_pool(false, true).0, ABSOLUTE_RUN);
}
