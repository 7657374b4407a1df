//! **RSG-SGT** — the scheduler the paper proposes in §3: *"The relative
//! serialization graph … can be used as the basis for a concurrency
//! control protocol similar to serialization graph testing."*
//!
//! ## Architecture: incremental maintenance
//!
//! [`RsgSgt`] is a thin [`Scheduler`] adapter over
//! [`relser_core::incremental::IncrementalRsg`], which maintains the
//! relative serialization graph of the executed prefix *incrementally*:
//!
//! * Nodes for **all** operations and the I-arc skeleton are installed up
//!   front from the static transaction programs, so push-forward /
//!   pull-backward targets exist before they execute — exactly the graph
//!   the offline Theorem 1 checker builds.
//! * Granting one operation appends the clock-skeleton arcs it induces
//!   (an [`relser_core::incremental::RsgDelta`]): one F/B pair per
//!   foreign transaction whose maximal dependency moved, derived from
//!   per-source depends-on bitsets. The skeleton has the RSG's
//!   transitive closure, so it is cyclic iff the RSG is. Appending an
//!   operation never changes the dependencies of already-granted
//!   operations, so arc insertion is monotone and nothing is ever
//!   recomputed — the per-request cost is proportional to the
//!   operation's dependency set plus one bounded cycle search, not O(P²)
//!   like a rebuild.
//! * The delta is applied as one **atomic batch**
//!   ([`relser_digraph::IncrementalDag::try_add_batch_into`]): a request is
//!   granted iff the batch keeps the graph acyclic; a rejected batch
//!   leaves graph and engine bit-for-bit unchanged.
//!
//! ## Rollback discipline
//!
//! Rejection means **abort**, never blocking: RSG arcs only disappear by
//! aborting their transaction, so a cycle can never resolve by waiting —
//! the classic SGT abort discipline. Every grant's batch journal is kept;
//! an abort undoes journals newest-first down to the aborted
//! transaction's first grant, then replays the surviving suffix (replay
//! cannot fail — every replayed arc lies in the closure of the previously
//! acyclic graph). Committed transactions are *retired* once no live
//! transaction reaches them; retired nodes are masked out of every
//! cycle search and their journals, ancestor rows and access entries
//! are pruned, so long-finished transactions stop costing anything. The
//! arena itself never shrinks: it holds the closed universe's nodes from
//! construction on, and that bounds its memory.
//!
//! Because every granted prefix has an acyclic RSG, the final committed
//! history's RSG is acyclic, i.e. **every history this scheduler produces
//! is relatively serializable** (the property tests verify this against
//! the offline checkers).
//!
//! ## The rebuild oracle
//!
//! The original formulation — rebuild the RSG of `prefix + requested op`
//! from scratch per request — lives on in `relser_check::rebuild`, in
//! test and dev code only. That crate's
//! `incremental_equivalence` suite drives both through identical
//! randomized request sequences (including aborts, restarts and
//! retirement) and asserts identical decisions; ablation A3 and the
//! `incremental` bench measure the speedup.

use crate::{AbortReason, Decision, Scheduler};
use relser_core::ids::{OpId, TxnId};
use relser_core::incremental::{AdmitError, IncrementalRsg};
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;

/// The paper's RSG-based serialization-graph-testing scheduler, on the
/// incremental maintenance engine (see the module docs).
pub struct RsgSgt {
    engine: IncrementalRsg,
}

impl RsgSgt {
    /// Creates a scheduler over a fixed transaction set and specification.
    ///
    /// Construction is O(operations), not O(n²) in the transaction count:
    /// the scheduler shares `spec`'s breakpoint matrix rather than copying
    /// it, so building one per shard, restart or recovery is cheap.
    pub fn new(txns: &TxnSet, spec: &AtomicitySpec) -> Self {
        RsgSgt {
            engine: IncrementalRsg::new(txns, spec),
        }
    }

    /// The granted prefix (for inspection / tests).
    pub fn admitted(&self) -> &[OpId] {
        self.engine.admitted()
    }

    /// The underlying incremental engine (for inspection / experiments).
    pub fn engine(&self) -> &IncrementalRsg {
        &self.engine
    }
}

impl Scheduler for RsgSgt {
    fn name(&self) -> &'static str {
        "RSG-SGT"
    }

    fn begin(&mut self, _txn: TxnId) {}

    fn request(&mut self, op: OpId) -> Decision {
        match self.engine.try_admit(op) {
            Ok(_) => Decision::Granted,
            Err(AdmitError::Cycle(_)) => Decision::Aborted(AbortReason::CycleRejected),
            Err(_) => Decision::Aborted(AbortReason::Retired), // retired or out of order
        }
    }

    fn commit(&mut self, txn: TxnId) {
        self.engine.commit(txn);
    }

    fn abort(&mut self, txn: TxnId) {
        self.engine.abort(txn);
    }

    fn retired(&self, txn: TxnId) -> bool {
        self.engine.is_retired(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relser_core::paper::Figure1;

    fn op(t: u32, j: u32) -> OpId {
        OpId::new(TxnId(t), j)
    }

    /// Feed a full schedule through the scheduler; return granted count
    /// before first rejection (or total if all granted).
    fn feed<S: Scheduler>(s: &mut S, n_txns: usize, schedule: &[OpId]) -> usize {
        for t in 0..n_txns as u32 {
            s.begin(TxnId(t));
        }
        for (i, &o) in schedule.iter().enumerate() {
            match s.request(o) {
                Decision::Granted => {}
                _ => return i,
            }
        }
        schedule.len()
    }

    #[test]
    fn admits_the_papers_relatively_atomic_schedule() {
        let fig = Figure1::new();
        let mut s = RsgSgt::new(&fig.txns, &fig.spec);
        let sra = fig.s_ra();
        assert_eq!(
            feed(&mut s, fig.txns.len(), sra.ops()),
            sra.len(),
            "S_ra fully admitted"
        );
    }

    #[test]
    fn admits_relatively_serializable_but_non_serial_interleavings() {
        let fig = Figure1::new();
        let mut s = RsgSgt::new(&fig.txns, &fig.spec);
        let s2 = fig.s_2();
        assert_eq!(
            feed(&mut s, fig.txns.len(), s2.ops()),
            s2.len(),
            "S_2 fully admitted"
        );
    }

    #[test]
    fn rejects_non_relatively_serializable_interleavings() {
        // Lost update under absolute atomicity.
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut s = RsgSgt::new(&txns, &spec);
        s.begin(TxnId(0));
        s.begin(TxnId(1));
        assert_eq!(s.request(op(0, 0)), Decision::Granted);
        assert_eq!(s.request(op(1, 0)), Decision::Granted);
        assert_eq!(s.request(op(0, 1)), Decision::Granted);
        assert_eq!(
            s.request(op(1, 1)),
            Decision::Aborted(AbortReason::CycleRejected)
        );
    }

    #[test]
    fn abort_rolls_back_admitted_prefix() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut s = RsgSgt::new(&txns, &spec);
        s.begin(TxnId(0));
        s.begin(TxnId(1));
        s.request(op(0, 0));
        s.request(op(1, 0));
        s.request(op(0, 1));
        assert!(matches!(s.request(op(1, 1)), Decision::Aborted(_)));
        s.abort(TxnId(1));
        assert_eq!(s.admitted().len(), 2);
        s.commit(TxnId(0));
        // Restart of T2 succeeds.
        s.begin(TxnId(1));
        assert_eq!(s.request(op(1, 0)), Decision::Granted);
        assert_eq!(s.request(op(1, 1)), Decision::Granted);
    }

    #[test]
    fn looser_specs_admit_what_absolute_rejects() {
        // Same interleaving; free spec admits, absolute rejects.
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let order = [op(0, 0), op(1, 0), op(0, 1), op(1, 1)];
        let mut tight = RsgSgt::new(&txns, &AtomicitySpec::absolute(&txns));
        assert_eq!(feed(&mut tight, txns.len(), &order), 3);
        let mut loose = RsgSgt::new(&txns, &AtomicitySpec::free(&txns));
        assert_eq!(feed(&mut loose, txns.len(), &order), 4);
    }

    #[test]
    fn commit_retires_finished_transactions() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut s = RsgSgt::new(&txns, &spec);
        s.begin(TxnId(0));
        assert_eq!(s.request(op(0, 0)), Decision::Granted);
        assert_eq!(s.request(op(0, 1)), Decision::Granted);
        s.commit(TxnId(0));
        assert!(s.engine().is_retired(TxnId(0)));
        // T2 still runs to completion against the retired history.
        s.begin(TxnId(1));
        assert_eq!(s.request(op(1, 0)), Decision::Granted);
        assert_eq!(s.request(op(1, 1)), Decision::Granted);
        s.commit(TxnId(1));
        assert_eq!(s.engine().retired_count(), 2);
    }

    #[test]
    fn granted_prefix_always_has_acyclic_rsg() {
        // After any sequence of grants, the offline RSG of the admitted
        // prefix extended to a full schedule (when complete) is acyclic.
        let fig = Figure1::new();
        let mut s = RsgSgt::new(&fig.txns, &fig.spec);
        let full = fig.s_2();
        assert_eq!(feed(&mut s, fig.txns.len(), full.ops()), full.len());
        let final_schedule =
            relser_core::schedule::Schedule::new(&fig.txns, s.admitted().to_vec()).unwrap();
        assert!(relser_core::rsg::Rsg::build(&fig.txns, &final_schedule, &fig.spec).is_acyclic());
    }
}
