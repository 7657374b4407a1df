//! Conflict serialization-graph testing (SGT) \[Bad79, Cas81\] — the
//! optimistic baseline the paper's RSG-SGT generalizes.
//!
//! One node per transaction incarnation; granting an operation adds a
//! conflict edge from every earlier conflicting accessor; a request whose
//! edges would close a cycle aborts the requester. Committed nodes are
//! garbage-collected once they are sources among live nodes.

use crate::{AbortReason, Decision, Scheduler};
use relser_core::ids::{ObjectId, OpId, TxnId};
use relser_core::op::AccessMode;
use relser_core::txn::TxnSet;
use relser_digraph::incremental::AddEdge;
use relser_digraph::{IncrementalDag, NodeIdx};
use std::collections::HashMap;

#[derive(Clone, Copy, PartialEq, Eq)]
enum TxnState {
    Active,
    Committed,
}

/// Conflict-SGT scheduler.
pub struct ConflictSgt {
    txns: TxnSet,
    dag: IncrementalDag,
    /// Current incarnation node per transaction.
    node_of: HashMap<TxnId, NodeIdx>,
    state: HashMap<NodeIdx, TxnState>,
    /// Access history per object: (node, mode), aborted incarnations
    /// filtered by retirement.
    history: HashMap<ObjectId, Vec<(NodeIdx, TxnId, AccessMode)>>,
}

impl ConflictSgt {
    /// Creates a scheduler over a fixed transaction set.
    pub fn new(txns: &TxnSet) -> Self {
        ConflictSgt {
            txns: txns.clone(),
            dag: IncrementalDag::new(),
            node_of: HashMap::new(),
            state: HashMap::new(),
            history: HashMap::new(),
        }
    }

    /// Retires committed source nodes (standard SGT garbage collection).
    fn collect_garbage(&mut self) {
        loop {
            let mut retired_any = false;
            let candidates: Vec<NodeIdx> = self
                .state
                .iter()
                .filter(|&(_, &st)| st == TxnState::Committed)
                .map(|(&n, _)| n)
                .collect();
            for n in candidates {
                if !self.dag.is_live(n) {
                    continue;
                }
                let has_live_pred = self
                    .dag
                    .graph()
                    .predecessors(n)
                    .any(|p| self.dag.is_live(p));
                if !has_live_pred {
                    self.dag.retire_node(n);
                    self.state.remove(&n);
                    retired_any = true;
                }
            }
            if !retired_any {
                return;
            }
        }
    }
}

impl Scheduler for ConflictSgt {
    fn name(&self) -> &'static str {
        "SGT"
    }

    fn begin(&mut self, txn: TxnId) {
        let node = self.dag.add_node();
        self.node_of.insert(txn, node);
        self.state.insert(node, TxnState::Active);
    }

    fn request(&mut self, op: OpId) -> Decision {
        let me = *self.node_of.get(&op.txn).expect("begin before request");
        let operation = self.txns.op(op).expect("op belongs to the set");
        let accesses = self.history.entry(operation.object).or_default();
        // Edges from every earlier conflicting accessor (live nodes only).
        let edges: Vec<NodeIdx> = accesses
            .iter()
            .filter(|&&(n, t, mode)| {
                t != op.txn
                    && self.dag.is_live(n)
                    && (mode == AccessMode::Write || operation.mode == AccessMode::Write)
            })
            .map(|&(n, _, _)| n)
            .collect();
        for from in edges {
            match self.dag.try_add_edge(from, me) {
                AddEdge::Added | AddEdge::Duplicate => {}
                AddEdge::WouldCycle(_) => {
                    // Partial edges remain but the requester aborts and its
                    // node retires, removing them from consideration.
                    return Decision::Aborted(AbortReason::CycleRejected);
                }
                AddEdge::RetiredEndpoint(_) => {
                    // Unreachable by construction: `edges` is filtered to
                    // live sources and `me` is live. Degrade the request,
                    // never the scheduler.
                    return Decision::Aborted(AbortReason::Retired);
                }
            }
        }
        accesses.push((me, op.txn, operation.mode));
        Decision::Granted
    }

    fn commit(&mut self, txn: TxnId) {
        let node = *self.node_of.get(&txn).expect("known txn");
        self.state.insert(node, TxnState::Committed);
        self.collect_garbage();
    }

    fn abort(&mut self, txn: TxnId) {
        if let Some(node) = self.node_of.remove(&txn) {
            self.dag.retire_node(node);
            self.state.remove(&node);
            for accesses in self.history.values_mut() {
                accesses.retain(|&(n, _, _)| n != node);
            }
        }
        self.collect_garbage();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(t: u32, j: u32) -> OpId {
        OpId::new(TxnId(t), j)
    }

    #[test]
    fn grants_serializable_interleaving() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[y] w2[y]"]).unwrap();
        let mut s = ConflictSgt::new(&txns);
        s.begin(TxnId(0));
        s.begin(TxnId(1));
        for d in [
            s.request(op(0, 0)),
            s.request(op(1, 0)),
            s.request(op(0, 1)),
            s.request(op(1, 1)),
        ] {
            assert_eq!(d, Decision::Granted);
        }
    }

    #[test]
    fn rejects_lost_update_cycle() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let mut s = ConflictSgt::new(&txns);
        s.begin(TxnId(0));
        s.begin(TxnId(1));
        assert_eq!(s.request(op(0, 0)), Decision::Granted); // r1[x]
        assert_eq!(s.request(op(1, 0)), Decision::Granted); // r2[x]
        assert_eq!(s.request(op(0, 1)), Decision::Granted); // w1[x]: T2 -> T1
                                                            // w2[x]: edge T1 -> T2 closes the cycle.
        assert_eq!(
            s.request(op(1, 1)),
            Decision::Aborted(AbortReason::CycleRejected)
        );
    }

    #[test]
    fn abort_clears_history_so_restart_succeeds() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let mut s = ConflictSgt::new(&txns);
        s.begin(TxnId(0));
        s.begin(TxnId(1));
        s.request(op(0, 0));
        s.request(op(1, 0));
        s.request(op(0, 1));
        assert!(matches!(s.request(op(1, 1)), Decision::Aborted(_)));
        s.abort(TxnId(1));
        s.commit(TxnId(0));
        // Restart of T2 now runs clean.
        s.begin(TxnId(1));
        assert_eq!(s.request(op(1, 0)), Decision::Granted);
        assert_eq!(s.request(op(1, 1)), Decision::Granted);
        s.commit(TxnId(1));
    }

    #[test]
    fn committed_sources_are_garbage_collected() {
        let txns = TxnSet::parse(&["w1[x]", "r2[x]"]).unwrap();
        let mut s = ConflictSgt::new(&txns);
        s.begin(TxnId(0));
        assert_eq!(s.request(op(0, 0)), Decision::Granted);
        s.commit(TxnId(0));
        // T1 committed with no predecessors: retired immediately.
        let t1 = s.node_of[&TxnId(0)];
        assert!(!s.dag.is_live(t1));
        s.begin(TxnId(1));
        assert_eq!(s.request(op(1, 0)), Decision::Granted);
        s.commit(TxnId(1));
        let t2 = s.node_of[&TxnId(1)];
        assert!(!s.dag.is_live(t1) && !s.dag.is_live(t2));
    }

    #[test]
    fn sgt_is_more_permissive_than_2pl_on_this_interleaving() {
        // r1[x] w2[x] r1[y]: 2PL would block w2[x]; SGT grants all (single
        // edge T1 -> T2).
        let txns = TxnSet::parse(&["r1[x] r1[y]", "w2[x]"]).unwrap();
        let mut s = ConflictSgt::new(&txns);
        s.begin(TxnId(0));
        s.begin(TxnId(1));
        assert_eq!(s.request(op(0, 0)), Decision::Granted);
        assert_eq!(s.request(op(1, 0)), Decision::Granted);
        assert_eq!(s.request(op(0, 1)), Decision::Granted);
    }
}
