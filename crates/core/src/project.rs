//! Universe projection: restrict a `(TxnSet, AtomicitySpec)` pair to a
//! transaction subset (optionally with truncated program suffixes) and
//! map operation ids across the restriction.
//!
//! Three consumers need this:
//!
//! * the model checker's oracle suite (`relser-check`), to validate the
//!   *committed* transactions of a partial execution (crashed or
//!   given-up runs) as a complete schedule over the committed
//!   sub-universe;
//! * the counterexample shrinker, which minimizes a failing universe by
//!   deleting whole transactions and truncating program suffixes;
//! * the server's crash-recovery manager (`relser-server`), to
//!   re-certify the committed prefix recovered from the write-ahead log
//!   against the Theorem 1 RSG oracle.

use crate::error::Result;
use crate::ids::{OpId, TxnId};
use crate::schedule::Schedule;
use crate::spec::AtomicitySpec;
use crate::txn::TxnSet;

/// A sub-universe of an original `(TxnSet, AtomicitySpec)` pair, with the
/// id mapping needed to carry operations across.
pub struct Projection {
    /// The projected transaction set (dense new ids).
    pub txns: TxnSet,
    /// The projected atomicity specification: original breakpoints
    /// restricted to surviving pairs and clamped to truncated lengths.
    pub spec: AtomicitySpec,
    /// `kept[new]` = original id of projected transaction `new`.
    kept: Vec<TxnId>,
}

impl Projection {
    /// Projects onto `keep` (original ids, any order — the order becomes
    /// the new id order), truncating transaction `keep[k]` to its first
    /// `lens[k]` operations. Every length must be ≥ 1 and ≤ the original.
    pub fn new(
        txns: &TxnSet,
        spec: &AtomicitySpec,
        keep: &[TxnId],
        lens: &[u32],
    ) -> Result<Projection> {
        assert_eq!(keep.len(), lens.len());
        let mut sub = TxnSet::new();
        for (&t, &len) in keep.iter().zip(lens) {
            let txn = txns.txn(t);
            assert!(len >= 1 && len <= txn.len() as u32, "bad truncation");
            let pairs: Vec<_> = txn.ops()[..len as usize]
                .iter()
                .map(|op| (op.mode, txns.objects().name(op.object)))
                .collect();
            sub.add(&pairs)?;
        }
        // Original unit structure of T_i as seen by T_j, with breakpoints
        // beyond the truncated length dropped.
        let sub_spec = AtomicitySpec::from_pairs(&sub, |i, j| {
            spec.breakpoints(keep[i.index()], keep[j.index()])
                .iter()
                .copied()
                .filter(|&b| b < lens[i.index()])
                .collect()
        })?;
        Ok(Projection {
            txns: sub,
            spec: sub_spec,
            kept: keep.to_vec(),
        })
    }

    /// Projects onto `keep` with full (untruncated) program lengths.
    pub fn subset(txns: &TxnSet, spec: &AtomicitySpec, keep: &[TxnId]) -> Result<Projection> {
        let lens: Vec<u32> = keep.iter().map(|&t| txns.txn(t).len() as u32).collect();
        Projection::new(txns, spec, keep, &lens)
    }

    /// Original ids of the projected transactions, in new-id order.
    pub fn kept(&self) -> &[TxnId] {
        &self.kept
    }

    /// Maps an original-universe operation into the projection. `None`
    /// if its transaction was dropped or the operation truncated away.
    pub fn from_original(&self, op: OpId) -> Option<OpId> {
        let new = self.kept.iter().position(|&t| t == op.txn)?;
        let new_txn = TxnId(new as u32);
        (op.index < self.txns.txn(new_txn).len() as u32).then(|| OpId::new(new_txn, op.index))
    }

    /// Maps a projected operation back to the original universe.
    pub fn to_original(&self, op: OpId) -> OpId {
        OpId::new(self.kept[op.txn.index()], op.index)
    }

    /// Interprets `log` (original-universe ops, e.g. a committed history)
    /// as a complete schedule over the projection. Errors if the mapped
    /// ops are not a valid permutation in program order — which for a
    /// committed history would itself be a service bug worth reporting.
    pub fn schedule(&self, log: &[OpId]) -> Result<Schedule> {
        let order: Vec<OpId> = log
            .iter()
            .filter_map(|&op| self.from_original(op))
            .collect();
        Schedule::new(&self.txns, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::Figure1;

    #[test]
    fn subset_keeps_spec_rows() {
        let fig = Figure1::new();
        // Keep T1 and T3 (drop T2).
        let p = Projection::subset(&fig.txns, &fig.spec, &[TxnId(0), TxnId(2)]).unwrap();
        assert_eq!(p.txns.len(), 2);
        assert_eq!(p.txns.total_ops(), 7);
        // Atomicity(T1, T3) had breakpoints {2, 3}; T3 is new id 1.
        assert_eq!(p.spec.breakpoints(TxnId(0), TxnId(1)), &[2, 3]);
        // Atomicity(T3, T1) had breakpoint {2}.
        assert_eq!(p.spec.breakpoints(TxnId(1), TxnId(0)), &[2]);
    }

    #[test]
    fn truncation_clamps_breakpoints() {
        let fig = Figure1::new();
        // T1 truncated to its first 2 ops: breakpoints {2,3} wrt T3 are
        // out of range (must be < len) and get dropped.
        let p = Projection::new(&fig.txns, &fig.spec, &[TxnId(0), TxnId(2)], &[2, 3]).unwrap();
        assert_eq!(p.txns.txn(TxnId(0)).len(), 2);
        assert_eq!(p.spec.breakpoints(TxnId(0), TxnId(1)), &[] as &[u32]);
    }

    #[test]
    fn op_mapping_roundtrips() {
        let fig = Figure1::new();
        let p = Projection::subset(&fig.txns, &fig.spec, &[TxnId(2), TxnId(0)]).unwrap();
        let orig = OpId::new(TxnId(2), 1);
        let new = p.from_original(orig).unwrap();
        assert_eq!(new, OpId::new(TxnId(0), 1));
        assert_eq!(p.to_original(new), orig);
        assert_eq!(p.from_original(OpId::new(TxnId(1), 0)), None, "T2 dropped");
    }

    #[test]
    fn committed_log_projects_to_schedule() {
        let fig = Figure1::new();
        let p = Projection::subset(&fig.txns, &fig.spec, &[TxnId(0)]).unwrap();
        // A full-universe history filtered down to T1's ops.
        let s = p.schedule(fig.s_ra().ops()).unwrap();
        assert_eq!(s.len(), 4);
        assert!(s.is_serial());
    }
}
