//! Object-space sharding: partition the object universe across N
//! admission cores that share nothing.
//!
//! The paper defines relative serializability per *history* over one
//! `RSG(S)`. A sharded service stays inside that definition by one rule:
//! **a transaction is owned by exactly one shard** — every object it
//! touches hashes to the same core ([`ShardMap::owner_of_txn`]). Conflicts
//! are same-object, so every conflict, hence every D-arc, hence every F/B
//! arc lies between transactions of one shard, and the RSG of the merged
//! history is the disjoint union of the per-shard RSGs: acyclic iff each
//! of them is, whatever scheduler each core runs. Transactions spanning
//! shards are refused, not coordinated — per-shard serialization-graph
//! testing does not compose across shards (the four-transaction history
//! in `crates/server/tests/shard.rs` is granted operation by operation by
//! two shard-local schedulers and merges to a cycle). This module holds
//! the two pure pieces the server builds on:
//!
//! * [`ShardMap`] — the deterministic object → shard hash and the one
//!   ownership function derived from it;
//! * [`merge_program_order`] — the recovery-side merge of per-shard grant
//!   logs into one global schedule consistent with every shard's local
//!   order and every transaction's program order.

use crate::error::{Error, Result};
use crate::ids::{ObjectId, OpId, TxnId};
use crate::txn::TxnSet;

/// A deterministic partition of the object space over `shards` cores.
///
/// Uses a Fibonacci multiplicative hash so consecutive interned object
/// ids spread instead of clustering on one shard; two maps with the same
/// shard count agree forever, which is what makes routing, the WAL
/// streams, and recovery mutually consistent without coordination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// A map over `shards` ≥ 1 shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: u32) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardMap { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning `object`.
    pub fn shard_of(&self, object: ObjectId) -> u32 {
        // Fibonacci hashing: multiply by 2^64 / φ, take the top bits.
        let h = (object.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 33) % self.shards as u64) as u32
    }

    /// The shard owning operation `op` (via its object).
    pub fn shard_of_op(&self, txns: &TxnSet, op: OpId) -> Result<u32> {
        Ok(self.shard_of(txns.op(op)?.object))
    }

    /// The one shard owning every object `txn` touches, or `None` for a
    /// transaction that spans shards. This is *the* ownership function:
    /// the front-ends refuse a transaction it answers `None` for, and
    /// sharded recovery refuses a log in which a shard committed a
    /// transaction it does not own.
    pub fn owner_of_txn(&self, txns: &TxnSet, txn: TxnId) -> Option<u32> {
        let mut shards = txns.txn(txn).ops().iter().map(|o| self.shard_of(o.object));
        let first = shards.next()?;
        shards.all(|s| s == first).then_some(first)
    }

    /// Projects an operation sequence onto one shard: the sub-history of
    /// operations whose objects that shard owns, in the original order.
    pub fn shard_schedule(&self, txns: &TxnSet, ops: &[OpId], shard: u32) -> Result<Vec<OpId>> {
        let mut kept = Vec::new();
        for &op in ops {
            if self.shard_of_op(txns, op)? == shard {
                kept.push(op);
            }
        }
        Ok(kept)
    }
}

/// Merges per-shard grant logs into one global operation sequence that
/// respects (a) each shard's local order and (b) each transaction's
/// program order.
///
/// Greedy head-selection: at every step some shard's head operation has
/// all of its same-transaction predecessors already emitted (the logs are
/// projections of a real execution, whose global order is a witness);
/// ties break by shard index, so the merge is deterministic. Because all
/// conflicting operation pairs share an object — hence a shard — the
/// relative order of every conflicting pair is fixed by its shard's log,
/// and any program-order-consistent merge is conflict-equivalent to the
/// execution's true global order: the RSG verdict does not depend on the
/// tie-break.
///
/// Fails with [`Error`] if the logs are not mergeable (an op's program-
/// order predecessor is missing or buried inconsistently), which means
/// they are not projections of any single valid execution.
pub fn merge_program_order(txns: &TxnSet, shard_logs: &[Vec<OpId>]) -> Result<Vec<OpId>> {
    let total: usize = shard_logs.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    let mut cursor = vec![0usize; shard_logs.len()];
    // emitted[t] = number of t's operations already emitted; an op is
    // emittable when every same-txn op with a smaller index that appears
    // anywhere in the logs has been emitted. Committed histories carry
    // complete op sets, so "count emitted so far == op.index" suffices.
    let mut emitted = vec![0u32; txns.len()];
    while merged.len() < total {
        let mut progressed = false;
        for (s, log) in shard_logs.iter().enumerate() {
            let Some(&op) = log.get(cursor[s]) else {
                continue;
            };
            if op.txn.index() >= txns.len() {
                return Err(Error::Parse(format!(
                    "shard {s} log references unknown transaction {:?}",
                    op.txn
                )));
            }
            if emitted[op.txn.index()] == op.index {
                merged.push(op);
                emitted[op.txn.index()] += 1;
                cursor[s] += 1;
                progressed = true;
            }
        }
        if !progressed {
            return Err(Error::Parse(
                "shard logs are not projections of one execution (merge stuck)".into(),
            ));
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> TxnSet {
        TxnSet::parse(&["w1[x] w1[y]", "w2[y] w2[x]", "r3[x] r3[x]"]).unwrap()
    }

    #[test]
    fn shard_map_is_deterministic_and_total() {
        let map = ShardMap::new(4);
        for i in 0..1000 {
            let s = map.shard_of(ObjectId(i));
            assert!(s < 4);
            assert_eq!(s, map.shard_of(ObjectId(i)), "stable per object");
        }
    }

    #[test]
    fn shard_map_spreads_objects() {
        let map = ShardMap::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4096 {
            counts[map.shard_of(ObjectId(i)) as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 512, "badly skewed partition: {counts:?}");
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let map = ShardMap::new(1);
        for i in 0..64 {
            assert_eq!(map.shard_of(ObjectId(i)), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardMap::new(0);
    }

    #[test]
    fn a_transaction_has_one_owner_or_none() {
        let txns = universe();
        let map = ShardMap::new(8);
        let (x, y) = (ObjectId(0), ObjectId(1));
        assert_ne!(map.shard_of(x), map.shard_of(y), "x and y are apart");
        // T1 and T2 touch x and y: no single owner. T3 touches only x.
        assert_eq!(map.owner_of_txn(&txns, TxnId(0)), None);
        assert_eq!(map.owner_of_txn(&txns, TxnId(1)), None);
        assert_eq!(map.owner_of_txn(&txns, TxnId(2)), Some(map.shard_of(x)));
        // One shard owns everything.
        for t in txns.txn_ids() {
            assert_eq!(ShardMap::new(1).owner_of_txn(&txns, t), Some(0));
        }
    }

    #[test]
    fn shard_schedule_projects_by_object_owner() {
        let txns = universe();
        let map = ShardMap::new(8);
        let all: Vec<OpId> = txns.all_op_ids().collect();
        let mut reunited: Vec<Vec<OpId>> = Vec::new();
        for s in 0..8 {
            reunited.push(map.shard_schedule(&txns, &all, s).unwrap());
        }
        let total: usize = reunited.iter().map(Vec::len).sum();
        assert_eq!(total, all.len(), "projections partition the schedule");
        for (s, ops) in reunited.iter().enumerate() {
            for &op in ops {
                assert_eq!(map.shard_of_op(&txns, op).unwrap(), s as u32);
            }
        }
    }

    #[test]
    fn merge_reunites_shard_projections() {
        let txns = universe();
        let map = ShardMap::new(4);
        // A real interleaved execution, projected per shard…
        let global = txns
            .parse_schedule("w1[x] w2[y] w1[y] r3[x] w2[x] r3[x]")
            .unwrap();
        let logs: Vec<Vec<OpId>> = (0..4)
            .map(|s| map.shard_schedule(&txns, global.ops(), s).unwrap())
            .collect();
        // …merges back into a schedule with the same per-shard orders and
        // program order (possibly a different, conflict-equivalent
        // interleaving of non-conflicting ops).
        let merged = merge_program_order(&txns, &logs).unwrap();
        assert_eq!(merged.len(), global.ops().len());
        let merged_sched = crate::schedule::Schedule::new(&txns, merged).unwrap();
        assert!(merged_sched.conflict_equivalent(&global, &txns));
    }

    #[test]
    fn merge_rejects_impossible_logs() {
        let txns = universe();
        // Op index 1 of T1 without op 0 anywhere: stuck immediately.
        let logs = vec![vec![OpId::new(TxnId(0), 1)]];
        assert!(merge_program_order(&txns, &logs).is_err());
        // Unknown transaction id.
        let logs = vec![vec![OpId::new(TxnId(99), 0)]];
        assert!(merge_program_order(&txns, &logs).is_err());
    }

    #[test]
    fn merge_of_empty_logs_is_empty() {
        let txns = universe();
        assert!(merge_program_order(&txns, &[]).unwrap().is_empty());
        assert!(merge_program_order(&txns, &[vec![], vec![]])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn conflicting_ops_always_share_a_shard() {
        // The soundness anchor: conflicts are same-object, and the map is
        // a function of the object alone.
        let txns = universe();
        let map = ShardMap::new(3);
        let all: Vec<OpId> = txns.all_op_ids().collect();
        for &a in &all {
            for &b in &all {
                let oa = txns.op(a).unwrap();
                let ob = txns.op(b).unwrap();
                if oa.conflicts_with(ob) {
                    assert_eq!(map.shard_of(oa.object), map.shard_of(ob.object));
                }
            }
        }
    }
}
