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
//! the pure piece the server builds on: [`ShardMap`], the deterministic
//! object → shard hash and the one ownership function derived from it.
//! Since every transaction lives on one shard, sharded recovery merges
//! the per-shard logs by concatenation: no weave of split transactions
//! is ever needed.

use crate::error::Result;
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
