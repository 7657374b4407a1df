//! The back-end, described once: which core owns a transaction, which
//! queue reaches that core, and what a commit to it carries.
//!
//! Both front-ends — the session threads of [`crate::serve`] /
//! [`crate::serve_sharded`] and the reactors of `relser-net` — submit
//! through one [`Route`]. An unsharded service is its N = 1 row: one
//! queue, one progress epoch, every transaction owned by core 0. What
//! differs between the rows is data: whether the cores are shard cores, in
//! which case commits carry a global stamp ([`Route::stamps`]), and
//! whether they run under a supervisor ([`Route::healths`]).

use crate::core::{Command, Progress};
use crate::queue::BoundedQueue;
use crate::supervisor::ShardHealth;
use relser_core::ids::{OpId, TxnId};
use relser_core::shard::ShardMap;
use relser_core::txn::TxnSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// One run's admission cores as a front-end sees them; every slice is
/// indexed by core (shard id).
#[derive(Clone, Copy)]
pub struct Route<'a> {
    /// The transaction universe.
    pub txns: &'a TxnSet,
    /// The object → core partition.
    pub map: ShardMap,
    /// One command queue per core.
    pub queues: &'a [BoundedQueue<Command>],
    /// One progress epoch per core (blocked-operation resubmits).
    pub progresses: &'a [Progress],
    /// The global commit-stamp counter when the cores are shard cores
    /// ([`crate::ShardCoreCtx`]); `None` over the plain core, whose
    /// commits are stamp-less.
    pub stamps: Option<&'a AtomicU64>,
    /// One liveness slot per core when the cores are supervised: a closed
    /// queue then means *recovering* until its slot says failed.
    pub healths: Option<&'a [ShardHealth]>,
}

impl Route<'_> {
    /// The cores `txn` touches, ascending.
    pub fn owners(&self, txn: TxnId) -> Vec<u32> {
        self.map.shards_of_txn(self.txns, txn)
    }

    /// The one core owning every operation of `txn`; `None` for a
    /// cross-shard transaction (not admissible over the wire).
    pub fn owner(&self, txn: TxnId) -> Option<u32> {
        let mut cores = self.txns.txn(txn).ops().iter();
        let first = self.map.shard_of(cores.next()?.object);
        cores
            .all(|o| self.map.shard_of(o.object) == first)
            .then_some(first)
    }

    /// The core owning `op`'s object.
    pub fn core_of(&self, op: OpId) -> u32 {
        self.map
            .shard_of_op(self.txns, op)
            .expect("op of the universe")
    }

    /// The stamp the next commit carries: one draw from the global
    /// counter per commit (a cross-shard commit sends the same draw to
    /// every owner), `None` over the plain core.
    pub fn next_stamp(&self) -> Option<u64> {
        self.stamps.map(|s| s.fetch_add(1, Ordering::SeqCst))
    }

    /// Is `shard`'s closed queue a restart in progress (its supervisor
    /// has not given up) rather than the end of the run?
    pub fn recovering(&self, shard: u32) -> bool {
        self.healths.is_some_and(|h| !h[shard as usize].is_failed())
    }
}
