//! The back-end, described once: which core owns a transaction, which
//! queue reaches that core, and what a commit to it carries.
//!
//! Both front-ends — the session threads of [`crate::serve_sharded`] and
//! the reactors of `relser-net` — submit
//! through one [`Route`]. A transaction has exactly one owning core and
//! everything it does goes to that core's queue; the cores share nothing
//! (see [`crate::shard`]). An unsharded service is the N = 1 row: one
//! queue, one progress epoch, every transaction owned by core 0. What
//! differs between the rows is data: how many cores there are, and
//! whether they run under a supervisor ([`Route::healths`]). A commit
//! carries the same fields on every row; nothing orders one core's
//! commits against another's.

use crate::core::{Command, Progress};
use crate::queue::BoundedQueue;
use crate::supervisor::ShardHealth;
use relser_core::shard::ShardMap;
use relser_core::txn::TxnSet;

/// One run's admission cores as a front-end sees them; every slice is
/// indexed by core (shard id).
#[derive(Clone, Copy)]
pub struct Route<'a> {
    /// The transaction universe.
    pub txns: &'a TxnSet,
    /// The object → core partition. [`ShardMap::owner_of_txn`] over
    /// [`Route::txns`] names the one core a transaction runs on; `None`
    /// is a transaction spanning shards, which no front-end admits.
    pub map: ShardMap,
    /// One command queue per core.
    pub queues: &'a [BoundedQueue<Command>],
    /// One progress epoch per core (blocked-operation resubmits).
    pub progresses: &'a [Progress],
    /// One liveness slot per core when the cores are supervised: a closed
    /// queue then means *recovering* until its slot says failed.
    pub healths: Option<&'a [ShardHealth]>,
}

impl Route<'_> {
    /// Is `shard`'s closed queue a restart in progress (its supervisor
    /// has not given up) rather than the end of the run?
    pub fn recovering(&self, shard: u32) -> bool {
        self.healths.is_some_and(|h| !h[shard as usize].is_failed())
    }
}
