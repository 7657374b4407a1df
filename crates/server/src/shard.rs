//! Sharded admission: N single-writer cores behind one object-space router.
//!
//! The single-core service serializes *every* admission decision through
//! one thread; at some throughput that thread is the wall. This module
//! partitions the object space over N shard cores — each owns its shard's
//! scheduler, progress epoch, and (optionally) WAL segment stream — and
//! routes by [`ShardMap`]: the router is the session itself
//! ([`crate::session`], the same code [`crate::serve`] runs over one
//! queue), which sends each operation to the core owning its object. The
//! one correctness story is unchanged: whatever the shards interleave,
//! the committed history, merged whole, must pass the offline Theorem 1
//! oracle.
//!
//! ## Routing
//!
//! A transaction whose objects all hash to one shard runs the ordinary
//! session protocol entirely against that shard's queue — no coordination,
//! no extra messages; this is the common case sharding exists to scale.
//!
//! A **cross-shard** transaction runs a lightweight two-phase admit:
//!
//! 1. **Admit.** The router takes a *shard-set lease* on every owning
//!    shard (all-or-wait, so overlapping cross-shard transactions never
//!    interleave their admit→commit windows), then fans
//!    [`Command::Admit`] out to the owners in ascending shard order. Each
//!    admit carries an [`ArcExchange`] snapshot of every shard's commit
//!    epoch — the cross-shard D-arc summary each core folds into its
//!    clock. Any shard's reject aborts the whole admit: the router sends
//!    [`Command::Rollback`] to the shards that already granted, in LIFO
//!    order, releases the lease, and retries with backoff.
//! 2. **Commit.** After every operation is granted (each routed to its
//!    owning shard), the router draws one global commit stamp and sends
//!    the stamped [`Command::Commit`] to every owner. A transaction
//!    *counts as committed only if every owning shard applied its
//!    commit* — the same all-owners rule
//!    [`crate::recovery::recover_sharded_segments_with_certifier`] applies
//!    to the per-shard WAL streams after a crash.
//!
//! ## Why the lease makes per-shard admission sound
//!
//! Conflicts are per-object, and an object lives on exactly one shard, so
//! every conflict arc of the merged history is visible to some shard.
//! Each shard's scheduler holds the full static transaction set and spec
//! (the whole I-skeleton), so any cycle whose conflict anchors all live
//! on one shard is caught locally. A cycle spanning shards must hop
//! between them through cross-shard transactions with pairwise-overlapping
//! shard sets — exactly the pairs the lease serializes: their
//! admit→commit windows are disjoint, every conflict chain between them
//! follows history order, so the hop chain would need the windows to
//! precede each other cyclically. Contradiction. The offline oracle
//! re-certifies every committed multi-shard history whole regardless —
//! the stress tests and sharded recovery both insist on it — so the lease
//! argument is enforced, not assumed.
//!
//! ## Determinism
//!
//! Each core's trace is still a total order of *its* decisions, so
//! [`replay_sharded`] re-runs every shard single-threaded and checks each
//! against its trace. Across shards, every grant draws a ticket from one
//! global sequencer ([`CoreOutput::seq_log`]), which merges the per-shard
//! logs onto a single timeline consistent with program order and every
//! core's queue order; cross-shard admits are recorded in fan-out order
//! as [`AdmitRecord`]s while the lease is held.
//!
//! [`Command::Admit`]: crate::core::Command::Admit
//! [`Command::Rollback`]: crate::core::Command::Rollback
//! [`Command::Commit`]: crate::core::Command::Commit
//! [`ArcExchange`]: relser_core::shard::ArcExchange

use crate::core::{CoreOutput, FaultPlan, TraceEvent};
use crate::metrics::ServerMetrics;
use crate::server::{
    replay, run_front_end, FrontEndRun, ReplayMismatch, RunOutcome, ServerConfig, ServerError,
};
use relser_core::ids::{OpId, TxnId};
use relser_core::schedule::Schedule;
use relser_core::shard::ShardMap;
use relser_core::txn::TxnSet;
use relser_protocols::Scheduler;
use relser_wal::CommitLog;
use relser_workload::stream::RequestStream;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Shard-set leases: strict two-phase locking at shard granularity for
/// cross-shard transactions only. `acquire` takes every requested shard
/// atomically or waits — no incremental hold-and-wait, so lease waiters
/// cannot deadlock each other.
pub(crate) struct LeaseTable {
    held: Mutex<Vec<bool>>,
    cv: Condvar,
}

impl LeaseTable {
    pub(crate) fn new(shards: usize) -> Self {
        LeaseTable {
            held: Mutex::new(vec![false; shards]),
            cv: Condvar::new(),
        }
    }

    /// Blocks until every shard in `shards` is free, then takes them all.
    pub(crate) fn acquire(&self, shards: &[u32]) {
        let mut held = self.held.lock().expect("lease lock");
        loop {
            if shards.iter().all(|&s| !held[s as usize]) {
                for &s in shards {
                    held[s as usize] = true;
                }
                return;
            }
            // Timed wait as a lost-wakeup backstop: release paths always
            // notify, but a bounded re-check keeps a bug from hanging a run.
            let (guard, _) = self
                .cv
                .wait_timeout(held, Duration::from_millis(10))
                .expect("lease lock");
            held = guard;
        }
    }

    pub(crate) fn release(&self, shards: &[u32]) {
        let mut held = self.held.lock().expect("lease lock");
        for &s in shards {
            held[s as usize] = false;
        }
        drop(held);
        self.cv.notify_all();
    }
}

/// One cross-shard admit as the router issued it, recorded while the
/// shard-set lease was held — so the order of these records *is* the
/// serialization order of overlapping cross-shard transactions.
#[derive(Clone, Debug)]
pub struct AdmitRecord {
    /// The admitted transaction.
    pub txn: TxnId,
    /// Its owning shards, ascending (the fan-out order).
    pub shards: Vec<u32>,
    /// The commit-epoch snapshot piggybacked on the admit messages (the
    /// cross-shard D-arc summary each owner folded into its clock).
    pub epochs: Vec<u64>,
    /// Whether every owner granted (false = some shard rejected and the
    /// grants were rolled back LIFO).
    pub granted: bool,
}

/// The full observable result of a sharded run — returned even when the
/// run crashed or failed, so harnesses can check the committed prefix
/// against the offline oracles.
#[derive(Debug)]
pub struct ShardedReport {
    /// How the run ended (a crash on *any* shard reports `Crashed`).
    pub outcome: RunOutcome,
    /// Transactions committed on **all** their owning shards, in global
    /// commit-stamp order. A transaction a crash caught between its
    /// owners' commits (durable on some, not all) is excluded — the
    /// same all-owners rule recovery applies.
    pub committed: Vec<TxnId>,
    /// All shards' granted operations merged onto the global grant
    /// sequencer timeline (live/committed incarnations only).
    pub log: Vec<OpId>,
    /// [`ShardedReport::log`] filtered to [`ShardedReport::committed`]:
    /// the merged committed history to hand the offline oracle.
    pub history: Vec<OpId>,
    /// Each shard core's raw output (per-shard log, trace, counters).
    pub shards: Vec<CoreOutput>,
    /// Aggregate metrics across all shard cores (see
    /// [`ServerMetrics::merge`]); `decision` is rebuilt exactly from the
    /// concatenated per-shard samples.
    pub metrics: ServerMetrics,
    /// Requests shed per shard queue (aggregate is in `metrics.sheds`).
    pub shard_sheds: Vec<u64>,
    /// Cross-shard admits in lease order.
    pub admits: Vec<AdmitRecord>,
    /// The object-space partition the run used.
    pub map: ShardMap,
}

/// A completed sharded run: every transaction committed and the merged
/// history validated as a [`Schedule`].
#[derive(Debug)]
pub struct ShardedRun {
    /// The merged committed history, in global grant order.
    pub history: Schedule,
    /// The full report (per-shard traces, metrics, admit records).
    pub report: ShardedReport,
}

impl ShardedReport {
    /// The completed run — every transaction committed, the merged
    /// history validated as a [`Schedule`] — or the error that says why
    /// there is none.
    pub fn into_run(self, txns: &TxnSet) -> Result<ShardedRun, ServerError> {
        self.outcome.completed()?;
        let history = Schedule::new(txns, self.history.clone())
            .map_err(|e| ServerError::InvalidHistory(e.to_string()))?;
        Ok(ShardedRun {
            history,
            report: self,
        })
    }
}

/// Serves every transaction in `stream` over `schedulers.len()` shard
/// cores — the in-process front-end of the sharded service. One scheduler
/// per shard; each must be built over the full transaction set and spec
/// (a shard sees only its shard's operations, but needs the whole
/// I-skeleton to judge them). Reports even a partial run;
/// [`ShardedReport::into_run`] turns a completed one into its validated
/// merged history.
///
/// `faults` is either empty (no faults) or one plan per shard; `wals` is
/// either empty (non-durable) or one log per shard. Shard `i`'s WAL
/// stream carries shard id `i` in its checkpoints, and
/// [`crate::recovery::recover_sharded_segments_with_certifier`] rebuilds
/// the merged committed history from exactly these streams after a crash.
pub fn serve_sharded<'a>(
    txns: &TxnSet,
    stream: &RequestStream,
    schedulers: Vec<Box<dyn Scheduler + Send + 'a>>,
    cfg: &ServerConfig,
    faults: &[FaultPlan],
    wals: Vec<&mut dyn CommitLog>,
) -> ShardedReport {
    let FrontEndRun {
        outcome,
        outputs,
        mut metrics,
        sheds: shard_sheds,
        admits,
        map,
    } = run_front_end(txns, stream, schedulers, cfg, faults, wals, true);

    // Committed = the all-owners rule over the live stamped-commit applications,
    // ordered by global commit stamp.
    let mut acked: Vec<Vec<u32>> = vec![Vec::new(); txns.len()];
    let mut stamp_of: Vec<Option<u64>> = vec![None; txns.len()];
    for (shard_id, out) in outputs.iter().enumerate() {
        for &(t, stamp) in &out.commit_stamps {
            acked[t.index()].push(shard_id as u32);
            stamp_of[t.index()] = Some(stamp);
        }
    }
    let mut committed: Vec<TxnId> = txns
        .txn_ids()
        .filter(|t| {
            !acked[t.index()].is_empty()
                && map
                    .shards_of_txn(txns, *t)
                    .iter()
                    .all(|s| acked[t.index()].contains(s))
        })
        .collect();
    committed.sort_by_key(|t| stamp_of[t.index()].expect("committed txn has a stamp"));

    // Merge every shard's grants onto the global sequencer timeline.
    let mut seq_entries: Vec<(u64, OpId)> = outputs
        .iter()
        .flat_map(|o| o.seq_log.iter().copied())
        .collect();
    seq_entries.sort_by_key(|&(ticket, _)| ticket);
    let log: Vec<OpId> = seq_entries.into_iter().map(|(_, op)| op).collect();
    let mut is_committed = vec![false; txns.len()];
    for t in &committed {
        is_committed[t.index()] = true;
    }
    let history: Vec<OpId> = log
        .iter()
        .copied()
        .filter(|o| is_committed[o.txn.index()])
        .collect();

    // `commits` counted one per (shard, commit); report whole transactions.
    metrics.commits = committed.len() as u64;
    metrics.committed_ops = history.len() as u64;

    ShardedReport {
        outcome,
        committed,
        log,
        history,
        shards: outputs,
        metrics,
        shard_sheds,
        admits,
        map,
    }
}

/// Replays each shard's recorded trace against a fresh scheduler on one
/// thread (see [`replay`]), returning every shard's replayed grant log.
/// Sharded runs stay deterministic per shard: each core's trace is a
/// total order of that core's decisions.
pub fn replay_sharded(
    schedulers: Vec<Box<dyn Scheduler + '_>>,
    traces: &[Vec<TraceEvent>],
) -> Result<Vec<Vec<OpId>>, ReplayMismatch> {
    assert_eq!(schedulers.len(), traces.len(), "one scheduler per trace");
    schedulers
        .into_iter()
        .zip(traces)
        .map(|(mut scheduler, trace)| replay(&mut *scheduler, trace))
        .collect()
}
