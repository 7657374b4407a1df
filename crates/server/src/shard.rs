//! Sharded admission: N single-writer cores that share nothing, behind
//! one object-space router.
//!
//! The single-core service serializes *every* admission decision through
//! one thread; at some throughput that thread is the wall. This module
//! partitions the object space over N shard cores — each owns its shard's
//! scheduler, progress epoch, and (optionally) WAL segment stream — and
//! routes by [`ShardMap`]: the router is the session itself
//! ([`crate::session`], the same code [`crate::serve`] runs over one
//! queue), which sends a transaction's begin, operations and commit to the
//! one core that owns it.
//!
//! ## The rule: one owner per transaction
//!
//! A transaction is admissible iff every object it touches hashes to the
//! same shard ([`ShardMap::owner_of_txn`]). One whose objects span shards
//! is **refused**: [`serve_sharded`] checks the whole stream before it
//! starts a thread and fails the run with
//! [`ServerError::CrossShard`], nothing enqueued, nothing logged; the TCP
//! front-end answers such a request `BadRequest`; sharded recovery refuses
//! a log in which a shard committed a transaction it does not own
//! ([`crate::RecoveryError::NotOwner`]).
//!
//! ## Why that is sound, for every scheduler
//!
//! Theorem 1 certifies a history by one `RSG(S)`. Conflicts are
//! per-object and an object lives on exactly one shard, so with
//! single-owner transactions two transactions of different shards share
//! no object: no conflict, hence no D-arc, hence no F- or B-arc joins
//! them, and I-arcs stay inside a transaction. The RSG of the merged
//! history is therefore the **disjoint union** of the per-shard RSGs —
//! acyclic iff each shard's is — and each shard's scheduler certifies its
//! own, seeing every operation of every transaction it owns.
//!
//! ## Why cross-shard transactions are refused, not coordinated
//!
//! Per-shard serialization-graph testing does not compose. Four
//! transactions over two shards (`a, b` on one, `c, f` on the other;
//! `X1 = r[a] w[c]`, `L = w[a] r[b]`, `S = r[c] w[f]`, `X2 = r[f] w[b]`)
//! can run so that the two cross-shard ones never overlap, every request
//! is granted by its shard's `RsgSgt`, one shard sees only
//! `L → X1, X2 → L` and the other only `X1 → S → X2` — and the merged
//! history is the cycle `L → X1 → S → X2 → L`. The single-shard `S` and
//! `L` carry the order from one shard to the other, so no protocol that
//! coordinates only the cross-shard transactions (leases, two-phase
//! admit) closes it; that takes a global serialization graph, which this
//! service does not have. `crates/server/tests/shard.rs` pins the history.
//! The offline whole-history oracle still re-certifies every merged
//! history — in the tests and in sharded recovery.
//!
//! ## Determinism
//!
//! Each core's trace is a total order of *its* decisions, so
//! [`replay_sharded`] re-runs every shard single-threaded and checks each
//! against its trace. Across shards, every grant draws a ticket from one
//! global sequencer ([`CoreOutput::seq_log`]) and every commit one global
//! stamp, which merge the per-shard logs onto a single timeline consistent
//! with program order and every core's queue order.

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

/// The full observable result of a sharded run — returned even when the
/// run crashed or failed, so harnesses can check the committed prefix
/// against the offline oracles.
#[derive(Debug)]
pub struct ShardedReport {
    /// How the run ended (a crash on *any* shard reports `Crashed`).
    pub outcome: RunOutcome,
    /// Transactions whose owning shard acknowledged their commit, in
    /// global commit-stamp order.
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
    /// The object-space partition the run used.
    pub map: ShardMap,
}

/// A completed sharded run: every transaction committed and the merged
/// history validated as a [`Schedule`].
#[derive(Debug)]
pub struct ShardedRun {
    /// The merged committed history, in global grant order.
    pub history: Schedule,
    /// The full report (per-shard traces, metrics).
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
/// per shard, each built over the full transaction set and spec (ids are
/// global; a shard only ever hears about the transactions it owns). A
/// stream holding a transaction that spans shards is refused whole:
/// [`RunOutcome::Failed`]`(`[`ServerError::CrossShard`]`)`, nothing
/// enqueued. Reports even a partial run;
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
        map,
    } = run_front_end(txns, stream, schedulers, cfg, faults, wals, true);

    // Committed = every shard's acknowledged commits, by global stamp.
    let mut stamped: Vec<(u64, TxnId)> = outputs
        .iter()
        .flat_map(|o| o.commit_stamps.iter().map(|&(t, stamp)| (stamp, t)))
        .collect();
    stamped.sort_unstable();
    let committed: Vec<TxnId> = stamped.into_iter().map(|(_, t)| t).collect();

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

    metrics.committed_ops = history.len() as u64;

    ShardedReport {
        outcome,
        committed,
        log,
        history,
        shards: outputs,
        metrics,
        shard_sheds,
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
