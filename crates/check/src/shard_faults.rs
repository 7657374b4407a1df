//! Crash-at-k sweeps over the sharded service: shards share nothing.
//!
//! A transaction is owned by exactly one shard core, so a crash is one
//! shard's business: whichever core dies at whichever command, and
//! however unevenly the shards' logs are cut, every other shard's
//! acknowledged commits come back, and nothing a shard recovers depends
//! on another shard's log. [`shard_crash_sweep`] pins that down
//! mechanically over a shard-local universe:
//!
//! 1. **Live crash grid** — for every (seed, crash shard, command
//!    ordinal k) cell, a durable sharded run where that shard's core
//!    crashes after its k-th command.
//! 2. **Recovery** — every run (crashed or clean) is recovered from its
//!    per-shard synced logs (each one never-rotating segment) via
//!    [`recover_sharded_segments_with_certifier`], which checks ownership
//!    and re-certifies the merged history. Each shard's recovered
//!    committed set must contain every commit *that shard* acknowledged
//!    live.
//! 3. **Pre-loaded re-drive** — live sessions hand a core mostly one
//!    command at a time, so a live crash almost never lands inside a
//!    multi-command batch. Every faultless cell's per-shard traces are
//!    therefore re-driven from pre-loaded queues
//!    ([`crate::preload::redrive_preloaded`]) in exact batches of
//!    [`PRELOAD_BATCH_MAX`](crate::preload::PRELOAD_BATCH_MAX) commands,
//!    once per crash ordinal: the crash cuts a batch whose earlier
//!    records are appended, whose barrier is pending and whose
//!    acknowledgments are held. A transaction counts as acknowledged
//!    only if its owner's commit reply came back `Granted`.
//! 4. **Skewed-cut recovery** — the logs are additionally cut at
//!    deterministic per-shard fractions (shards crashing at *different*
//!    instants), and each cut set must still recover — with every shard
//!    whose log was left whole keeping all of its acknowledged commits,
//!    whatever the others lost.
//!
//! Every recovery is held to the share-nothing invariant (committed op
//! sets complete in the merged history, no committed transaction with an
//! operation in a log other than its owner's) plus the Theorem 1 oracle
//! re-run *whole* over the merged committed history — independently of
//! the certification sharded recovery already performs internally.

use crate::preload::redrive_preloaded;
use relser_core::ids::{OpId, TxnId};
use relser_core::rsg::Rsg;
use relser_core::shard::ShardMap;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::Scheduler;
use relser_server::{
    recover_and_resume, recover_sharded_segments_with_certifier, serve_sharded, Certifier,
    FaultPlan, RunOutcome, ServerConfig, ServerError, ShardCoreCtx, ShardedRecovery, ShardedReport,
};
use relser_wal::{CheckpointPolicy, CommitLog, MemSegmentStore, MemSegmentsHandle, SegmentedWal};
use relser_workload::stream::RequestStream;

/// The sweep grid. Every combination of seed × crash shard × crash
/// ordinal runs once.
#[derive(Clone, Debug)]
pub struct ShardSweepConfig {
    /// Shard (admission core) count.
    pub shards: usize,
    /// Arrival-order seeds.
    pub seeds: Vec<u64>,
    /// Command ordinals at which the crash shard's core fail-stops.
    /// `None` entries run faultless (the clean-recovery baseline).
    pub crash_commands: Vec<Option<u64>>,
    /// Shards to crash (each ordinal runs once per entry, mod `shards`).
    pub crash_shards: Vec<u32>,
    /// Per-shard log-cut fractions, in per-mille (each entry is one cut
    /// recovery: shard `s` keeps `fractions[s % len]`‰ of its log).
    pub cut_permille: Vec<Vec<u64>>,
    /// Session worker threads per run.
    pub workers: usize,
}

impl Default for ShardSweepConfig {
    fn default() -> Self {
        ShardSweepConfig {
            shards: 3,
            seeds: vec![1, 2],
            crash_commands: vec![None, Some(2), Some(5), Some(9), Some(14), Some(21)],
            crash_shards: vec![0, 1],
            cut_permille: vec![
                vec![1000, 0, 500],
                vec![0, 1000, 1000],
                vec![700, 300, 900],
                vec![1000, 1000, 250],
            ],
            workers: 4,
        }
    }
}

/// What the sweep observed; [`ShardSweepReport::clean`] is the pass/fail.
#[derive(Debug, Default)]
pub struct ShardSweepReport {
    /// Live runs driven (crashed and faultless).
    pub runs: u64,
    /// Pre-loaded multi-command-batch re-drives of faultless runs.
    pub preloaded_runs: u64,
    /// Re-drives whose crash shard fail-stopped (the interesting ones).
    pub preloaded_crashes: u64,
    /// Runs that ended in a core crash (the interesting cells).
    pub crashed_runs: u64,
    /// Recoveries performed (full logs + skewed cuts).
    pub recoveries: u64,
    /// Recoveries whose merged history the Theorem 1 oracle re-certified.
    pub oracle_checked: u64,
    /// Acknowledged commits verified present — in their own shard's
    /// recovered committed set and in the merged one — after a recovery
    /// that kept that shard's log whole.
    pub acked_commits_checked: u64,
    /// Acknowledged commits such a recovery lost (must be 0).
    pub lost_commits: u64,
    /// Recoveries that errored — including an internal certification
    /// failure inside sharded recovery (must be 0).
    pub failed_recoveries: u64,
    /// Transactions recovered by halves: committed with an incomplete op
    /// set in the merged history (must be 0).
    pub half_committed: u64,
    /// Committed transactions with an operation in a shard log other than
    /// their owner's (must be 0: shards share nothing).
    pub foreign_ops: u64,
    /// Merged histories the independent oracle re-run found cyclic
    /// (must be 0).
    pub oracle_violations: u64,
}

impl ShardSweepReport {
    /// Did every crash point roll back cleanly and recover certified?
    pub fn clean(&self) -> bool {
        self.lost_commits == 0
            && self.failed_recoveries == 0
            && self.half_committed == 0
            && self.foreign_ops == 0
            && self.oracle_violations == 0
    }
}

/// Runs the share-nothing crash sweep over one shard-local universe; see
/// the module docs. Everything logs under
/// [`relser_wal::FsyncPolicy::Always`], the policy whose
/// acknowledged-commit contract is checkable pointwise.
pub fn shard_crash_sweep(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    cfg: &ShardSweepConfig,
) -> ShardSweepReport {
    assert!(cfg.shards >= 2, "sharing nothing needs at least 2 shards");
    let mut report = ShardSweepReport::default();
    for &seed in &cfg.seeds {
        for &crash_shard in &cfg.crash_shards {
            let crash_shard = crash_shard as usize % cfg.shards;
            for &crash_at in &cfg.crash_commands {
                let mut faults = vec![FaultPlan::default(); cfg.shards];
                faults[crash_shard].crash_at_command = crash_at;

                let server_cfg = ServerConfig {
                    workers: cfg.workers,
                    record_trace: true,
                    ..ServerConfig::default()
                };
                let stream = RequestStream::shuffled(txns, seed);
                let (mut wals, scheds, handles) = open_shards(txns, spec, cfg.shards);
                let run = serve_sharded(
                    txns,
                    &stream,
                    scheds,
                    &server_cfg,
                    &faults,
                    wals.iter_mut()
                        .map(|w| w as &mut dyn CommitLog)
                        .collect::<Vec<_>>(),
                );
                assert!(
                    !matches!(run.outcome, RunOutcome::Failed(ServerError::CrossShard(_))),
                    "the sweep needs a shard-local universe"
                );
                report.runs += 1;
                report.crashed_runs += u64::from(run.outcome == RunOutcome::Crashed);
                // What each shard acknowledged live: its commits up to the
                // last released batch.
                let acked: Vec<Vec<TxnId>> =
                    run.shards.iter().map(|o| o.committed.clone()).collect();

                // Full-log recovery: every shard hands back every commit
                // it acknowledged, nothing by halves.
                let logs = shard_logs(&handles);
                if let Some(rec) = try_recover(txns, spec, &logs, &mut report) {
                    check_acked(&rec, &acked, |_| true, &mut report);
                    check_invariants(txns, spec, &rec, &mut report);
                }

                // The faultless cell's traces, re-driven in multi-command
                // batches with the crash inside one of them.
                if crash_at.is_none() && run.outcome == RunOutcome::Completed {
                    for &k in cfg.crash_commands.iter().flatten() {
                        faults[crash_shard].crash_at_command = Some(k);
                        redrive_cell(txns, spec, &run, &faults, &mut report);
                    }
                }

                // Skewed cuts: shards lose different log suffixes, and a
                // shard that lost nothing keeps everything it acked.
                for fractions in &cfg.cut_permille {
                    let keep = |s: usize| fractions[s % fractions.len()].min(1000) as usize;
                    let cut: Vec<Vec<u8>> = logs
                        .iter()
                        .enumerate()
                        .map(|(s, bytes)| bytes[..bytes.len() * keep(s) / 1000].to_vec())
                        .collect();
                    if let Some(rec) = try_recover(txns, spec, &cut, &mut report) {
                        check_acked(&rec, &acked, |s| keep(s) == 1000, &mut report);
                        check_invariants(txns, spec, &rec, &mut report);
                    }
                }
            }
        }
    }
    report
}

/// One never-rotating log per shard, opened on an empty in-memory store
/// (its head stamped with the shard's id), with the scheduler it pairs
/// with and its read handle.
fn open_shards<'a>(
    txns: &'a TxnSet,
    spec: &'a AtomicitySpec,
    shards: usize,
) -> (
    Vec<SegmentedWal>,
    Vec<Box<dyn Scheduler + Send + 'a>>,
    Vec<MemSegmentsHandle>,
) {
    let mut opened = (Vec::new(), Vec::new(), Vec::new());
    for shard in 0..shards as u32 {
        let handle = MemSegmentStore::new().1;
        let fresh = Box::new(RsgSgt::new(txns, spec));
        let ckpt = CheckpointPolicy::never();
        let (wal, scheduler, _) =
            recover_and_resume(handle.clone(), fresh, txns, spec, shard, ckpt)
                .expect("an empty in-memory store opens");
        opened.0.push(wal);
        opened.1.push(scheduler);
        opened.2.push(handle);
    }
    opened
}

/// Each shard's one segment (the logs never rotate).
fn shard_logs(handles: &[MemSegmentsHandle]) -> Vec<Vec<u8>> {
    handles.iter().map(|h| h.segments().remove(0).1).collect()
}

/// Re-drives every shard of the faultless `run` from a pre-loaded queue
/// under `faults`, recovers from the logs the re-drive left, and holds
/// the result to the same zero-acked-loss and share-nothing checks as a
/// live cell. Acknowledged = the owning shard's commit reply came back
/// `Granted`.
fn redrive_cell(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    run: &ShardedReport,
    faults: &[FaultPlan],
    report: &mut ShardSweepReport,
) {
    let shards = run.shards.len();
    let (mut wals, scheds, handles) = open_shards(txns, spec, shards);
    let mut acked: Vec<Vec<TxnId>> = Vec::with_capacity(shards);
    report.preloaded_runs += 1;
    for (shard, (live, scheduler)) in run.shards.iter().zip(scheds).enumerate() {
        let redrive = redrive_preloaded(
            scheduler,
            &live.trace,
            &faults[shard],
            &mut wals[shard],
            ShardCoreCtx {
                shard: shard as u32,
                ..ShardCoreCtx::default()
            },
        );
        report.preloaded_crashes += u64::from(redrive.out.crashed);
        acked.push(redrive.acked);
    }
    let logs = shard_logs(&handles);
    if let Some(rec) = try_recover(txns, spec, &logs, report) {
        check_acked(&rec, &acked, |_| true, report);
        check_invariants(txns, spec, &rec, report);
    }
}

/// Zero acknowledged-commit loss, shard by shard: every commit shard `s`
/// acknowledged (`acked[s]`) is in that shard's own recovered committed
/// set and in the merged one — for every shard whose log `whole` says the
/// recovery saw uncut, whatever happened to the others.
fn check_acked(
    rec: &ShardedRecovery,
    acked: &[Vec<TxnId>],
    whole: impl Fn(usize) -> bool,
    report: &mut ShardSweepReport,
) {
    for (s, acked) in acked.iter().enumerate().filter(|&(s, _)| whole(s)) {
        for t in acked {
            report.acked_commits_checked += 1;
            if !rec.shards[s].committed.contains(t) || !rec.committed.contains(t) {
                report.lost_commits += 1;
            }
        }
    }
}

fn try_recover(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    logs: &[Vec<u8>],
    report: &mut ShardSweepReport,
) -> Option<ShardedRecovery> {
    report.recoveries += 1;
    let streams: Vec<Vec<(u64, Vec<u8>)>> = logs.iter().map(|b| vec![(0, b.clone())]).collect();
    match recover_sharded_segments_with_certifier(
        txns,
        spec,
        |_| Box::new(RsgSgt::new(txns, spec)) as Box<dyn Scheduler + '_>,
        &streams,
        Certifier::VClock,
    ) {
        Ok(rec) => Some(rec),
        Err(_) => {
            report.failed_recoveries += 1;
            None
        }
    }
}

/// The share-nothing invariant plus the independent whole-history oracle
/// re-run over one recovered state.
fn check_invariants(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    rec: &ShardedRecovery,
    report: &mut ShardSweepReport,
) {
    let map = ShardMap::new(rec.shards.len() as u32);
    for t in &rec.committed {
        let present = rec.history.iter().filter(|o| o.txn == *t).count();
        if present != txns.txn(*t).len() {
            report.half_committed += 1;
        }
        let owner = map.owner_of_txn(txns, *t);
        let foreign = rec
            .shards
            .iter()
            .enumerate()
            .any(|(s, shard)| Some(s as u32) != owner && shard.log.iter().any(|o| o.txn == *t));
        report.foreign_ops += u64::from(foreign);
    }
    if rec.committed.is_empty() {
        return;
    }
    report.oracle_checked += 1;
    if !merged_history_certifies(txns, spec, &rec.committed, &rec.history) {
        report.oracle_violations += 1;
    }
}

/// Theorem 1 over the merged committed history, run whole: project the
/// universe onto the committed subset and demand an acyclic RSG.
fn merged_history_certifies(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    committed: &[TxnId],
    history: &[OpId],
) -> bool {
    let Ok(projection) = relser_core::project::Projection::subset(txns, spec, committed) else {
        return false;
    };
    let Ok(schedule) = projection.schedule(history) else {
        return false;
    };
    Rsg::build(&projection.txns, &schedule, &projection.spec).is_acyclic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relser_workload::random::{random_spec, shard_local_txns, RandomConfig};

    fn universe(seed: u64) -> (TxnSet, AtomicitySpec) {
        let cfg = RandomConfig {
            txns: 9,
            ops_per_txn: (1, 4),
            objects: 6,
            theta: 0.6,
            write_ratio: 0.5,
        };
        let shards = ShardSweepConfig::default().shards as u32;
        let txns = shard_local_txns(&cfg, &ShardMap::new(shards), seed);
        let spec = random_spec(&txns, 0.5, seed);
        (txns, spec)
    }

    #[test]
    fn crash_sweep_is_clean_and_shards_share_nothing() {
        let (txns, spec) = universe(42);
        let report = shard_crash_sweep(&txns, &spec, &ShardSweepConfig::default());
        assert!(report.clean(), "{report:?}");
        assert!(report.crashed_runs > 0, "the grid must hit live crashes");
        assert!(
            report.preloaded_crashes > 0,
            "the pre-loaded re-drives must crash inside multi-command batches: {report:?}"
        );
        assert!(report.recoveries > report.runs, "cut recoveries ran");
        assert!(report.oracle_checked > 0);
        assert!(
            report.acked_commits_checked > report.runs,
            "acknowledged commits were checked on cut recoveries too: {report:?}"
        );
    }
}
