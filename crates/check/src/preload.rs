//! Re-driving a recorded run from a **pre-loaded** command queue.
//!
//! A live session feeds the admission core mostly one command at a time
//! (it waits for each reply before sending the next), so a fault sweep
//! driven by live sessions almost never cuts the window group commit
//! opens: *records appended, barrier pending, acknowledgments held*.
//! This module closes that gap deterministically. A core-order
//! [`TraceEvent`] log fully describes a run, so turning it back into
//! [`Command`]s, loading them all into a queue, closing it, and only then
//! starting a core with `batch_max > 1` replays the same decisions in
//! exact, multi-command batches — batch `i` is commands
//! `[i * batch_max, (i + 1) * batch_max)` — under whatever core or
//! storage fault the sweep injects.
//!
//! Every commit travels as a [`Command::Commit`] asking for its [`Ack`], so the
//! sweep checks the contract from the client's side of the reply:
//! a transaction counts as acknowledged only if its reply came back
//! `Granted`, and **acked ⇒ durable** is asserted against that set.

use relser_core::ids::TxnId;
use relser_protocols::{Decision, Scheduler};
use relser_server::core::{Ack, Command, CoreOutput, Progress, Reply};
use relser_server::{run_core, BoundedQueue, CoreCfg, FaultPlan, ShardCoreCtx, TraceEvent};
use relser_wal::CommitLog;
use std::collections::HashMap;
use std::time::Instant;

/// The batch size of every pre-loaded re-drive: small enough that a run
/// of a few dozen commands spans several batches, large enough that a
/// batch holds whole begin–grant–commit chains.
pub const PRELOAD_BATCH_MAX: usize = 4;

/// What a pre-loaded re-drive produced.
pub struct PreloadedRun {
    /// The core's own output.
    pub out: CoreOutput,
    /// Transactions whose commit reply came back `Granted`, in commit
    /// order — what a client of this run was told is committed.
    pub acked: Vec<TxnId>,
}

/// Re-drives `trace` through a fresh core from a pre-loaded, closed
/// queue; see the module docs. `shard` is handed to [`run_core`] as is.
pub fn redrive_preloaded(
    scheduler: Box<dyn Scheduler + Send + '_>,
    trace: &[TraceEvent],
    faults: &FaultPlan,
    wal: &mut dyn CommitLog,
    shard: ShardCoreCtx<'_>,
) -> PreloadedRun {
    let queue: BoundedQueue<Command> = BoundedQueue::new(trace.len().max(1));
    let mut commit_replies: Vec<(TxnId, Reply)> = Vec::new();
    // The trace commits complete incarnations: a commit's operation count
    // is one past the index of its transaction's latest grant.
    let mut ops: HashMap<TxnId, u32> = HashMap::new();
    for event in trace {
        let cmd = match event {
            TraceEvent::Begin(txn) => Command::Begin(*txn),
            TraceEvent::Decision(op, decision) => {
                if *decision == Decision::Granted {
                    ops.insert(op.txn, op.index + 1);
                }
                Command::Request {
                    op: *op,
                    enqueued: Instant::now(),
                    reply: Reply::new(),
                }
            }
            TraceEvent::Commit(txn) => {
                let reply = Reply::new();
                commit_replies.push((*txn, reply.clone()));
                Command::Commit {
                    txn: *txn,
                    ops: ops.get(txn).copied().unwrap_or(0),
                    ack: Some(Ack {
                        enqueued: Instant::now(),
                        reply,
                        session: None,
                    }),
                }
            }
            TraceEvent::Abort(txn) => Command::Abort(*txn),
            // Never constructed (see the variant's docs); named only
            // because the match is exhaustive.
            TraceEvent::Admit { .. } => continue,
        };
        assert!(queue.push_wait(cmd).is_ok(), "queue sized for the trace");
    }
    queue.close();
    let out = run_core(
        scheduler,
        &queue,
        &Progress::new(),
        CoreCfg {
            batch_max: PRELOAD_BATCH_MAX,
            record_trace: true,
        },
        faults,
        Some(wal),
        shard,
    );
    let acked = commit_replies
        .into_iter()
        .filter(|(_, reply)| reply.try_take() == Some(Decision::Granted))
        .map(|(txn, _)| txn)
        .collect();
    PreloadedRun { out, acked }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relser_core::paper::Figure1;
    use relser_protocols::SchedulerKind;
    use relser_server::recovery::recover;
    use relser_server::{serve_sharded, RunOutcome, ServerConfig};
    use relser_wal::{FsyncPolicy, MemStorage, WalWriter};
    use relser_workload::stream::RequestStream;

    fn clean_trace(fig: &Figure1) -> (Vec<TraceEvent>, Vec<TxnId>) {
        let (mem, _) = MemStorage::new();
        let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let cfg = ServerConfig {
            workers: 3,
            record_trace: true,
            ..ServerConfig::default()
        };
        let mut run = serve_sharded(
            &fig.txns,
            &RequestStream::shuffled(&fig.txns, 1),
            vec![SchedulerKind::RsgSgt.make(&fig.txns, &fig.spec)],
            &cfg,
            &[],
            vec![&mut wal],
        );
        assert_eq!(run.outcome, RunOutcome::Completed);
        (std::mem::take(&mut run.shards[0].trace), run.committed)
    }

    #[test]
    fn redrive_reproduces_the_run_in_full_batches() {
        let fig = Figure1::new();
        let (trace, committed) = clean_trace(&fig);
        let (mem, handle) = MemStorage::new();
        let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let redrive = redrive_preloaded(
            SchedulerKind::RsgSgt.make(&fig.txns, &fig.spec),
            &trace,
            &FaultPlan::default(),
            &mut wal,
            ShardCoreCtx::default(),
        );
        assert!(!redrive.out.crashed);
        assert_eq!(redrive.out.trace, trace, "same decisions in the same order");
        assert_eq!(redrive.acked, committed);
        assert_eq!(redrive.out.max_batch, PRELOAD_BATCH_MAX);
        assert_eq!(
            redrive.out.batches as usize,
            trace.len().div_ceil(PRELOAD_BATCH_MAX)
        );
        // One write and at most one barrier per batch (+ the header's).
        assert!(redrive.out.wal.appends <= redrive.out.batches + 1);
        assert!(redrive.out.wal.syncs <= redrive.out.batches + 1);
        let mut fresh = SchedulerKind::RsgSgt.make(&fig.txns, &fig.spec);
        let rec = recover(&fig.txns, &fig.spec, &mut *fresh, &handle.synced_bytes()).unwrap();
        assert_eq!(rec.committed, committed);
    }

    #[test]
    fn crash_inside_a_batch_acknowledges_nothing_of_it() {
        use relser_core::ids::OpId;
        use relser_core::spec::AtomicitySpec;
        use relser_core::txn::TxnSet;
        let txns = TxnSet::parse(&["w1[x]", "w2[y]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let granted = |t| TraceEvent::Decision(OpId::new(TxnId(t), 0), Decision::Granted);
        let trace = [
            TraceEvent::Begin(TxnId(0)),
            granted(0),
            TraceEvent::Commit(TxnId(0)),
            // Command 3, the last of batch 0, is the crash point: T0's
            // commit is applied and its record appended — and it must
            // come back un-acknowledged and un-recovered.
            TraceEvent::Begin(TxnId(1)),
            granted(1),
            TraceEvent::Commit(TxnId(1)),
        ];
        let (mem, handle) = MemStorage::new();
        let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let redrive = redrive_preloaded(
            SchedulerKind::RsgSgt.make(&txns, &spec),
            &trace,
            &FaultPlan {
                crash_at_command: Some(3),
                ..FaultPlan::default()
            },
            &mut wal,
            ShardCoreCtx::default(),
        );
        assert!(redrive.out.crashed);
        assert_eq!(redrive.out.commands, 3, "T0 ran to its commit");
        assert_eq!(redrive.acked, vec![], "the batch's commit was never acked");
        assert_eq!(redrive.out.committed, vec![]);
        let mut fresh = SchedulerKind::RsgSgt.make(&txns, &spec);
        let rec = recover(&txns, &spec, &mut *fresh, &handle.bytes()).unwrap();
        assert_eq!(rec.committed, vec![], "and never reached storage");
    }
}
