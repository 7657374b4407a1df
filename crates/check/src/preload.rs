//! Re-driving a recorded run from a **pre-loaded** command queue.
//!
//! A live session feeds the admission core mostly one command at a time
//! (it waits for each reply before sending the next), so a fault sweep
//! driven by live sessions almost never cuts the window group commit
//! opens: *records appended, barrier pending, commit acknowledgments
//! held*.
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
//!
//! The trace need not come from a threaded run: [`closed_loop_trace`]
//! drives a scheduler directly, on closed-loop streams taking turns in one
//! thread, and records the trace a core would. Re-driven, it writes the
//! same log on every run, so a sweep over that log checks the same bytes
//! every time.

use relser_core::ids::{OpId, TxnId};
use relser_core::txn::TxnSet;
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

/// A single-threaded run of `arrivals`, in order, on `streams`
/// closed-loop streams taking turns round-robin, straight through
/// `scheduler`; returns the core-order trace a core would have recorded
/// for the same commands. Each stream requests its transaction's
/// operations one at a time, commits after the last and restarts it
/// after an `Aborted`; a `Blocked` request asks again on its next turn.
/// When a whole round blocks, the lowest-id transaction in flight is
/// aborted and restarted, as a waits-for timeout would. Deterministic:
/// the same arrivals through the same deterministic scheduler give the
/// same trace. Panics if the run makes no progress within 100 requests
/// per operation of the set.
pub fn closed_loop_trace(
    txns: &TxnSet,
    arrivals: &[TxnId],
    streams: usize,
    scheduler: &mut dyn Scheduler,
) -> Vec<TraceEvent> {
    let mut trace = Vec::new();
    let mut arrivals = arrivals.iter().copied();
    // Per stream: its transaction and the index of its next operation.
    let mut slots: Vec<Option<(TxnId, u32)>> = vec![None; streams.max(1)];
    let cap = 100 * txns.total_ops().max(1);
    let mut requests = 0;
    loop {
        let (mut busy, mut progressed) = (false, false);
        for slot in slots.iter_mut() {
            if slot.is_none() {
                if let Some(t) = arrivals.next() {
                    scheduler.begin(t);
                    trace.push(TraceEvent::Begin(t));
                    *slot = Some((t, 0));
                }
            }
            let Some((t, next)) = slot else { continue };
            busy = true;
            requests += 1;
            let op = OpId::new(*t, *next);
            let decision = scheduler.request(op);
            trace.push(TraceEvent::Decision(op, decision.clone()));
            match decision {
                Decision::Granted => {
                    progressed = true;
                    *next += 1;
                    if *next as usize == txns.txn(*t).len() {
                        scheduler.commit(*t);
                        trace.push(TraceEvent::Commit(*t));
                        *slot = None;
                    }
                }
                Decision::Aborted(_) => {
                    progressed = true;
                    // The core applied the abort with the decision.
                    scheduler.abort(*t);
                    scheduler.begin(*t);
                    trace.push(TraceEvent::Begin(*t));
                    *next = 0;
                }
                Decision::Blocked { .. } => {}
            }
        }
        if !busy {
            return trace;
        }
        if !progressed {
            let (t, next) = (slots.iter_mut().flatten())
                .min_by_key(|(t, _)| *t)
                .expect("a busy round has a transaction in flight");
            scheduler.abort(*t);
            trace.push(TraceEvent::Abort(*t));
            scheduler.begin(*t);
            trace.push(TraceEvent::Begin(*t));
            *next = 0;
        }
        assert!(requests < cap, "closed loop made no progress");
    }
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
    use relser_server::recovery::{recover_segments_with_certifier, Certifier};
    use relser_server::{serve_sharded, RunOutcome, ServerConfig};
    use relser_wal::{
        CheckpointPolicy, FsyncPolicy, MemSegmentStore, MemSegmentsHandle, SegmentedWal,
    };
    use relser_workload::stream::RequestStream;

    /// A never-rotating `Always` log and its read handle.
    fn one_segment_log() -> (SegmentedWal, MemSegmentsHandle) {
        let (store, handle) = MemSegmentStore::new();
        let ckpt = CheckpointPolicy::never();
        let wal = SegmentedWal::new(Box::new(store), FsyncPolicy::Always, ckpt).unwrap();
        (wal, handle)
    }

    fn clean_trace(fig: &Figure1) -> (Vec<TraceEvent>, Vec<TxnId>) {
        let (mut wal, _) = one_segment_log();
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
        let (mut wal, handle) = one_segment_log();
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
        // One write and at most one barrier per batch (+ the header's and
        // the head checkpoint's).
        assert!(redrive.out.wal.appends <= redrive.out.batches + 2);
        assert!(redrive.out.wal.syncs <= redrive.out.batches + 2);
        let mut fresh = SchedulerKind::RsgSgt.make(&fig.txns, &fig.spec);
        let segments = handle.synced_segments();
        let (_, rec) = recover_segments_with_certifier(
            &fig.txns,
            &fig.spec,
            &mut *fresh,
            &segments,
            Certifier::VClock,
        )
        .unwrap();
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
        let (mut wal, handle) = one_segment_log();
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
        let segments = handle.segments();
        let (_, rec) = recover_segments_with_certifier(
            &txns,
            &spec,
            &mut *fresh,
            &segments,
            Certifier::VClock,
        )
        .unwrap();
        assert_eq!(rec.committed, vec![], "and never reached storage");
    }
}
