//! The single-writer admission core.
//!
//! Exactly one thread owns the [`Scheduler`]; every state transition —
//! begin, operation request, commit, abort — arrives as a [`Command`]
//! over the bounded queue and is applied in queue order. That order is
//! the **serialization point** of the whole service: concurrent client
//! threads race only to enqueue, and whatever order the queue fixes is
//! the order the scheduler sees. Recording that order (the *trace*) is
//! therefore enough to replay any concurrent run deterministically on a
//! single thread — see [`crate::replay`].
//!
//! [`run_core`] is the one entry: every front-end (threads or TCP, one
//! shard or N, supervised or not, durable or not) runs this loop as a
//! shard core, differing only in the optional commit log and the
//! [`ShardCoreCtx`] it hands in (an unsharded service is the N = 1 row:
//! shard 0, [`ShardCoreCtx::default`]). The per-run state lives in one
//! private `Core` value whose methods apply the commands.
//!
//! The core drains commands in batches (up to `batch_max` per queue lock
//! acquisition) so queue traffic is amortized under load, and it answers
//! each operation request through a one-shot [`Reply`] cell. The batch is
//! also the unit of durability: the replies of a batch are held until its
//! one write-ahead-log barrier has returned, then released in core order
//! (see [`run_core`]). After every batch with a state *change*
//! (grant, abort, commit — not a mere block) it bumps the shared
//! [`Progress`] epoch, waking the blocked operations to be resubmitted.

use crate::queue::BoundedQueue;
use crate::supervisor::SessionTable;
use relser_core::ids::{OpId, TxnId};
use relser_poll::Doorbell;
use relser_protocols::{AbortReason, Decision, Scheduler};
use relser_simdb::metrics::LatencyHistogram;
use relser_wal::{Checkpoint, CheckpointEvent, CommitLog, WalRecord, WalStats};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One client-visible event in core order — the unit of deterministic
/// replay. A concurrent run is fully described by its trace because the
/// single-writer core applies commands sequentially.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// `begin(txn)` was applied (a new incarnation started).
    Begin(TxnId),
    /// `request(op)` was applied and answered with the given decision.
    /// A recorded `Aborted` decision implies the core immediately applied
    /// `abort(op.txn)` as well.
    Decision(OpId, Decision),
    /// `commit(txn)` was applied.
    Commit(TxnId),
    /// A front-end-initiated `abort(txn)` was applied ([`Command::Abort`]).
    Abort(TxnId),
    /// **Never constructed.** The trace of the cross-shard two-phase
    /// admit, which no longer exists: a transaction is owned by exactly
    /// one shard and transactions spanning shards are refused. The
    /// variant stays only because `benchmark/src/sut.rs` matches
    /// `TraceEvent` exhaustively and nothing under `benchmark/` changes in
    /// a simplicity PR; its removal is on ROADMAP "Benchmark upkeep".
    Admit {
        /// The transaction that was being admitted.
        txn: TxnId,
        /// Whether the shard granted the admit.
        granted: bool,
    },
}

/// A one-shot reply cell: the core fills it once, the session waits on it.
#[derive(Clone)]
pub struct Reply {
    cell: Arc<ReplyCell>,
}

struct ReplyCell {
    slot: Mutex<Option<Decision>>,
    cv: Condvar,
    /// The doorbell of the reactor that polls this cell instead of
    /// parking a thread in [`Reply::wait_filled`]; the core rings it once
    /// per released batch, after the batch's last fill.
    bell: Option<Arc<Doorbell>>,
}

impl Reply {
    /// An empty cell whose receiver parks in [`Reply::wait_filled`].
    pub fn new() -> Self {
        Self::with_bell(None)
    }

    /// An empty cell whose receiver is a reactor parked behind `bell`: it
    /// takes the decision with [`Reply::try_take`] once the core has rung.
    pub fn with_doorbell(bell: Arc<Doorbell>) -> Self {
        Self::with_bell(Some(bell))
    }

    /// A new empty cell for the same receiver (the same doorbell, if
    /// any): what a resubmitted command carries.
    pub fn fresh(&self) -> Self {
        Self::with_bell(self.cell.bell.clone())
    }

    fn with_bell(bell: Option<Arc<Doorbell>>) -> Self {
        Reply {
            cell: Arc::new(ReplyCell {
                slot: Mutex::new(None),
                cv: Condvar::new(),
                bell,
            }),
        }
    }

    /// Fills the cell and wakes a waiter parked in [`Reply::wait_filled`]. Must
    /// be called exactly once. Does not ring the cell's doorbell: whoever
    /// fills a batch of cells rings each distinct bell once, afterwards.
    pub fn fill(&self, decision: Decision) {
        let mut guard = self.cell.slot.lock().expect("reply lock");
        debug_assert!(guard.is_none(), "reply filled twice");
        *guard = Some(decision);
        drop(guard);
        self.cell.cv.notify_all();
    }

    /// Non-blocking poll: takes the decision if the core has filled the
    /// cell, `None` otherwise. A reactor looks at its in-flight replies
    /// with this after its doorbell woke it; a thread looks after
    /// [`Reply::wait_filled`] returned.
    pub fn try_take(&self) -> Option<Decision> {
        self.cell.slot.lock().expect("reply lock").take()
    }

    /// Blocks until the cell is filled or `timeout` elapses, without
    /// taking the decision; `true` when it is there to take.
    pub fn wait_filled(&self, timeout: Duration) -> bool {
        let (slot, cv) = (&self.cell.slot, &self.cell.cv);
        let deadline = Instant::now() + timeout;
        let mut guard = slot.lock().expect("reply lock");
        while guard.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            guard = cv
                .wait_timeout(guard, deadline - now)
                .expect("reply lock")
                .0;
        }
        true
    }
}

impl Default for Reply {
    fn default() -> Self {
        Self::new()
    }
}

/// A monotone epoch counter blocked operations wait on: the core bumps it
/// after every batch that changed scheduler state, and every bump wakes
/// every waiter — the session threads parked in [`Progress::wait_past`]
/// and the reactors parked in `poll(2)` — to resubmit (wait/wake
/// bookkeeping without per-lock wait queues). Which transactions changed
/// is not recorded: waking only the waiters whose waits-for set a bump
/// touches saved futile resubmits but no time (EXPERIMENTS.md A9).
pub struct Progress {
    inner: Mutex<ProgressInner>,
    /// Mirror of `inner.epoch`, stored (Release) under the lock on every
    /// bump and loaded (Acquire) by [`Progress::current`]: a submitter
    /// snapshots the epoch once per operation and must not contend with
    /// the core's bump for that.
    epoch: AtomicU64,
    cv: Condvar,
}

#[derive(Default)]
struct ProgressInner {
    epoch: u64,
    /// Reactors parked in `poll(2)` rather than in [`Progress::wait_past`]:
    /// every bump rings them (a ring of an unparked reactor is one atomic
    /// swap).
    bells: Vec<Arc<Doorbell>>,
}

impl Progress {
    /// Epoch 0.
    pub fn new() -> Self {
        Progress {
            inner: Mutex::default(),
            epoch: AtomicU64::new(0),
            cv: Condvar::new(),
        }
    }

    /// The current epoch.
    pub fn current(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Adds a reactor's doorbell to the set every bump rings.
    pub fn attach(&self, bell: Arc<Doorbell>) {
        self.inner.lock().expect("progress lock").bells.push(bell);
    }

    /// Advances the epoch and wakes every waiter. Also the crash/shutdown
    /// path: the queue just closed or a core died, and every parked
    /// session must come back and observe that.
    pub fn bump(&self) {
        let mut inner = self.inner.lock().expect("progress lock");
        inner.epoch += 1;
        self.epoch.store(inner.epoch, Ordering::Release);
        inner.bells.iter().for_each(|b| b.ring());
        drop(inner);
        self.cv.notify_all();
    }

    /// Waits until the epoch exceeds `seen` or `timeout` elapses;
    /// returns the epoch observed on exit.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("progress lock");
        while inner.epoch <= seen {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (g, _) = self
                .cv
                .wait_timeout(inner, deadline - now)
                .expect("progress lock");
            inner = g;
        }
        inner.epoch
    }
}

impl Default for Progress {
    fn default() -> Self {
        Self::new()
    }
}

/// A state transition submitted to the admission core.
pub enum Command {
    /// A transaction (incarnation) starts.
    Begin(TxnId),
    /// An operation request; the decision comes back through `reply`.
    Request {
        /// The requested operation.
        op: OpId,
        /// When the session enqueued the command (admission latency
        /// measurement: queue wait + decision time).
        enqueued: Instant,
        /// Where the decision is delivered.
        reply: Reply,
    },
    /// The transaction commits (all operations were granted) — the one
    /// commit command of every front-end. A duplicate is answered with
    /// the original verdict and re-applies nothing; a commit of a
    /// rolled-back incarnation, or of one granted fewer than `ops`
    /// operations, is refused `Aborted(Retired)`. Refusing an incomplete
    /// incarnation changes no state: it stays live, so a restart resumes
    /// it (`Begin` is a no-op, resent operations are duplicates).
    Commit {
        /// The committing transaction.
        txn: TxnId,
        /// Its operation count, from the front-end's `TxnSet` (the core
        /// has none): only a complete transaction may commit.
        ops: u32,
        /// `None` is fire-and-forget (the in-process sessions: per-queue
        /// FIFO is all they need); `Some` asks for the verdict back.
        ack: Option<Ack>,
    },
    /// Front-end-initiated abort: the waits-for timeout of a blocked
    /// operation fired, or — over TCP — the client asked for it or its
    /// connection is being cleaned up.
    Abort(TxnId),
}

/// The acknowledgment a [`Command::Commit`] asks for. The reply is filled
/// only after the batch's durability barrier has covered the commit
/// record — so under `FsyncPolicy::Always` the acknowledgment is durable,
/// and the fsync is *inside* the wire front-end's wire-to-wire latency,
/// not after it.
pub struct Ack {
    /// When the submitter enqueued the command (queue-wait stage
    /// measurement).
    pub enqueued: Instant,
    /// Filled `Granted` once the commit is applied and durable.
    pub reply: Reply,
    /// Exactly-once retries: `(session, req_id)` recorded in the same WAL
    /// frame as the commit ([`WalRecord::CommitSession`]) and in the
    /// shard's [`SessionTable`], so a retried commit is answered with the
    /// original verdict instead of re-executing.
    pub session: Option<(u64, u64)>,
}

impl Command {
    /// The reply cell somebody waits on, if the command carries one.
    fn into_reply(self) -> Option<Reply> {
        match self {
            Command::Request { reply, .. } => Some(reply),
            Command::Commit { ack, .. } => ack.map(|a| a.reply),
            Command::Begin(_) | Command::Abort(_) => None,
        }
    }
}

/// Deterministic fault injection for the admission core.
///
/// Faults are keyed by *command position* in core order, which is the
/// run's serialization point — so the same plan against the same trace
/// injects the same faults, and a fault sweep is reproducible. An empty
/// plan (the default) injects nothing and costs nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Request commands (0-based, counted over `Command::Request` only)
    /// answered `Aborted(Injected)` without consulting the scheduler; the
    /// core applies the abort exactly as it would a scheduler-initiated
    /// one (state rollback + log purge, atomic with the decision).
    pub abort_requests: Vec<u64>,
    /// Crash the core instead of applying the command with this 0-based
    /// index (counted over all commands). The core stops applying
    /// commands, closes the queue, and drains everything still enqueued,
    /// answering `Aborted(Injected)` so no session hangs on a reply.
    /// Commands of the *same batch* applied before it die with it: their
    /// records never reached a barrier, so their held acknowledgments are
    /// unwound the same way (acked ⇒ durable, never the converse).
    pub crash_at_command: Option<u64>,
    /// Request commands (0-based, counted over `Command::Request` only)
    /// whose reply cell is silently dropped: the scheduler is never
    /// consulted, no state changes, nothing is logged or traced — the
    /// submitter's watchdog fires ([`crate::Step::ReplyLost`]). Exercises
    /// the degrade path: one session (or one wire connection) fails, the
    /// service keeps running.
    pub drop_replies: Vec<u64>,
}

impl FaultPlan {
    /// Does the plan inject anything at all?
    pub fn is_empty(&self) -> bool {
        self.abort_requests.is_empty()
            && self.crash_at_command.is_none()
            && self.drop_replies.is_empty()
    }
}

/// Everything the core accumulated over one run.
#[derive(Debug, Default)]
pub struct CoreOutput {
    /// Granted operations of live/committed incarnations, grant order.
    /// After a clean run (everything committed) this is the committed
    /// history.
    pub log: Vec<OpId>,
    /// Transactions committed, in commit order. `log` filtered to this
    /// set is the committed history even when the run did not complete
    /// (crash faults, session failures). After a crash this holds only
    /// *acknowledged* commits: the ones of the batch the core died in are
    /// cut off, because no barrier covered them.
    pub committed: Vec<TxnId>,
    /// The core crashed: at the planned command index (see [`FaultPlan`])
    /// or because the write-ahead log failed (see
    /// [`CoreOutput::wal_error`]).
    pub crashed: bool,
    /// Write-ahead log counters (zero when the core ran without a log).
    pub wal: WalStats,
    /// The storage error that fail-stopped the core, if any. A durable
    /// core treats a WAL append/sync failure as fatal: it cannot
    /// acknowledge work it cannot make durable, so it crashes and lets
    /// recovery truncate at the damage.
    pub wal_error: Option<String>,
    /// Injected (fault-plan) aborts applied.
    pub injected_aborts: u64,
    /// Checkpoints the core cut into the commit log: rotations that
    /// happened, not snapshots the log skipped (zero for a log whose
    /// checkpoint policy is [`relser_wal::CheckpointPolicy::never`]).
    pub checkpoints: u64,
    /// The replayable event trace (empty unless trace recording is on).
    pub trace: Vec<TraceEvent>,
    /// Commands processed.
    pub commands: u64,
    /// Batches drained (commands / batches = achieved batching).
    pub batches: u64,
    /// Largest single batch.
    pub max_batch: usize,
    /// Requests answered `Granted`.
    pub grants: u64,
    /// Requests answered `Blocked`.
    pub blocked: u64,
    /// Scheduler-initiated aborts (`Decision::Aborted`).
    pub aborts: u64,
    /// [`Command::Abort`]s applied: waits-for timeouts, and a TCP
    /// front-end's client aborts and disconnect cleanup.
    pub timeout_aborts: u64,
    /// Commits applied.
    pub commits: u64,
    /// Wall-clock nanoseconds of each `Scheduler::request` call.
    pub decision_ns: Vec<u64>,
    /// Enqueue→decision latency (queue wait + decision) histogram.
    pub admission: LatencyHistogram,
    /// Pure queue-wait latency: enqueue→dequeue, measured just before the
    /// scheduler is consulted (the admission histogram minus the decision
    /// itself). One sample per `Request` and per acknowledged commit.
    pub queue_wait: LatencyHistogram,
    /// Wall-clock nanoseconds of each WAL fsync the commit log performed,
    /// harvested via [`CommitLog::take_sync_ns`] (empty without a log).
    pub wal_sync_ns: Vec<u64>,
    /// Replies dropped by [`FaultPlan::drop_replies`].
    pub dropped_replies: u64,
    /// Commands refused under commit supremacy: operations and commits
    /// of retired (rolled-back) incarnations answered
    /// `Aborted(Retired)`, and stale aborts of already-committed
    /// transactions ignored. These protect acknowledged commits from
    /// client retries racing orphan cleanup. Program order is refused the
    /// same way: an operation past the next one of its incarnation, and a
    /// commit of an incarnation with operations still ungranted.
    pub retired_refusals: u64,
    /// Retried commit acknowledgments answered idempotently from the
    /// committed set — the original verdict re-sent, nothing re-applied
    /// or re-logged.
    pub duplicate_commit_acks: u64,
    /// Retried requests for an operation the live incarnation was already
    /// granted, answered `Granted` again without consulting the scheduler
    /// or logging a second grant.
    pub duplicate_grants: u64,
}

/// How the core drains its queue and what it records — the two values
/// every front-end config (`ServerConfig`, `NetConfig`, `SupervisorCfg`)
/// carries for it.
#[derive(Clone, Copy, Debug)]
pub struct CoreCfg {
    /// Max commands drained per queue lock acquisition (≥ 1).
    pub batch_max: usize,
    /// Record a [`TraceEvent`] log for deterministic replay.
    pub record_trace: bool,
}

/// What every core is told about its place in the service: its shard id
/// and its retry table. Every core is a shard core; an unsharded service
/// is the N = 1 row, whose one core is the [`Default`]: shard 0,
/// sessionless. What an earlier life committed comes from the log the
/// core runs on ([`CommitLog::head`]), not from here. Shard cores share
/// no admission state and no order — every transaction is owned by
/// exactly one of them, and a merged report or recovery lists the shards
/// in shard order, each in its own core order (see [`crate::shard`]).
#[derive(Default)]
pub struct ShardCoreCtx<'a> {
    /// This core's shard id (written into its WAL checkpoints).
    pub shard: u32,
    /// The shared client-session retry table ([`SessionTable`]), updated
    /// on every sessionful commit and snapshotted into checkpoints.
    /// `None` for a service whose front-end reads no retry table (the
    /// in-process sessions).
    pub sessions: Option<&'a SessionTable>,
}

/// Why the core stopped mid-batch. Either way the batch is not
/// acknowledged: every reply it holds is unwound.
enum Halt {
    /// Planned crash ([`FaultPlan::crash_at_command`]); the command was
    /// not applied.
    PlannedCrash,
    /// The write-ahead log failed; fail-stop with the storage error.
    WalBroken(String),
}

/// The acknowledgments of the batch being applied, in core order. Nothing
/// in here is visible outside the core until the batch's durability
/// barrier ([`CommitLog::batch_end`]) has returned: then they are
/// released; if the core halts first they are unwound instead, because
/// the records they stand for may not be durable.
#[derive(Default)]
struct HeldAcks {
    replies: Vec<(Reply, Decision)>,
    /// `(session, req_id, txn)` retry-table entries of sessionful commits.
    sessions: Vec<(u64, u64, TxnId)>,
    /// Scratch: the distinct doorbells of the cells being filled.
    bells: Vec<Arc<Doorbell>>,
}

impl HeldAcks {
    /// The barrier covers the batch: publish the retry-table entries
    /// (first, so a reply's receiver can already see its entry), then
    /// fill the replies in core order.
    fn release(&mut self, table: Option<&SessionTable>) {
        for (session, req_id, txn) in self.sessions.drain(..) {
            if let Some(table) = table {
                table.record(session, req_id, txn);
            }
        }
        self.fill_all(|decision| decision);
    }

    /// The batch died before its barrier: none of it was acknowledged.
    fn unwind(&mut self) {
        self.sessions.clear();
        self.fill_all(|_| Decision::Aborted(AbortReason::Injected));
    }

    /// Fills every held cell in core order, then rings each reactor that
    /// owns one of them — once, after the last fill, so a reactor wakes
    /// to the whole batch and not to its first reply.
    fn fill_all(&mut self, verdict: impl Fn(Decision) -> Decision) {
        for (reply, decision) in self.replies.drain(..) {
            reply.fill(verdict(decision));
            if let Some(bell) = &reply.cell.bell {
                if !self.bells.iter().any(|b| Arc::ptr_eq(b, bell)) {
                    self.bells.push(Arc::clone(bell));
                }
            }
        }
        self.bells.drain(..).for_each(|b| b.ring());
    }
}

impl CoreOutput {
    /// Operations of [`CoreOutput::log`] whose transaction committed: the
    /// length of this core's committed history.
    pub fn committed_ops(&self) -> u64 {
        let committed: HashSet<TxnId> = self.committed.iter().copied().collect();
        self.log
            .iter()
            .filter(|o| committed.contains(&o.txn))
            .count() as u64
    }
}

/// Runs the admission core until the queue is closed and drained.
/// `scheduler` is owned by this call — the single-writer discipline is
/// enforced by construction, which is why [`Scheduler`] needs `Send` but
/// never `Sync`.
///
/// `wal` is the optional durable commit log; `shard` places the core in
/// its service: its checkpoints carry its shard id, its sessionful
/// commits are published to the retry table it names, and a supervised
/// restart seeds it with the recovered commits. Every front-end runs a
/// shard core — an unsharded one runs shard 0 of one
/// ([`ShardCoreCtx::default`]) — and no command or counter crosses from
/// one shard core to another. With an empty [`FaultPlan`], no log and the
/// default context this is the in-memory core.
///
/// The durability contract is **ack-after-barrier**. Per drained queue
/// batch the core
///
/// 1. applies the commands in core order — the run's serialization
///    point — appending the record of every state-*changing* event
///    (begin, grant, commit, abort; blocks change nothing and are not
///    logged) to the log's batch **before** applying it, and *holding*
///    every acknowledgment it would give: each [`Reply`], each
///    [`SessionTable`] entry of a sessionful commit;
/// 2. ends the batch once ([`CommitLog::batch_end`]): one storage write
///    and, under `FsyncPolicy::Always`, one barrier whenever the batch
///    logged anything;
/// 3. releases the held acknowledgments in core order, then bumps
///    [`Progress`]. A reactor front-end parked in `poll(2)` learns of both
///    through its doorbell ([`Reply::with_doorbell`],
///    [`Progress::attach`]): rung once after the batch's last fill and
///    once with the bump, never per reply — a ring of a reactor that is
///    not parked is one atomic swap.
///
/// So under `Always` nothing anyone can observe — a granted operation, a
/// `Committed` response, a retry-table entry, a commit in
/// [`CoreOutput::committed`] — precedes a barrier that covers its record,
/// and a batch of b commands costs one write and one barrier, not b.
///
/// A halt inside a batch — a planned crash fault, a failed append, a
/// failed barrier — acknowledges **none** of it: the held replies are
/// unwound `Aborted(Injected)`, the held retry-table entries dropped, and
/// the batch's commits cut from [`CoreOutput::committed`], because its
/// records may not be durable. The core then fail-stops (queue closed,
/// backlog unwound), a storage error is reported in
/// [`CoreOutput::wal_error`], and recovery truncates the log at the
/// damage: acked ⇒ durable, never the converse.
///
/// A log additionally gets a live-state snapshot whenever it reports a
/// checkpoint due ([`CommitLog::checkpoint_due`]): the core
/// tracks the condensed begin/grant/commit stream of non-retired
/// transactions and hands it over at a batch boundary (a core-order
/// point), with the whole committed list, letting the log rotate segments
/// and delete history the checkpoint covers. Every core, sharded or not,
/// prunes by the same rule: a retired commit's events go, and recovery
/// counts it committed on the checkpoint's word ([`crate::recovery`]).
/// [`CoreOutput::checkpoints`] counts only the rotations that happened.
pub fn run_core(
    scheduler: Box<dyn Scheduler + Send + '_>,
    queue: &BoundedQueue<Command>,
    progress: &Progress,
    cfg: CoreCfg,
    faults: &FaultPlan,
    wal: Option<&mut dyn CommitLog>,
    shard: ShardCoreCtx<'_>,
) -> CoreOutput {
    let mut core = Core {
        scheduler,
        wal,
        shard,
        faults,
        record_trace: cfg.record_trace,
        out: CoreOutput::default(),
        requests_seen: 0,
        live: HashMap::new(),
        committed: HashSet::new(),
        live_events: Vec::new(),
        changed: false,
        held: HeldAcks::default(),
    };
    // A log resumed on an earlier life's state opens with it. Its
    // commits seed commit supremacy (retried commits stay idempotent,
    // stale aborts of durable commits are refused) and join the committed
    // list and the checkpoint event stream: the next checkpoint this core
    // cuts must cover them, or rotation would delete the only segments
    // that record them.
    if let Some(head) = core.wal.as_deref().map(|w| w.head()) {
        core.committed.extend(head.committed.iter().copied());
        core.out.committed.extend_from_slice(&head.committed);
        core.live_events.extend_from_slice(&head.events);
    }
    core.run(queue, progress, cfg.batch_max)
}

/// The per-run state of one admission core; see [`run_core`].
struct Core<'s, 'w, 'a> {
    scheduler: Box<dyn Scheduler + Send + 's>,
    wal: Option<&'w mut dyn CommitLog>,
    shard: ShardCoreCtx<'a>,
    faults: &'a FaultPlan,
    record_trace: bool,
    out: CoreOutput,
    /// `Command::Request`s seen (the index [`FaultPlan`] keys on).
    requests_seen: u64,
    /// Commit supremacy: the transactions currently live (with how many
    /// of their operations were granted, in program order) and the set
    /// this core (or, via the seed, a previous incarnation of it) durably
    /// committed. Commands that would contradict a durable commit — a
    /// stale abort from orphan cleanup, a retried begin — are no-ops, and
    /// operations of retired incarnations are refused with a typed
    /// retryable verdict instead of silently corrupting the history.
    live: HashMap<TxnId, u32>,
    committed: HashSet<TxnId>,
    /// Condensed begin/grant/commit stream of non-retired transactions
    /// (kept only when the core logs): what a due checkpoint snapshots.
    live_events: Vec<CheckpointEvent>,
    /// Scheduler state changed in the current batch: bump [`Progress`].
    changed: bool,
    /// The current batch's acknowledgments.
    held: HeldAcks,
}

impl Core<'_, '_, '_> {
    fn run(
        mut self,
        queue: &BoundedQueue<Command>,
        progress: &Progress,
        batch_max: usize,
    ) -> CoreOutput {
        let mut batch: Vec<Command> = Vec::with_capacity(batch_max);
        // How much of the commit list the last successful barrier covered
        // (what a halt keeps).
        let mut acked_commits = self.out.committed.len();
        while queue.pop_batch(batch_max, &mut batch) {
            self.out.batches += 1;
            self.out.max_batch = self.out.max_batch.max(batch.len());
            self.changed = false;
            let mut pending = batch.drain(..);
            let mut applied = pending.by_ref().try_for_each(|cmd| self.apply(cmd));
            // Group commit: one write and one durability barrier for the
            // whole batch, *before* any of its acknowledgments is released.
            if applied.is_ok() {
                if let Some(w) = self.wal.as_mut() {
                    applied = w.batch_end().map_err(|e| Halt::WalBroken(e.to_string()));
                }
            }
            if applied.is_ok() {
                acked_commits = self.out.committed.len();
                self.held.release(self.shard.sessions);
                // Checkpoint: the batch boundary is a core-order point, so
                // the snapshot is exactly the state the replayed log would
                // have here.
                if self.wal.as_ref().is_some_and(|w| w.checkpoint_due()) {
                    let cp = self.snapshot();
                    match self
                        .wal
                        .as_mut()
                        .expect("a checkpointing log")
                        .install_checkpoint(cp)
                    {
                        Ok(rotated) => self.out.checkpoints += u64::from(rotated),
                        Err(e) => applied = Err(Halt::WalBroken(e.to_string())),
                    }
                }
            }
            if let Err(halt) = applied {
                // Crash path — planned fault or broken WAL. Nothing of this
                // batch was acknowledged: cut its commits, unwind its held
                // replies, close the queue so sessions stop submitting, and
                // unwind everything still in flight (this batch's remainder
                // and the backlog) so no session hangs on an unfilled cell.
                self.out.crashed = true;
                if let Halt::WalBroken(err) = halt {
                    self.out.wal_error = Some(err);
                }
                self.out.commits -= (self.out.committed.len() - acked_commits) as u64;
                self.out.committed.truncate(acked_commits);
                queue.close();
                self.held.unwind();
                drain_after_crash(pending.collect(), queue, batch_max);
                progress.bump();
                break;
            }
            // One bump per batch, not per command: waking blocked sessions
            // is only useful after the batch's state changes are all
            // applied.
            if self.changed {
                progress.bump();
            }
        }
        if let Some(w) = self.wal {
            // Clean shutdown gets a final barrier; a crashed core died
            // before reaching it (that is what the crash-point sweep
            // recovers from).
            if !self.out.crashed {
                if let Err(e) = w.close() {
                    self.out.wal_error = Some(e.to_string());
                }
            }
            self.out.wal = w.stats();
            self.out.wal_sync_ns = w.take_sync_ns();
        }
        self.out
    }

    /// The live-state snapshot a due checkpoint installs. Retired
    /// transactions are purged from the event stream first
    /// ([`prune_retired`]): their arcs can no longer matter, which is what
    /// keeps the snapshot (and therefore every segment) bounded by live
    /// state. A retired commit stays in the `committed` list, and the
    /// checkpoint vouches for it in recovery ([`crate::recovery`]).
    fn snapshot(&mut self) -> Checkpoint {
        prune_retired(&mut self.live_events, &*self.scheduler);
        // Session entries ride in the checkpoint so the retry table
        // survives segment rotation; filtered to this shard's committed
        // set, which is exactly the filter recovery re-applies when
        // rebuilding it.
        let mut sessions = self
            .shard
            .sessions
            .map(SessionTable::snapshot)
            .unwrap_or_default();
        sessions.retain(|e| self.committed.contains(&e.txn));
        Checkpoint {
            shard: self.shard.shard,
            committed: self.out.committed.clone(),
            events: self.live_events.clone(),
            sessions,
        }
    }

    /// Applies one command of the batch. Every acknowledgment goes into
    /// `held`, never straight to its receiver: [`Core::run`] releases the
    /// batch's acks after its durability barrier. `Err(halt)` means the
    /// core must crash without acknowledging the batch; the halting
    /// command is not counted in [`CoreOutput::commands`].
    fn apply(&mut self, cmd: Command) -> Result<(), Halt> {
        if self.faults.crash_at_command == Some(self.out.commands) {
            if let Some(reply) = cmd.into_reply() {
                self.refuse(reply, AbortReason::Injected);
            }
            return Err(Halt::PlannedCrash);
        }
        self.dispatch(cmd)?;
        self.out.commands += 1;
        Ok(())
    }

    /// Holds `Aborted(reason)` for `reply`.
    fn refuse(&mut self, reply: Reply, reason: AbortReason) {
        self.held.replies.push((reply, Decision::Aborted(reason)));
    }

    /// WAL-before-apply: appends `rec` to the log's batch (a no-op
    /// without a log). On failure the event is *not* applied or
    /// acknowledged — `reply`, if the command carries one, is held
    /// `Aborted(Injected)` — and the state change dies with the core, so
    /// recovery never sees an unlogged event.
    fn log(&mut self, rec: WalRecord, reply: Option<&Reply>) -> Result<(), Halt> {
        let Some(w) = self.wal.as_mut() else {
            return Ok(());
        };
        w.append(&rec).map_err(|e| {
            if let Some(reply) = reply {
                self.held
                    .replies
                    .push((reply.clone(), Decision::Aborted(AbortReason::Injected)));
            }
            Halt::WalBroken(e.to_string())
        })
    }

    fn trace(&mut self, event: TraceEvent) {
        if self.record_trace {
            self.out.trace.push(event);
        }
    }

    /// Starts `txn`'s incarnation.
    fn begin(&mut self, txn: TxnId) {
        self.scheduler.begin(txn);
        self.live.insert(txn, 0);
        if self.wal.is_some() {
            self.live_events.push(CheckpointEvent::Begin(txn));
        }
    }

    /// Rolls `txn`'s live incarnation back. The scheduler state
    /// transition and the log purge happen here, inside the core, so they
    /// are atomic w.r.t. other commands.
    fn abort(&mut self, txn: TxnId) {
        self.scheduler.abort(txn);
        self.live.remove(&txn);
        self.out.log.retain(|o| o.txn != txn);
        if self.wal.is_some() {
            self.live_events.retain(|e| event_txn(e) != txn);
        }
        self.changed = true;
    }

    /// Applies a [`Command::Abort`]. A stale abort of a committed
    /// transaction (orphan cleanup racing a reconnecting client's ack)
    /// must NOT purge durable state; an abort of an already-retired
    /// incarnation has nothing left to undo. Both are no-ops.
    fn abort_on_demand(&mut self, txn: TxnId) -> Result<(), Halt> {
        if self.committed.contains(&txn) {
            self.out.retired_refusals += 1;
            return Ok(());
        }
        if !self.live.contains_key(&txn) {
            return Ok(());
        }
        self.log(WalRecord::Abort(txn), None)?;
        self.abort(txn);
        self.trace(TraceEvent::Abort(txn));
        self.out.timeout_aborts += 1;
        Ok(())
    }

    /// Logs and applies the commit of live `txn`. `session` is the
    /// `(session, req_id)` of an exactly-once commit, which rides in the
    /// same indivisible [`WalRecord::CommitSession`] frame as the verdict
    /// — one durability point for both is what makes the retry
    /// exactly-once; a sessionless commit logs a plain
    /// [`WalRecord::Commit`]. The commit record is in the batch before the
    /// commit is applied and counted: an acknowledged commit can never be
    /// lost, an unlogged one is never acknowledged.
    fn commit(
        &mut self,
        txn: TxnId,
        session: Option<(u64, u64)>,
        reply: Option<&Reply>,
    ) -> Result<(), Halt> {
        let rec = match session {
            Some((session, req_id)) => WalRecord::CommitSession {
                txn,
                session,
                req_id,
            },
            None => WalRecord::Commit(txn),
        };
        self.log(rec, reply)?;
        self.scheduler.commit(txn);
        self.out.commits += 1;
        self.out.committed.push(txn);
        self.live.remove(&txn);
        self.committed.insert(txn);
        if let Some((session, req_id)) = session {
            self.held.sessions.push((session, req_id, txn));
        }
        if self.wal.is_some() {
            self.live_events.push(CheckpointEvent::Commit(txn));
        }
        self.changed = true;
        // An acknowledged commit is traced as a plain `Commit` too: replay
        // applies it via fire-and-forget `commit` — the ack is a liveness
        // detail, not a state transition.
        self.trace(TraceEvent::Commit(txn));
        Ok(())
    }

    /// Applies a [`Command::Commit`] under commit supremacy; the verdict
    /// is held for `ack`'s reply when one was asked for.
    fn commit_on_demand(&mut self, txn: TxnId, ops: u32, ack: Option<Ack>) -> Result<(), Halt> {
        let (reply, session) = match ack {
            Some(ack) => {
                self.out
                    .queue_wait
                    .record(ack.enqueued.elapsed().as_nanos() as u64);
                (Some(ack.reply), ack.session)
            }
            None => (None, None),
        };
        let verdict = if self.committed.contains(&txn) {
            // Exactly-once: a retried commit of an already-durable
            // transaction re-sends the original verdict and re-applies
            // nothing. The session table is refreshed so the connection
            // fast-path catches the next retry without reaching the core
            // at all.
            if let Some((session, req_id)) = session {
                self.held.sessions.push((session, req_id, txn));
            }
            self.out.duplicate_commit_acks += u64::from(reply.is_some());
            Decision::Granted
        } else if self.live.get(&txn).is_some_and(|&granted| granted >= ops) {
            self.commit(txn, session, reply.as_ref())?;
            Decision::Granted
        } else {
            // The incarnation was rolled back (crash recovery or orphan
            // cleanup) — its grants are gone — or it still lacks some of
            // its operations: committing now would certify a hole.
            // `Retired` tells the client to restart the transaction from
            // its begin.
            self.out.retired_refusals += 1;
            Decision::Aborted(AbortReason::Retired)
        };
        if let Some(reply) = reply {
            self.held.replies.push((reply, verdict));
        }
        Ok(())
    }

    fn dispatch(&mut self, cmd: Command) -> Result<(), Halt> {
        match cmd {
            Command::Begin(txn) => {
                // A begin for a transaction that already committed (client
                // retry racing its own ack) or is still live (reconnect
                // racing orphan cleanup) is a no-op: beginning it again
                // would double-register it with the scheduler. The retrying
                // client's next operation gets a typed verdict instead.
                if self.committed.contains(&txn) || self.live.contains_key(&txn) {
                    self.out.retired_refusals += 1;
                    return Ok(());
                }
                self.log(WalRecord::Begin(txn), None)?;
                self.begin(txn);
                self.trace(TraceEvent::Begin(txn));
            }
            Command::Request {
                op,
                enqueued,
                reply,
            } => self.request(op, enqueued, reply)?,
            Command::Commit { txn, ops, ack } => self.commit_on_demand(txn, ops, ack)?,
            Command::Abort(txn) => self.abort_on_demand(txn)?,
        }
        Ok(())
    }

    /// Applies one operation request.
    fn request(&mut self, op: OpId, enqueued: Instant, reply: Reply) -> Result<(), Halt> {
        let request_index = self.requests_seen;
        self.requests_seen += 1;
        // Commit supremacy: an operation for a transaction that already
        // committed, or whose incarnation was rolled back (crash recovery,
        // orphan cleanup), must not touch the scheduler — granting it
        // would resurrect purged state. The typed `Retired` verdict tells
        // the client to restart (or, if it was mid-retry of a commit, to
        // re-send the commit). Program order is checked here too: an
        // operation past its incarnation's next one would be certified
        // and logged with a hole before it.
        let granted = match self.live.get(&op.txn) {
            Some(&granted) if !self.committed.contains(&op.txn) && op.index <= granted => granted,
            _ => {
                self.out.retired_refusals += 1;
                self.refuse(reply, AbortReason::Retired);
                return Ok(());
            }
        };
        if self.faults.drop_replies.contains(&request_index) {
            // Injected reply loss: the cell is dropped unfilled — the
            // submitter's watchdog turns the silence into `ReplyLost`. No
            // state change, no log, no trace: to recovery and replay this
            // request never happened.
            self.out.dropped_replies += 1;
            return Ok(());
        }
        if self.faults.abort_requests.contains(&request_index) {
            // Injected abort: the scheduler is never asked; the abort is
            // applied exactly like a scheduler-initiated one. The trace
            // records a plain `Abort` (not a `Decision`) so replay does
            // not expect a real scheduler to answer `Aborted` here.
            self.log(WalRecord::Abort(op.txn), Some(&reply))?;
            self.out.injected_aborts += 1;
            self.abort(op.txn);
            self.trace(TraceEvent::Abort(op.txn));
            self.refuse(reply, AbortReason::Injected);
            return Ok(());
        }
        // Exactly-once for operations: a request for an operation this
        // incarnation was already granted (a client resending after a
        // lost response) gets the original verdict back. Asking the
        // scheduler again would log the grant twice, and recovery refuses
        // to certify a committed transaction whose op set does not match
        // its program.
        if op.index < granted {
            self.out.duplicate_grants += 1;
            self.held.replies.push((reply, Decision::Granted));
            return Ok(());
        }
        self.out
            .queue_wait
            .record(enqueued.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        let decision = self.scheduler.request(op);
        self.out.decision_ns.push(t0.elapsed().as_nanos() as u64);
        self.out
            .admission
            .record(enqueued.elapsed().as_nanos() as u64);
        match &decision {
            Decision::Granted => {
                self.log(WalRecord::Grant(op), Some(&reply))?;
                self.out.grants += 1;
                self.out.log.push(op);
                self.live.insert(op.txn, op.index + 1);
                if self.wal.is_some() {
                    self.live_events.push(CheckpointEvent::Grant(op));
                }
                // A grant is a state change other waiters may care about
                // (altruistic donation, unit exits): the granted
                // transaction's waits-for observers re-check.
                self.changed = true;
            }
            Decision::Blocked { .. } => self.out.blocked += 1,
            Decision::Aborted(_) => {
                self.log(WalRecord::Abort(op.txn), Some(&reply))?;
                self.out.aborts += 1;
                self.abort(op.txn);
            }
        }
        if self.record_trace {
            self.out
                .trace
                .push(TraceEvent::Decision(op, decision.clone()));
        }
        self.held.replies.push((reply, decision));
        Ok(())
    }
}

/// Drops the events of every transaction `scheduler` has retired: a
/// retired commit can close no RSG cycle, so a checkpoint need not replay
/// it. The one pruning rule for a live core's checkpoint and a resumed
/// log's head.
pub(crate) fn prune_retired(events: &mut Vec<CheckpointEvent>, scheduler: &dyn Scheduler) {
    events.retain(|e| !scheduler.retired(event_txn(e)));
}

/// The transaction a checkpoint event concerns.
pub(crate) fn event_txn(e: &CheckpointEvent) -> TxnId {
    match e {
        CheckpointEvent::Begin(t) | CheckpointEvent::Commit(t) => *t,
        CheckpointEvent::Grant(op) => op.txn,
    }
}

/// Unwinds every command still in flight after a crash: request replies
/// are filled with `Aborted(Injected)` so no session hangs, everything
/// else is dropped (the scheduler is gone). The queue is already closed,
/// so this terminates once the backlog is drained. Callers follow it with
/// [`Progress::bump`], which is also what rings the reactors whose cells
/// were just filled.
pub(crate) fn drain_after_crash(
    rest: Vec<Command>,
    queue: &BoundedQueue<Command>,
    batch_max: usize,
) {
    let unwind = |cmd: Command| {
        if let Some(reply) = cmd.into_reply() {
            reply.fill(Decision::Aborted(AbortReason::Injected));
        }
    };
    for cmd in rest {
        unwind(cmd);
    }
    let mut batch = Vec::with_capacity(batch_max.max(1));
    while queue.pop_batch(batch_max.max(1), &mut batch) {
        for cmd in batch.drain(..) {
            unwind(cmd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn reply_roundtrip() {
        let r = Reply::new();
        let waiter = r.clone();
        let h = std::thread::spawn(move || {
            waiter.wait_filled(Duration::from_secs(10));
            waiter.try_take()
        });
        std::thread::sleep(Duration::from_millis(5));
        r.fill(Decision::Granted);
        assert_eq!(h.join().unwrap(), Some(Decision::Granted));
    }

    /// A resent request for an already-granted operation (the client lost
    /// the response) is answered `Granted` again, but granted, logged and
    /// counted once: the log stays a schedule recovery can certify.
    #[test]
    fn duplicate_request_is_acknowledged_again_but_granted_once() {
        use relser_core::spec::AtomicitySpec;
        use relser_core::txn::TxnSet;
        use relser_protocols::rsg_sgt::RsgSgt;
        use relser_wal::{scan, CheckpointPolicy, FsyncPolicy, MemSegmentStore, SegmentedWal};

        let txns = TxnSet::parse(&["r1[x] w1[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let t = TxnId(0);
        let queue: BoundedQueue<Command> = BoundedQueue::new(8);
        let mut replies = Vec::new();
        let mut request = |index| {
            let reply = Reply::new();
            replies.push(reply.clone());
            Command::Request {
                op: OpId { txn: t, index },
                enqueued: Instant::now(),
                reply,
            }
        };
        let commands = [
            Command::Begin(t),
            request(0),
            request(0),
            request(1),
            Command::Commit {
                txn: t,
                ops: 2,
                ack: None,
            },
        ];
        for cmd in commands {
            assert!(queue.push_wait(cmd).is_ok());
        }
        queue.close();
        let (store, handle) = MemSegmentStore::new();
        let mut wal = SegmentedWal::new(
            Box::new(store),
            FsyncPolicy::Always,
            CheckpointPolicy::never(),
        )
        .unwrap();
        let out = run_core(
            Box::new(RsgSgt::new(&txns, &spec)),
            &queue,
            &Progress::new(),
            CoreCfg {
                batch_max: 8,
                record_trace: false,
            },
            &FaultPlan::default(),
            Some(&mut wal),
            ShardCoreCtx::default(),
        );
        for reply in &replies {
            assert_eq!(reply.try_take(), Some(Decision::Granted));
        }
        assert_eq!((out.grants, out.duplicate_grants), (2, 1));
        assert_eq!(out.log.len(), 2, "each operation is in the log once");
        let grants = scan(&handle.segments()[0].1)
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::Grant(_)))
            .count();
        assert_eq!(grants, 2, "and in the write-ahead log once");
    }

    #[test]
    fn unfilled_reply_wait_times_out() {
        let r = Reply::new();
        let watchdog = Duration::from_millis(10);
        assert!(!r.wait_filled(watchdog));
        assert_eq!(r.try_take(), None);
        // The cell still works afterwards: a late fill is delivered.
        r.fill(Decision::Granted);
        assert!(r.wait_filled(watchdog));
        assert_eq!(r.try_take(), Some(Decision::Granted));
    }

    #[test]
    fn progress_wait_past_times_out() {
        let p = Progress::new();
        let e = p.wait_past(0, Duration::from_millis(5));
        assert_eq!(e, 0, "no bump: timeout returns the old epoch");
        p.bump();
        assert_eq!(p.wait_past(0, Duration::from_millis(5)), 1);
    }

    #[test]
    fn progress_wakes_waiters() {
        let p = std::sync::Arc::new(Progress::new());
        let p2 = std::sync::Arc::clone(&p);
        let h = std::thread::spawn(move || p2.wait_past(0, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(5));
        p.bump();
        assert_eq!(h.join().unwrap(), 1);
    }
}
