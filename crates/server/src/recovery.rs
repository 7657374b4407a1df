//! Crash recovery: rebuild the committed state from a write-ahead log.
//!
//! Recovery is the other half of the durability contract started by
//! serving with a commit log ([`crate::serve_sharded`], [`crate::run_core`]).
//! Every log is a segmented one ([`relser_wal::SegmentedWal`]; a log that
//! never rotated is one segment), so there are two functions:
//! [`recover_segments_with_certifier`] for one log,
//! [`recover_sharded_segments_with_certifier`] for N per-shard segment
//! streams. The core logged every state-changing
//! admission event in core order — the run's serialization point — so
//! the log's longest valid prefix determines exactly the state the
//! crashed core had acknowledged:
//!
//! 1. **Scan.** [`relser_wal::scan`] walks the bytes and truncates at the
//!    first torn or corrupt frame (the tail of the crashed write). What
//!    survives is the acknowledged prefix.
//! 2. **Replay.** Records run through the core's transaction state
//!    machine, and no scheduler is called: `Begin` starts an incarnation,
//!    `Grant` appends to the grant log, `Commit` and `CommitSession`
//!    commit it (the latter also rebuilds a retry-table entry), `Abort`
//!    drops the incarnation's grants, mirroring the core. A log is outside
//!    input, so a record is accepted only in a transaction state in which
//!    the core itself logs it; anything else is a
//!    [`RecoveryError::ForeignRecord`]:
//!
//!    | record | the transaction must be |
//!    |---|---|
//!    | `Begin` | neither live nor committed |
//!    | `Grant` | live, the grant at its incarnation's next index |
//!    | `Commit`, `CommitSession` | live, every operation granted |
//!    | `Abort` | live |
//!
//!    The newest checkpoint's events replay by the same rules, and each
//!    entry of its `committed` list must be committed by them or left not
//!    live. A commit is then *certified* (its commit replayed, so all its
//!    operations are in the log) or *vouched* (only the checkpoint lists
//!    it: the core retired it, so it can close no cycle, and dropped its
//!    events). One log and N per-shard logs are read by this one rule.
//! 3. **Roll back survivors.** Transactions that began but neither
//!    committed nor aborted before the crash lost their sessions; their
//!    incarnations are dropped and reported in [`Recovery::live_aborted`]
//!    for re-submission. Nothing is live now, so the fresh scheduler
//!    handed in *is* the recovered one: one that replayed the log would
//!    hold only committed transactions no live transaction reaches, all
//!    retired by RSG-SGT and unlocked by a locking scheduler, and decide
//!    every later request as a fresh one does. The core refuses the
//!    committed ones from its log head's committed list.
//! 4. **Re-certify.** The committed history ([`Recovery::history`]) is
//!    fed, in log order, to the linear-time vector-clock certifier
//!    ([`VClockCertifier`]: O(K + objects) to set up, then O(|D(o)|) per
//!    history operation `o`, |D(o)| ≤ K the transactions `o` depends on)
//!    over the universe recovery was handed, which decides
//!    Theorem 1 on the RSG's clock skeleton: `seal` lays its arcs out in
//!    flat rows by one counting sort and runs one DFS over them,
//!    O(operations + arcs) with no per-step allocation. Nothing is projected: a
//!    transaction with no operation in the history adds only its static
//!    I-chain to the skeleton, and an I-chain lies on no cycle, so the
//!    verdict is the verdict on the committed sub-universe. The explicit
//!    `Rsg::build(..).is_acyclic()` cross-check lives in test code
//!    (`relser-check`'s `vclock_recovery` suite certifies every recovered
//!    history with it). A rejected history means the log was forged or
//!    the service is broken — recovery refuses to bless it
//!    ([`RecoveryError::NotRelativelySerializable`]).
//!
//! Sharded recovery runs steps 1–3 on each shard's log, merges the
//! shards by the one rule of [`crate::shard`] — shard after shard, each in
//! its own commit and grant order — and runs step 4 once, on the merge:
//! certified once, merged. With single-owner transactions the merged RSG
//! is the disjoint union of the per-shard RSGs (DESIGN §13), so a
//! per-shard pass would prove nothing the merged pass does not.
//!
//! The headline invariant, exercised by the crash-point sweep in
//! `relser-check`: under [`relser_wal::FsyncPolicy::Always`], for a crash
//! at *any* byte of the log, recovery succeeds and its committed set
//! contains every commit the core ever acknowledged.

use crate::core::TraceEvent;
use crate::shard::{merge_shards, Merged};
use relser_core::ids::{OpId, TxnId};
use relser_core::shard::ShardMap;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock::VClockCertifier;
use relser_protocols::{Decision, Scheduler};
use relser_wal::{scan, CheckpointEvent, ScanResult, SessionEntry, Truncation, WalRecord};
use std::fmt;

/// What [`recover_segments_with_certifier`] rebuilt from the log's valid
/// prefix.
///
/// Derives `PartialEq`/`Eq` so regression tests can assert that two
/// recovery paths produce *identical* results, field by field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovery {
    /// Records replayed (the valid prefix length, in records).
    pub records: usize,
    /// Why the scan stopped early (`None`: the log ended cleanly).
    pub truncation: Option<Truncation>,
    /// Transactions committed before the crash, in commit order: each
    /// certified or vouched (step 2).
    pub committed: Vec<TxnId>,
    /// The shard id written in the seeding checkpoint (`None` when the
    /// log has no checkpoint). Sharded recovery uses it to refuse a
    /// segment stream routed to the wrong shard's recovery.
    pub shard: Option<u32>,
    /// Granted operations of committed *and* still-live incarnations at
    /// the crash point, in grant order — the recovered counterpart of
    /// [`crate::core::CoreOutput::log`], captured before step 3's
    /// rollback so oracle replays can compare against a crashed run.
    pub log: Vec<OpId>,
    /// The certified commits, in commit order: their commit replayed, so
    /// their operations are in [`Recovery::history`] and step 4 proves
    /// them. The rest of [`Recovery::committed`] the seeding checkpoint
    /// vouches for. When the checkpoint lists nothing, as a log that
    /// never rotated has it, this equals `committed`.
    pub certified: Vec<TxnId>,
    /// The committed history: [`Recovery::log`] filtered to
    /// [`Recovery::certified`]. This is what step 4 certifies: on its own
    /// by [`recover_segments_with_certifier`], as part of the merged
    /// history by sharded recovery.
    pub history: Vec<OpId>,
    /// Checkpoint events replayed to seed the scheduler (0 when the log
    /// has no checkpoint).
    pub seeded_events: usize,
    /// Records replayed *after* the seeding checkpoint — the suffix. With
    /// segment compaction this is bounded by the checkpoint policy, not
    /// by history length.
    pub replayed: usize,
    /// The replayed events in core order, in the same [`TraceEvent`]
    /// vocabulary the live core records (blocked decisions are absent:
    /// they change no state and were never logged).
    pub trace: Vec<TraceEvent>,
    /// Incarnations still live at the crash point, dropped in step 3
    /// (crash-orphaned transactions a resumed service would re-submit).
    pub live_aborted: Vec<TxnId>,
    /// The client-session retry table rebuilt from `CommitSession`
    /// records and checkpoint session entries, each answering a
    /// transaction in [`Recovery::committed`] (step 2 refuses a checkpoint
    /// entry for a commit its list does not name). One entry per session
    /// id, carrying the newest acknowledged `req_id`.
    pub sessions: Vec<SessionEntry>,
}

/// Why recovery refused the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// A CRC-valid record the service never logs: it references a
    /// transaction or operation outside the universe (the log belongs to a
    /// different transaction set), grants an operation out of its
    /// transaction's program order, or comes in a transaction state in
    /// which the core does not log it (step 2's rule table: a begin of a
    /// live or committed transaction, a commit of an incomplete one, a
    /// checkpoint listing one its events leave live, ...).
    ForeignRecord {
        /// Record index in the valid prefix.
        at: usize,
        /// The offending record.
        record: WalRecord,
    },
    /// The committed history failed step 4's Theorem 1 check: its RSG
    /// has a cycle, so the log certifies an execution the service must
    /// never have produced.
    NotRelativelySerializable,
    /// The committed history could not even be interpreted as a schedule
    /// (an operation out of its transaction's program order — carries
    /// the underlying error text).
    InvalidHistory(String),
    /// A sharded recovery was handed a log whose checkpoint is stamped
    /// with a different shard id — the per-shard segment streams were
    /// routed to the wrong recovery managers.
    ShardMismatch {
        /// The shard whose log this position should hold.
        expected: u32,
        /// The shard id found in the log's checkpoint.
        found: u32,
    },
    /// A shard's log holds a commit for a transaction that shard does not
    /// wholly own ([`ShardMap::owner_of_txn`]). The service never writes
    /// such a log — a transaction spanning shards is refused before
    /// anything is enqueued — so the log is forged or belongs to another
    /// partition, and per-shard certification says nothing about it.
    NotOwner {
        /// The shard whose log holds the commit.
        shard: u32,
        /// The committed transaction.
        txn: TxnId,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::ForeignRecord { at, record } => write!(
                f,
                "record {at} ({record:?}) references an operation outside the \
                 universe, grants one out of program order, or comes in a \
                 transaction state in which the service never logs it"
            ),
            RecoveryError::NotRelativelySerializable => {
                write!(
                    f,
                    "recovered committed history is not relatively serializable"
                )
            }
            RecoveryError::InvalidHistory(m) => {
                write!(f, "recovered committed history is not a schedule: {m}")
            }
            RecoveryError::ShardMismatch { expected, found } => write!(
                f,
                "log for shard {expected} carries a checkpoint stamped shard {found}"
            ),
            RecoveryError::NotOwner { shard, txn } => write!(
                f,
                "shard {shard}'s log commits {txn:?}, which that shard does not wholly own"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// The step-4 certifier, as recovery's signatures name it. It has one
/// value: recovery re-certifies with the vector-clock certifier. The type
/// exists only because the repository benchmark (`benchmark/src/sut.rs`)
/// names it; the benchmark change that stops naming it removes it
/// together with the `_with_certifier` suffix of the recovery functions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Certifier {
    /// The linear-time vector-clock certifier (`relser_core::vclock`):
    /// one forward pass over sparse clocks, O(|D(o)|) per history
    /// operation `o` for the |D(o)| ≤ K transactions it depends on.
    #[default]
    VClock,
}

/// Step 4, once per recovery: certifies `history` — complete committed
/// transactions, in log order — on the whole universe (see the module
/// docs for why nothing is projected).
fn recertify(txns: &TxnSet, spec: &AtomicitySpec, history: &[OpId]) -> Result<(), RecoveryError> {
    if history.is_empty() {
        return Ok(());
    }
    let mut certifier = VClockCertifier::new(txns, spec);
    for &op in history {
        certifier
            .observe(op)
            .map_err(|e| RecoveryError::InvalidHistory(e.to_string()))?;
    }
    if !certifier.seal().is_acyclic() {
        return Err(RecoveryError::NotRelativelySerializable);
    }
    Ok(())
}

/// Where step 2 has a transaction. A record is accepted only in the
/// state in which the core itself logs it (the module docs' rule table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxnState {
    /// Never begun, or its last incarnation aborted.
    Idle,
    /// Begun; the index its incarnation's next grant must have.
    Live(u32),
    /// Its commit replayed, so every one of its operations is in the log.
    Certified,
    /// Named only by the seeding checkpoint's `committed` list: retired
    /// before the rotation, which dropped its events.
    Vouched,
}

/// Step 2's state: the core bookkeeping mirrored record for record.
/// Checkpoint events and log records replay through the same four
/// transitions; `at`/`record` name the log record being replayed, for
/// error reports.
struct Replay<'a> {
    txns: &'a TxnSet,
    state: Vec<TxnState>,
    /// Every replayed grant, aborted incarnations' included.
    log: Vec<OpId>,
    /// `log.len()` at each transaction's latest `Begin`: its earlier
    /// grants in `log` belong to aborted incarnations.
    begun_at: Vec<usize>,
    trace: Vec<TraceEvent>,
}

fn foreign(at: usize, record: &WalRecord) -> RecoveryError {
    RecoveryError::ForeignRecord {
        at,
        record: record.clone(),
    }
}

impl Replay<'_> {
    /// `t`'s state; a record naming a transaction outside the universe is
    /// foreign.
    fn state_of(&self, t: TxnId, at: usize, record: &WalRecord) -> Result<TxnState, RecoveryError> {
        let state = self.state.get(t.index()).copied();
        state.ok_or_else(|| foreign(at, record))
    }

    fn begin(&mut self, t: TxnId, at: usize, record: &WalRecord) -> Result<(), RecoveryError> {
        if self.state_of(t, at, record)? != TxnState::Idle {
            return Err(foreign(at, record));
        }
        self.state[t.index()] = TxnState::Live(0);
        self.begun_at[t.index()] = self.log.len();
        self.trace.push(TraceEvent::Begin(t));
        Ok(())
    }

    fn grant(&mut self, op: OpId, at: usize, record: &WalRecord) -> Result<(), RecoveryError> {
        match self.state_of(op.txn, at, record)? {
            TxnState::Live(next)
                if op.index == next && next < self.txns.txn(op.txn).len() as u32 => {}
            _ => return Err(foreign(at, record)),
        }
        self.state[op.txn.index()] = TxnState::Live(op.index + 1);
        self.log.push(op);
        self.trace.push(TraceEvent::Decision(op, Decision::Granted));
        Ok(())
    }

    fn commit(&mut self, t: TxnId, at: usize, record: &WalRecord) -> Result<(), RecoveryError> {
        if self.state_of(t, at, record)? != TxnState::Live(self.txns.txn(t).len() as u32) {
            return Err(foreign(at, record));
        }
        self.state[t.index()] = TxnState::Certified;
        self.trace.push(TraceEvent::Commit(t));
        Ok(())
    }

    fn abort(&mut self, t: TxnId, at: usize, record: &WalRecord) -> Result<(), RecoveryError> {
        if !matches!(self.state_of(t, at, record)?, TxnState::Live(_)) {
            return Err(foreign(at, record));
        }
        self.state[t.index()] = TxnState::Idle;
        self.trace.push(TraceEvent::Abort(t));
        Ok(())
    }
}

/// Steps 2 and 3 of recovery over an already-scanned segment; the caller
/// runs step 4.
fn replay_scan(txns: &TxnSet, scanned: ScanResult) -> Result<Recovery, RecoveryError> {
    let records = &scanned.records;
    let mut replay = Replay {
        txns,
        state: vec![TxnState::Idle; txns.len()],
        log: Vec::new(),
        begun_at: vec![0; txns.len()],
        trace: Vec::with_capacity(records.len()),
    };
    let mut committed: Vec<TxnId> = Vec::new();
    let mut sessions: Vec<SessionEntry> = Vec::new();

    // Step 2a: seed from the *newest* checkpoint, if any. Its `events`
    // stream is the condensed, retirement-pruned replay of the live state
    // at rotation time; its `committed` list is the full acknowledged
    // commit set. Everything before it in this log is already covered.
    let seed_at = records
        .iter()
        .rposition(|r| matches!(r, WalRecord::Checkpoint(_)));
    let mut seeded_events = 0;
    let mut shard: Option<u32> = None;
    let start = match seed_at {
        Some(k) => {
            let record = &records[k];
            let WalRecord::Checkpoint(cp) = record else {
                unreachable!("rposition matched a checkpoint");
            };
            shard = Some(cp.shard);
            seeded_events = cp.events.len();
            for ev in &cp.events {
                match *ev {
                    CheckpointEvent::Begin(t) => replay.begin(t, k, record)?,
                    CheckpointEvent::Grant(op) => replay.grant(op, k, record)?,
                    CheckpointEvent::Commit(t) => replay.commit(t, k, record)?,
                }
            }
            // Its list names each commit of the events once and vouches
            // for the retired commits they left idle; a transaction they
            // leave live is not committed. Its retry-table entries answer
            // listed commits.
            let mut listed = vec![false; txns.len()];
            for &t in &cp.committed {
                let state = replay.state_of(t, k, record)?;
                if matches!(state, TxnState::Live(_))
                    || std::mem::replace(&mut listed[t.index()], true)
                {
                    return Err(foreign(k, record));
                }
                if state == TxnState::Idle {
                    replay.state[t.index()] = TxnState::Vouched;
                }
            }
            let certified = replay.state.iter().map(|&s| s == TxnState::Certified);
            if certified.zip(&listed).any(|(c, &l)| c && !l)
                || (cp.sessions.iter()).any(|e| listed.get(e.txn.index()) != Some(&true))
            {
                return Err(foreign(k, record));
            }
            committed = cp.committed.clone();
            sessions = cp.sessions.clone();
            k + 1
        }
        None => 0,
    };

    // Step 2b: replay the post-checkpoint suffix, mirroring the core's
    // bookkeeping record for record.
    let replayed = records.len() - start;
    for (at, record) in records.iter().enumerate().skip(start) {
        match *record {
            WalRecord::Begin(txn) => replay.begin(txn, at, record)?,
            WalRecord::Grant(op) => replay.grant(op, at, record)?,
            WalRecord::Commit(txn) => {
                replay.commit(txn, at, record)?;
                committed.push(txn);
            }
            WalRecord::CommitSession {
                txn,
                session,
                req_id,
            } => {
                // A sessionful commit: exactly a `Commit` plus the
                // retry-table entry that was made durable with it.
                replay.commit(txn, at, record)?;
                committed.push(txn);
                sessions.push(SessionEntry {
                    session,
                    req_id,
                    txn,
                });
            }
            WalRecord::Abort(txn) => replay.abort(txn, at, record)?,
            WalRecord::Checkpoint(_) => {
                unreachable!("the newest checkpoint seeds; none can follow it")
            }
        }
    }
    // The grants of committed and still-live incarnations: a grant
    // survives iff its transaction is not idle and it follows the
    // transaction's latest `Begin`. One pass, where purging at every abort
    // would cost the log's length per abort.
    let Replay {
        state,
        mut log,
        begun_at,
        trace,
        ..
    } = replay;
    let mut at = 0;
    log.retain(|o| {
        at += 1;
        state[o.txn.index()] != TxnState::Idle && at > begun_at[o.txn.index()]
    });

    // The certified commits and their history: everything committed but
    // what the checkpoint vouches for.
    let is_certified = |t: TxnId| state[t.index()] == TxnState::Certified;
    let history: Vec<OpId> = log
        .iter()
        .copied()
        .filter(|o| is_certified(o.txn))
        .collect();
    let certified: Vec<TxnId> = committed
        .iter()
        .copied()
        .filter(|&t| is_certified(t))
        .collect();

    // Step 3: drop crash-orphaned incarnations; `history` already leaves
    // them out.
    let live: Vec<TxnId> = txns
        .txn_ids()
        .filter(|t| matches!(state[t.index()], TxnState::Live(_)))
        .collect();

    Ok(Recovery {
        records: records.len(),
        truncation: scanned.truncation,
        committed,
        shard,
        certified,
        log,
        history,
        seeded_events,
        replayed,
        trace,
        live_aborted: live,
        sessions: dedupe_sessions(sessions),
    })
}

/// Collapses session entries to one per session id, keeping the newest
/// acknowledged `req_id` (a session's requests are strictly ordered, so
/// the newest entry answers the only commit the client can still retry).
/// Output is sorted by session id for deterministic comparison.
fn dedupe_sessions(entries: Vec<SessionEntry>) -> Vec<SessionEntry> {
    let mut best: Vec<SessionEntry> = Vec::with_capacity(entries.len());
    for e in entries {
        match best.iter_mut().find(|b| b.session == e.session) {
            Some(b) => {
                if e.req_id >= b.req_id {
                    *b = e;
                }
            }
            None => best.push(e),
        }
    }
    best.sort_by_key(|e| e.session);
    best
}

/// Recovers from a *segmented* log: picks the newest segment whose head
/// checkpoint frame is intact (rotation forces it durable before older
/// segments may be deleted, so if a crash tore the newest segment's head
/// the previous segment is still on disk and wholly covers the
/// acknowledged state), then runs the four steps of the module docs on
/// that segment, certifying its committed history once. Each candidate is
/// scanned once; the chosen one's scan is what gets replayed. Returns the
/// chosen segment's sequence number alongside the recovery.
///
/// `segments` is `(seq, bytes)` ascending, as a
/// [`relser_wal::ReadableSegmentStore`] reads them back (the open call,
/// [`crate::recover_and_resume`], replays a store through this). Raw
/// bytes of one segment are the one-segment stream `[(0, bytes)]`.
///
/// `scheduler` must be fresh and built over the same `txns` / `spec`
/// universe the crashed service ran. Recovery calls none of its methods:
/// fresh, it already decides every later request as the crashed service
/// would after rolling back its live transactions (step 3 of the module
/// docs), so it is the recovered scheduler, ready to admit new work.
pub fn recover_segments_with_certifier(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    _scheduler: &mut dyn Scheduler,
    segments: &[(u64, Vec<u8>)],
    _certifier: Certifier,
) -> Result<(u64, Recovery), RecoveryError> {
    let (seq, rec) = replay_segments(txns, segments)?;
    recertify(txns, spec, &rec.history)?;
    Ok((seq, rec))
}

/// Steps 1–3 of [`recover_segments_with_certifier`]: the segment pick and
/// the replay, without step 4.
fn replay_segments(
    txns: &TxnSet,
    segments: &[(u64, Vec<u8>)],
) -> Result<(u64, Recovery), RecoveryError> {
    // Newest first; the newest segment itself is the fallback when no
    // head checkpoint is intact.
    let mut pick: Option<(u64, ScanResult)> = None;
    for (seq, bytes) in segments.iter().rev() {
        let scanned = scan(bytes);
        let intact = matches!(scanned.records.first(), Some(WalRecord::Checkpoint(_)));
        if intact || pick.is_none() {
            pick = Some((*seq, scanned));
        }
        if intact {
            break;
        }
    }
    let (seq, scanned) = pick.unwrap_or_else(|| (0, scan(&[])));
    Ok((seq, replay_scan(txns, scanned)?))
}

/// What [`recover_sharded_segments_with_certifier`] rebuilt from N
/// per-shard logs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardedRecovery {
    /// The per-shard recoveries, index = shard id. Each is replayed but
    /// not certified on its own: its history is certified as part of
    /// [`ShardedRecovery::history`].
    pub shards: Vec<Recovery>,
    /// Transactions their owning shard committed, shard after shard, each
    /// shard's in its commit order (the one merge rule, shared with
    /// [`crate::serve_sharded`]'s report). This is the acknowledged-commit
    /// set of the sharded service.
    pub committed: Vec<TxnId>,
    /// [`Recovery::certified`], shard after shard: the commits whose
    /// every operation is in [`ShardedRecovery::history`]. The rest of
    /// [`ShardedRecovery::committed`] is vouched for by its shard's newest
    /// checkpoint, as in [`Recovery::certified`].
    pub certified: Vec<TxnId>,
    /// The merged committed history: every shard's recovered grant log,
    /// shard after shard, filtered to [`ShardedRecovery::committed`] (a
    /// committed transaction lives wholly on its owner's log and
    /// conflicts are same-shard, so the concatenation is
    /// conflict-equivalent to the real execution). This is what step 4
    /// certifies, once for the whole recovery.
    pub history: Vec<OpId>,
    /// The merged client-session retry table: every shard's rebuilt
    /// entries, filtered to the merged committed set and collapsed to
    /// the newest `req_id` per session.
    pub sessions: Vec<SessionEntry>,
}

/// Recovers a sharded service from its per-shard *segment* streams —
/// `segments[s]` is shard `s`'s retained `(seq, bytes)` list, ascending
/// (raw bytes of one segment are the one-segment stream `[(0, bytes)]`);
/// the shard count is `segments.len()`.
///
/// Each shard's stream is replayed independently, like
/// [`recover_segments_with_certifier`] but without its step 4. Replay
/// calls no scheduler, so `make_scheduler` is never called: the parameter
/// stays only because the repository benchmark (`benchmark/src/sut.rs`)
/// passes it, like [`Certifier`]. The per-shard views are
/// then merged under the ownership rule: a shard commits only
/// transactions it wholly owns ([`ShardMap::owner_of_txn`]). A log is
/// outside input, so the rule is checked, and a log that breaks it is
/// refused ([`RecoveryError::NotOwner`]). With single-owner transactions
/// the merged RSG is the disjoint union of the per-shard RSGs, so the
/// merged history is certified **once** and that one pass covers every
/// shard: certified once, merged. This is how the supervised service
/// computes its authoritative end-of-run committed history, and how a
/// chaos run proves zero acknowledged-commit loss.
pub fn recover_sharded_segments_with_certifier<'a, F>(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    _make_scheduler: F,
    segments: &[Vec<(u64, Vec<u8>)>],
    _certifier: Certifier,
) -> Result<ShardedRecovery, RecoveryError>
where
    F: FnMut(u32) -> Box<dyn Scheduler + 'a>,
{
    assert!(!segments.is_empty(), "need at least one shard");
    let mut shards: Vec<Recovery> = Vec::with_capacity(segments.len());
    for (s, segs) in segments.iter().enumerate() {
        let (_, rec) = replay_segments(txns, segs)?;
        if let Some(found) = rec.shard {
            if found != s as u32 {
                return Err(RecoveryError::ShardMismatch {
                    expected: s as u32,
                    found,
                });
            }
        }
        shards.push(rec);
    }
    merge_sharded_recoveries(txns, spec, shards)
}

/// The second half of sharded recovery: ownership check, the shard-order
/// merge, step 4 on the merge, session-table union.
fn merge_sharded_recoveries(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    shards: Vec<Recovery>,
) -> Result<ShardedRecovery, RecoveryError> {
    let map = ShardMap::new(shards.len() as u32);

    // Every commit is its owner's.
    for (s, rec) in shards.iter().enumerate() {
        let shard = s as u32;
        if let Some(&txn) = rec
            .committed
            .iter()
            .find(|&&t| map.owner_of_txn(txns, t) != Some(shard))
        {
            return Err(RecoveryError::NotOwner { shard, txn });
        }
    }

    // Step 4 runs here, once, on the merged history; a forged log that
    // splits a transaction across shards fails program order in
    // `recertify` (`InvalidHistory`).
    let Merged {
        committed, history, ..
    } = merge_shards(
        txns,
        shards.iter().map(|rec| (&rec.committed[..], &rec.log[..])),
    );
    recertify(txns, spec, &history)?;

    // Each shard's retry table is already restricted to its own commits.
    let certified = shards.iter().flat_map(|rec| rec.certified.iter().copied());
    let sessions = shards.iter().flat_map(|rec| rec.sessions.iter().copied());
    Ok(ShardedRecovery {
        certified: certified.collect(),
        sessions: dedupe_sessions(sessions.collect()),
        shards,
        committed,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{RunOutcome, ServerConfig};
    use crate::shard::serve_sharded;
    use relser_protocols::rsg_sgt::RsgSgt;
    use relser_wal::{CheckpointPolicy, FsyncPolicy, MemSegmentStore, SegmentedWal, MAGIC};
    use relser_workload::stream::RequestStream;

    fn universe() -> (TxnSet, AtomicitySpec) {
        let txns = TxnSet::parse(&["w1[x] w1[y]", "r2[x] w2[z]", "r3[y] r3[z]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        (txns, spec)
    }

    /// A durable run of `stream` over one never-rotating log; returns the
    /// report and the log's one segment.
    fn durable_run(
        txns: &TxnSet,
        spec: &AtomicitySpec,
        stream: &RequestStream,
    ) -> (crate::ShardedReport, Vec<u8>) {
        let (store, handle) = MemSegmentStore::new();
        let mut wal = SegmentedWal::new(
            Box::new(store),
            FsyncPolicy::Always,
            CheckpointPolicy::never(),
        )
        .unwrap();
        let cfg = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let scheduler = RsgSgt::new(txns, spec);
        let report = serve_sharded(
            txns,
            stream,
            vec![Box::new(scheduler)],
            &cfg,
            &[],
            vec![&mut wal],
        );
        assert_eq!(report.outcome, RunOutcome::Completed);
        (report, handle.segments().remove(0).1)
    }

    /// Recovers `bytes` as the one-segment stream `[(0, bytes)]`.
    fn recover_bytes(
        txns: &TxnSet,
        spec: &AtomicitySpec,
        bytes: &[u8],
    ) -> Result<Recovery, RecoveryError> {
        let mut fresh = RsgSgt::new(txns, spec);
        let segments = [(0, bytes.to_vec())];
        recover_segments_with_certifier(txns, spec, &mut fresh, &segments, Certifier::VClock)
            .map(|(_, rec)| rec)
    }

    /// A clean durable run recovers to the same committed state.
    #[test]
    fn clean_log_recovers_everything() {
        let (txns, spec) = universe();
        let stream = RequestStream::shuffled(&txns, 5);
        let (report, bytes) = durable_run(&txns, &spec, &stream);
        let rec = recover_bytes(&txns, &spec, &bytes).unwrap();
        assert_eq!(rec.truncation, None);
        assert_eq!(rec.committed, report.committed);
        assert_eq!(rec.log, report.log);
        assert_eq!(
            rec.history, report.log,
            "clean run: log == committed history"
        );
        assert!(rec.live_aborted.is_empty());
    }

    /// Truncating at every byte still recovers a certified prefix, and
    /// under `Always` the synced watermark never loses a commit.
    #[test]
    fn every_crash_point_recovers_a_certified_prefix() {
        let (txns, spec) = universe();
        let stream = RequestStream::shuffled(&txns, 11);
        let (report, bytes) = durable_run(&txns, &spec, &stream);
        let mut last_committed = 0;
        for cut in 0..=bytes.len() {
            let rec = recover_bytes(&txns, &spec, &bytes[..cut]).unwrap();
            // Commit monotonicity across crash points: later crashes never
            // recover fewer committed transactions.
            assert!(rec.committed.len() >= last_committed, "cut at {cut}");
            last_committed = rec.committed.len();
        }
        assert_eq!(last_committed, report.committed.len());
    }

    /// A forged grant the original scheduler would refuse is rejected.
    #[test]
    fn forged_log_is_rejected() {
        let (txns, spec) = universe();
        // Grant an operation for a transaction that never began —
        // RSG-SGT answers something other than Granted out of thin air
        // only if the log is inconsistent; an out-of-universe id is the
        // unambiguous forgery.
        let mut bytes = MAGIC.to_vec();
        WalRecord::Begin(TxnId(99)).encode_into(&mut bytes).unwrap();
        let err = recover_bytes(&txns, &spec, &bytes).unwrap_err();
        assert!(matches!(err, RecoveryError::ForeignRecord { at: 0, .. }));
    }

    /// A CRC-valid grant that skips or repeats an index of its
    /// transaction is refused: the core grants in program order and logs
    /// each grant once.
    #[test]
    fn out_of_order_grant_is_a_foreign_record() {
        let (txns, spec) = universe();
        let t = TxnId(0);
        let skip = [WalRecord::Begin(t), WalRecord::Grant(OpId::new(t, 1))];
        let repeat = [
            WalRecord::Begin(t),
            WalRecord::Grant(OpId::new(t, 0)),
            WalRecord::Grant(OpId::new(t, 0)),
        ];
        for records in [&skip[..], &repeat[..]] {
            let mut bytes = MAGIC.to_vec();
            for r in records {
                r.encode_into(&mut bytes).unwrap();
            }
            let mut fresh = RsgSgt::new(&txns, &spec);
            let segments = [(0, bytes)];
            let err = recover_segments_with_certifier(
                &txns,
                &spec,
                &mut fresh,
                &segments,
                Certifier::VClock,
            )
            .unwrap_err();
            let (at, record) = (records.len() - 1, records[records.len() - 1].clone());
            assert_eq!(err, RecoveryError::ForeignRecord { at, record });
            assert!(
                err.to_string().contains("program order"),
                "the message names the cause: {err}"
            );
            // Recovery asks the scheduler nothing.
            assert!(fresh.admitted().is_empty());
        }
    }

    /// Garbage bytes recover (to nothing) instead of panicking.
    #[test]
    fn garbage_recovers_to_empty_state() {
        let (txns, spec) = universe();
        let rec = recover_bytes(&txns, &spec, &[0xAB; 64]).unwrap();
        assert_eq!(rec.records, 0);
        assert_eq!(rec.truncation, Some(Truncation::BadMagic));
        assert!(rec.committed.is_empty());
    }
}
