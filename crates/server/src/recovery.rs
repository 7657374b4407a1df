//! Crash recovery: rebuild scheduler state from a write-ahead log.
//!
//! Recovery is the other half of the durability contract started by
//! serving with a commit log ([`crate::serve`], [`crate::run_core`]), one
//! function per log shape, each taking its step-4 [`Certifier`]
//! explicitly: [`recover`] for one log's bytes,
//! [`recover_segments_with_certifier`] for one segmented log,
//! [`recover_sharded_segments_with_certifier`] for N per-shard segment
//! streams. The core logged every state-changing
//! admission event in core order — the run's serialization point — so
//! replaying the log's longest valid prefix through a **fresh** scheduler
//! reconstructs exactly the state the crashed core had acknowledged:
//!
//! 1. **Scan.** [`relser_wal::scan`] walks the bytes and truncates at the
//!    first torn or corrupt frame (the tail of the crashed write). What
//!    survives is the acknowledged prefix.
//! 2. **Replay.** Records map one-to-one onto scheduler calls: `Begin` →
//!    `begin`, `Grant` → `request` (which must come back `Granted` —
//!    anything else is a [`RecoveryError::ReplayDivergence`], since the
//!    log fully determines a deterministic scheduler's answer), `Commit`
//!    → `commit`, `Abort` → `abort` plus a log purge, mirroring the core.
//! 3. **Roll back survivors.** Transactions that began but neither
//!    committed nor aborted before the crash lost their sessions; they
//!    are aborted so the recovered scheduler resumes from a clean state
//!    (their ids are reported in [`Recovery::live_aborted`] for
//!    re-submission).
//! 4. **Re-certify.** The committed history is projected onto the
//!    committed sub-universe ([`Projection::subset`]) and re-certified.
//!    [`Certifier::VClock`] is the linear-time vector-clock certifier
//!    (`relser_core::vclock`, O(n·K) in history length n and transaction
//!    count K); the explicit `Rsg::build(..).is_acyclic()` path is kept
//!    selectable via [`Certifier::Theorem1Rsg`] and the regression suite
//!    asserts both paths recover byte-identical state at every crash
//!    point. A rejected history means the log was forged or the service
//!    is broken — recovery refuses to bless it.
//!
//! The headline invariant, exercised by the crash-point sweep in
//! `relser-check`: under [`relser_wal::FsyncPolicy::Always`], for a crash
//! at *any* byte of the log, `recover` succeeds and its committed set
//! contains every commit the core ever acknowledged.

use crate::core::TraceEvent;
use relser_core::ids::{OpId, TxnId};
use relser_core::project::Projection;
use relser_core::rsg::Rsg;
use relser_core::shard::{merge_program_order, ShardMap};
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock;
use relser_protocols::{Decision, Scheduler};
use relser_wal::{scan, CheckpointEvent, ScanResult, SessionEntry, Truncation, WalRecord};
use std::fmt;

/// What [`recover`] rebuilt from the log's valid prefix.
///
/// Derives `PartialEq`/`Eq` so regression tests can assert that two
/// recovery paths (e.g. the vector-clock and Theorem 1 re-certifiers)
/// produce *identical* results, field by field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovery {
    /// Records replayed (the valid prefix length, in records).
    pub records: usize,
    /// Length in bytes of the valid prefix; the log should be truncated
    /// here before the recovered service appends again.
    pub valid_bytes: usize,
    /// Why the scan stopped early (`None`: the log ended cleanly).
    pub truncation: Option<Truncation>,
    /// Transactions committed before the crash, in commit order.
    pub committed: Vec<TxnId>,
    /// Global commit stamps seen in `CommitAt` records, `(stamp, txn)` in
    /// local commit order (empty for an unsharded log). Sharded recovery
    /// merges the per-shard commit orders by these stamps.
    pub commit_stamps: Vec<(u64, TxnId)>,
    /// The shard id stamped in the seeding checkpoint (`None` when the
    /// log has no checkpoint). Sharded recovery uses it to refuse a
    /// segment stream routed to the wrong shard's recovery.
    pub shard: Option<u32>,
    /// Granted operations of committed *and* still-live incarnations at
    /// the crash point, in grant order — the recovered counterpart of
    /// [`crate::core::CoreOutput::log`], captured before step 3's
    /// rollback so oracle replays can compare against a crashed run.
    pub log: Vec<OpId>,
    /// The committed transactions whose *complete* operation sets are in
    /// the recovered log — what the Theorem 1 oracle can re-certify.
    /// Without a checkpoint this equals [`Recovery::committed`]; with
    /// one, transactions the checkpoint already retired keep their place
    /// in `committed` (zero acknowledged-commit loss) but their
    /// operations were compacted away, so they are vouched for by the
    /// checkpoint that certified them at rotation time, not re-proved.
    pub certified: Vec<TxnId>,
    /// The committed history: [`Recovery::log`] filtered to
    /// [`Recovery::certified`]. This is what gets re-certified.
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
    /// Live incarnations rolled back in step 3 (crash-orphaned
    /// transactions a resumed service would re-submit).
    pub live_aborted: Vec<TxnId>,
    /// The client-session retry table rebuilt from `CommitSession`
    /// records and checkpoint session entries, filtered to transactions
    /// in [`Recovery::committed`] (an entry can outlive its commit
    /// record only across a torn rotation; the filter refuses to
    /// promise a verdict the log no longer proves). One entry per
    /// session id, carrying the newest acknowledged `req_id`.
    pub sessions: Vec<SessionEntry>,
}

/// Why [`recover`] refused the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// A CRC-valid record references a transaction or operation that does
    /// not exist in the universe — the log belongs to a different
    /// transaction set.
    ForeignRecord {
        /// Record index in the valid prefix.
        at: usize,
        /// The offending record.
        record: WalRecord,
    },
    /// The scheduler answered a replayed `Grant` differently than the
    /// original run — impossible for a deterministic scheduler on a
    /// genuine log, so either the log was tampered with past the CRC or
    /// the scheduler is not the one that wrote it.
    ReplayDivergence {
        /// Record index in the valid prefix.
        at: usize,
        /// The grant being replayed.
        record: WalRecord,
        /// What the scheduler said instead of `Granted`.
        got: Decision,
    },
    /// The committed history failed the Theorem 1 oracle: its RSG has a
    /// cycle, so the log certifies an execution the service must never
    /// have produced.
    NotRelativelySerializable,
    /// The committed history could not even be interpreted as a schedule
    /// over the committed sub-universe (a malformed projection — carries
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
            RecoveryError::ForeignRecord { at, record } => {
                write!(
                    f,
                    "record {at} ({record:?}) references an unknown transaction"
                )
            }
            RecoveryError::ReplayDivergence { at, record, got } => write!(
                f,
                "replay diverged at record {at} ({record:?}): expected Granted, got {got:?}"
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

/// Which engine step 4 uses to re-certify the recovered committed
/// history. Both decide exactly the paper's Theorem 1 predicate; they
/// differ only in cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Certifier {
    /// The linear-time vector-clock certifier (`relser_core::vclock`):
    /// one forward pass, O(n·K) for n history operations and K
    /// transactions. The default.
    #[default]
    VClock,
    /// The explicit Theorem 1 oracle: full depends-on closure plus
    /// `Rsg::build(..).is_acyclic()` — superlinear in history length.
    /// Kept for regression comparison against the vclock path.
    Theorem1Rsg,
}

/// Step 4 for both flat and sharded recovery: project the certified
/// history and re-certify it with the chosen engine.
fn recertify(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    certified: &[TxnId],
    history: &[OpId],
    certifier: Certifier,
) -> Result<(), RecoveryError> {
    if certified.is_empty() {
        return Ok(());
    }
    let projection = Projection::subset(txns, spec, certified)
        .map_err(|e| RecoveryError::InvalidHistory(e.to_string()))?;
    let schedule = projection
        .schedule(history)
        .map_err(|e| RecoveryError::InvalidHistory(e.to_string()))?;
    let acyclic = match certifier {
        Certifier::VClock => {
            vclock::certify(&projection.txns, &schedule, &projection.spec).is_acyclic()
        }
        Certifier::Theorem1Rsg => {
            Rsg::build(&projection.txns, &schedule, &projection.spec).is_acyclic()
        }
    };
    if !acyclic {
        return Err(RecoveryError::NotRelativelySerializable);
    }
    Ok(())
}

/// Recovers from `bytes` (the contents of one write-ahead log) into
/// `scheduler`, which must be fresh and built over the same `txns` /
/// `spec` universe the crashed service ran. See the module docs for the
/// four steps; step 4 re-certifies with `certifier` (the regression suite
/// runs both [`Certifier`]s over every crash point and asserts
/// byte-identical recovered state). On success the scheduler holds
/// exactly the committed state, ready to admit new work.
pub fn recover(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    scheduler: &mut dyn Scheduler,
    bytes: &[u8],
    certifier: Certifier,
) -> Result<Recovery, RecoveryError> {
    replay_scan(txns, spec, scheduler, scan(bytes), certifier)
}

/// Step 2's state: the scheduler being rebuilt and the core bookkeeping
/// mirrored record for record. Checkpoint events and log records replay
/// through the same four transitions; `at`/`record` name the log record
/// being replayed, for error reports.
struct Replay<'a> {
    txns: &'a TxnSet,
    scheduler: &'a mut dyn Scheduler,
    log: Vec<OpId>,
    live: Vec<TxnId>,
    trace: Vec<TraceEvent>,
}

impl Replay<'_> {
    fn check_txn(&self, t: TxnId, at: usize, record: &WalRecord) -> Result<(), RecoveryError> {
        if t.index() < self.txns.len() {
            return Ok(());
        }
        Err(RecoveryError::ForeignRecord {
            at,
            record: record.clone(),
        })
    }

    fn begin(&mut self, t: TxnId, at: usize, record: &WalRecord) -> Result<(), RecoveryError> {
        self.check_txn(t, at, record)?;
        self.scheduler.begin(t);
        if !self.live.contains(&t) {
            self.live.push(t);
        }
        self.trace.push(TraceEvent::Begin(t));
        Ok(())
    }

    fn grant(&mut self, op: OpId, at: usize, record: &WalRecord) -> Result<(), RecoveryError> {
        self.check_txn(op.txn, at, record)?;
        if op.index >= self.txns.txn(op.txn).len() as u32 {
            return Err(RecoveryError::ForeignRecord {
                at,
                record: record.clone(),
            });
        }
        let got = self.scheduler.request(op);
        if got != Decision::Granted {
            return Err(RecoveryError::ReplayDivergence {
                at,
                record: record.clone(),
                got,
            });
        }
        self.log.push(op);
        self.trace.push(TraceEvent::Decision(op, Decision::Granted));
        Ok(())
    }

    fn commit(&mut self, t: TxnId, at: usize, record: &WalRecord) -> Result<(), RecoveryError> {
        self.check_txn(t, at, record)?;
        self.scheduler.commit(t);
        self.live.retain(|&u| u != t);
        self.trace.push(TraceEvent::Commit(t));
        Ok(())
    }

    fn abort(&mut self, t: TxnId, at: usize, record: &WalRecord) -> Result<(), RecoveryError> {
        self.check_txn(t, at, record)?;
        self.scheduler.abort(t);
        self.log.retain(|o| o.txn != t);
        self.live.retain(|&u| u != t);
        self.trace.push(TraceEvent::Abort(t));
        Ok(())
    }
}

/// [`recover`] over an already-scanned log.
fn replay_scan(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    scheduler: &mut dyn Scheduler,
    scanned: ScanResult,
    certifier: Certifier,
) -> Result<Recovery, RecoveryError> {
    let records = &scanned.records;
    let mut replay = Replay {
        txns,
        scheduler,
        log: Vec::new(),
        live: Vec::new(),
        trace: Vec::with_capacity(records.len()),
    };
    let mut committed: Vec<TxnId> = Vec::new();
    let mut commit_stamps: Vec<(u64, TxnId)> = Vec::new();
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
            for &t in cp
                .committed
                .iter()
                .chain(cp.sessions.iter().map(|e| &e.txn))
            {
                replay.check_txn(t, k, record)?;
            }
            shard = Some(cp.shard);
            committed = cp.committed.clone();
            sessions = cp.sessions.clone();
            seeded_events = cp.events.len();
            for ev in &cp.events {
                match *ev {
                    CheckpointEvent::Begin(t) => replay.begin(t, k, record)?,
                    CheckpointEvent::Grant(op) => replay.grant(op, k, record)?,
                    CheckpointEvent::Commit(t) => replay.commit(t, k, record)?,
                }
            }
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
            WalRecord::CommitAt { txn, stamp } => {
                replay.commit(txn, at, record)?;
                committed.push(txn);
                commit_stamps.push((stamp, txn));
            }
            WalRecord::CommitSession {
                txn,
                stamp,
                session,
                req_id,
            } => {
                // A sessionful commit: exactly a `CommitAt` plus the
                // retry-table entry that was made durable with it.
                replay.commit(txn, at, record)?;
                committed.push(txn);
                commit_stamps.push((stamp, txn));
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
    let Replay {
        scheduler,
        log,
        live,
        trace,
        ..
    } = replay;

    // The committed transactions whose complete operation sets survived
    // into this log (all of them, absent compaction) and the
    // re-certifiable history.
    let complete = complete_txns(txns, &committed, [&log[..]]);
    let certified: Vec<TxnId> = committed
        .iter()
        .copied()
        .filter(|t| complete[t.index()])
        .collect();
    let history: Vec<OpId> = log
        .iter()
        .copied()
        .filter(|o| complete[o.txn.index()])
        .collect();

    // Step 3: roll back crash-orphaned incarnations.
    for &txn in &live {
        scheduler.abort(txn);
    }

    // Step 4: re-certify the certified history.
    recertify(txns, spec, &certified, &history, certifier)?;

    // Finalize the retry table: only entries whose commit this log
    // proves (a checkpoint entry can outrun its commit record across a
    // torn rotation under deferred fsync), newest req_id per session.
    sessions.retain(|e| committed.contains(&e.txn));
    let sessions = dedupe_sessions(sessions);

    Ok(Recovery {
        records: records.len(),
        valid_bytes: scanned.valid_bytes,
        truncation: scanned.truncation,
        committed,
        commit_stamps,
        shard,
        certified,
        log,
        history,
        seeded_events,
        replayed,
        trace,
        live_aborted: live,
        sessions,
    })
}

/// The one completeness rule: flags (indexed by transaction) the members
/// of `committed` whose **complete** operation set is present across
/// `logs` — what may be certified; a commit with operations missing
/// (compacted away) is certified on no fragment.
fn complete_txns<'a>(
    txns: &TxnSet,
    committed: &[TxnId],
    logs: impl IntoIterator<Item = &'a [OpId]>,
) -> Vec<bool> {
    let mut in_committed = vec![false; txns.len()];
    for &t in committed {
        in_committed[t.index()] = true;
    }
    let mut op_counts = vec![0usize; txns.len()];
    for o in logs.into_iter().flatten() {
        op_counts[o.txn.index()] += 1;
    }
    for t in txns.txn_ids() {
        in_committed[t.index()] &= op_counts[t.index()] == txns.txn(t).len();
    }
    in_committed
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
/// acknowledged state), then replays that segment like [`recover`]. Each
/// candidate is scanned once; the chosen one's scan is what gets replayed.
/// Returns the chosen segment's sequence number alongside the recovery.
///
/// `segments` is `(seq, bytes)` ascending — from
/// [`relser_wal::DirSegmentStore::list`] plus `std::fs::read`, or from
/// [`relser_wal::MemSegmentsHandle::segments`] in tests. A flat
/// (unsegmented) log is the one-segment stream `[(0, bytes)]`.
pub fn recover_segments_with_certifier(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    scheduler: &mut dyn Scheduler,
    segments: &[(u64, Vec<u8>)],
    certifier: Certifier,
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
    Ok((seq, replay_scan(txns, spec, scheduler, scanned, certifier)?))
}

/// What [`recover_sharded_segments_with_certifier`] rebuilt from N
/// per-shard logs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardedRecovery {
    /// The per-shard recoveries, index = shard id.
    pub shards: Vec<Recovery>,
    /// Transactions their owning shard committed, in global commit order
    /// (by `CommitAt` stamp; checkpoint-covered commits, which lost their
    /// stamps to compaction, order first). This is the acknowledged-commit
    /// set of the sharded service.
    pub committed: Vec<TxnId>,
    /// Commits whose operation set is incomplete in their shard's log —
    /// *excluded* from the committed set rather than certified on a
    /// fragment. WAL-before-ack and a shard core's checkpoints (which keep
    /// the events of everything it committed) make this empty on every
    /// log the service writes; it is the detector of a checkpoint that
    /// pruned a committed transaction's operations.
    pub partial: Vec<TxnId>,
    /// The merged committed history: every shard's recovered grant log
    /// filtered to [`ShardedRecovery::committed`] and re-woven into one
    /// program-order-consistent schedule (a transaction lives on one
    /// shard and conflicts are same-shard, so the weave is
    /// conflict-equivalent to the real execution). This is what the
    /// Theorem 1 oracle re-certified whole.
    pub history: Vec<OpId>,
    /// The merged client-session retry table: every shard's rebuilt
    /// entries, filtered to the merged committed set and collapsed to
    /// the newest `req_id` per session.
    pub sessions: Vec<SessionEntry>,
}

/// Recovers a sharded service from its per-shard *segment* streams —
/// `segments[s]` is shard `s`'s retained `(seq, bytes)` list, ascending
/// (a flat per-shard log is the one-segment stream `[(0, bytes)]`); the
/// shard count is `segments.len()`.
///
/// Each shard's stream is recovered independently via
/// [`recover_segments_with_certifier`] — with a fresh scheduler from
/// `make_scheduler(shard)` — then the per-shard views are merged under
/// the ownership rule: a shard commits only transactions it wholly owns
/// ([`ShardMap::owner_of_txn`]). A log is outside input, so the rule is
/// checked, and a log that breaks it is refused
/// ([`RecoveryError::NotOwner`]) — with single-owner transactions the
/// merged RSG is the disjoint union of the per-shard RSGs, and without
/// them per-shard certification does not compose. The merged history is
/// re-certified whole with `certifier` all the same: the offline oracle
/// stays the final arbiter. This is how the supervised service computes
/// its authoritative end-of-run committed history, and how a chaos run
/// proves zero acknowledged-commit loss.
pub fn recover_sharded_segments_with_certifier<'a, F>(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    mut make_scheduler: F,
    segments: &[Vec<(u64, Vec<u8>)>],
    certifier: Certifier,
) -> Result<ShardedRecovery, RecoveryError>
where
    F: FnMut(u32) -> Box<dyn Scheduler + 'a>,
{
    assert!(!segments.is_empty(), "need at least one shard");
    let mut shards: Vec<Recovery> = Vec::with_capacity(segments.len());
    for (s, segs) in segments.iter().enumerate() {
        let mut scheduler = make_scheduler(s as u32);
        let (_, rec) =
            recover_segments_with_certifier(txns, spec, &mut *scheduler, segs, certifier)?;
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
    merge_sharded_recoveries(txns, spec, shards, certifier)
}

/// The second half of sharded recovery: ownership check, completeness
/// demotion, global stamp order, program-order merge, whole
/// re-certification, session-table union.
fn merge_sharded_recoveries(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    shards: Vec<Recovery>,
    certifier: Certifier,
) -> Result<ShardedRecovery, RecoveryError> {
    let map = ShardMap::new(shards.len() as u32);

    // Every commit is its owner's, and carries the global stamp where one
    // survived compaction.
    let mut stamp: Vec<Option<u64>> = vec![None; txns.len()];
    let mut committed: Vec<TxnId> = Vec::new();
    for (s, rec) in shards.iter().enumerate() {
        let shard = s as u32;
        if let Some(&txn) = rec
            .committed
            .iter()
            .find(|&&t| map.owner_of_txn(txns, t) != Some(shard))
        {
            return Err(RecoveryError::NotOwner { shard, txn });
        }
        committed.extend(&rec.committed);
        for &(st, t) in &rec.commit_stamps {
            stamp[t.index()] = Some(st);
        }
    }

    // Defensive completeness: a committed transaction's full op set must
    // be present in the shard logs (guaranteed by WAL-before-ack plus
    // append order within each log; checked anyway — an incomplete one is
    // demoted to partial rather than certified on a fragment).
    let in_committed = complete_txns(txns, &committed, shards.iter().map(|rec| &rec.log[..]));
    let mut partial: Vec<TxnId> = Vec::new();
    committed.retain(|&t| {
        if !in_committed[t.index()] {
            partial.push(t);
        }
        in_committed[t.index()]
    });

    // Global commit order: stamped commits by stamp; unstamped ones (the
    // rare checkpoint-compacted case) first, in id order — they predate
    // every stamped commit on their own shards.
    committed.sort_by_key(|&t| match stamp[t.index()] {
        Some(s) => (1u8, s),
        None => (0u8, t.0 as u64),
    });

    // Merge the per-shard grant logs of the committed set into one
    // schedule and re-certify it whole.
    let shard_logs: Vec<Vec<OpId>> = shards
        .iter()
        .map(|rec| {
            rec.log
                .iter()
                .copied()
                .filter(|o| in_committed[o.txn.index()])
                .collect()
        })
        .collect();
    let history = merge_program_order(txns, &shard_logs)
        .map_err(|e| RecoveryError::InvalidHistory(e.to_string()))?;
    recertify(txns, spec, &committed, &history, certifier)?;

    // Union the per-shard retry tables, restricted to the merged
    // committed set (a demoted-to-partial commit must not promise a
    // verdict the merged history does not contain).
    let mut sessions: Vec<SessionEntry> = shards
        .iter()
        .flat_map(|rec| rec.sessions.iter().copied())
        .collect();
    sessions.retain(|e| in_committed[e.txn.index()]);
    let sessions = dedupe_sessions(sessions);

    Ok(ShardedRecovery {
        shards,
        committed,
        partial,
        history,
        sessions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::FaultPlan;
    use crate::server::{serve, RunOutcome, ServerConfig};
    use relser_protocols::rsg_sgt::RsgSgt;
    use relser_wal::{FsyncPolicy, MemStorage, WalWriter, MAGIC};
    use relser_workload::stream::RequestStream;

    fn universe() -> (TxnSet, AtomicitySpec) {
        let txns = TxnSet::parse(&["w1[x] w1[y]", "r2[x] w2[z]", "r3[y] r3[z]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        (txns, spec)
    }

    /// A clean durable run recovers to the same committed state.
    #[test]
    fn clean_log_recovers_everything() {
        let (txns, spec) = universe();
        let (mem, handle) = MemStorage::new();
        let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let cfg = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let stream = RequestStream::shuffled(&txns, 5);
        let scheduler = RsgSgt::new(&txns, &spec);
        let report = serve(
            &txns,
            &stream,
            Box::new(scheduler),
            &cfg,
            &FaultPlan::default(),
            Some(&mut wal),
        );
        assert_eq!(report.outcome, RunOutcome::Completed);

        let mut fresh = RsgSgt::new(&txns, &spec);
        let rec = recover(&txns, &spec, &mut fresh, &handle.bytes(), Certifier::VClock).unwrap();
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
        let (mem, handle) = MemStorage::new();
        let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let cfg = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let stream = RequestStream::shuffled(&txns, 11);
        let scheduler = RsgSgt::new(&txns, &spec);
        let report = serve(
            &txns,
            &stream,
            Box::new(scheduler),
            &cfg,
            &FaultPlan::default(),
            Some(&mut wal),
        );
        assert_eq!(report.outcome, RunOutcome::Completed);
        let bytes = handle.bytes();
        let mut last_committed = 0;
        for cut in 0..=bytes.len() {
            let mut fresh = RsgSgt::new(&txns, &spec);
            let rec = recover(&txns, &spec, &mut fresh, &bytes[..cut], Certifier::VClock).unwrap();
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
        let mut fresh = RsgSgt::new(&txns, &spec);
        let err = recover(&txns, &spec, &mut fresh, &bytes, Certifier::VClock).unwrap_err();
        assert!(matches!(err, RecoveryError::ForeignRecord { at: 0, .. }));
    }

    /// Garbage bytes recover (to nothing) instead of panicking.
    #[test]
    fn garbage_recovers_to_empty_state() {
        let (txns, spec) = universe();
        let mut fresh = RsgSgt::new(&txns, &spec);
        let rec = recover(&txns, &spec, &mut fresh, &[0xAB; 64], Certifier::VClock).unwrap();
        assert_eq!(rec.records, 0);
        assert_eq!(rec.truncation, Some(Truncation::BadMagic));
        assert!(rec.committed.is_empty());
    }
}
