//! The recovery lockstep: the scheduler recovery hands back against one
//! that replayed the log.
//!
//! Recovery calls no scheduler method: the fresh scheduler it was handed
//! is the recovered one, because a scheduler that replayed the log and
//! rolled back the transactions it left live holds only committed
//! transactions that no live transaction reaches (`relser_server::recovery`,
//! step 3). [`recovery_lockstep`] checks that claim from the outside after
//! a recovery: it builds the reference — a fresh scheduler fed the
//! recovered log through `begin`/`request`/`commit`/`abort`
//! ([`relser_server::replay`] over [`Recovery::trace`]), then the aborts of
//! [`Recovery::live_aborted`] — and runs the transactions the log left
//! uncommitted through both schedulers at once, on closed-loop streams
//! ([`crate::preload::closed_loop_trace`]). Every request must be decided
//! alike.

use crate::preload::closed_loop_trace;
use relser_core::ids::{OpId, TxnId};
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::{Decision, Scheduler, SchedulerKind};
use relser_server::recovery::Recovery;
use relser_server::{replay, TraceEvent};

/// Streams in flight in a lockstep's continuation.
pub const LOCKSTEP_STREAMS: usize = 3;

/// Two schedulers fed the same calls; answers with the first's decision
/// and keeps the first request on which the second answered otherwise.
struct Pair<'r, 'a> {
    recovered: &'r mut dyn Scheduler,
    replayed: Box<dyn Scheduler + Send + 'a>,
    divergence: Option<String>,
}

impl Scheduler for Pair<'_, '_> {
    fn name(&self) -> &'static str {
        "recovery-lockstep"
    }

    fn begin(&mut self, txn: TxnId) {
        self.recovered.begin(txn);
        self.replayed.begin(txn);
    }

    fn request(&mut self, op: OpId) -> Decision {
        let got = self.recovered.request(op);
        let want = self.replayed.request(op);
        if got != want && self.divergence.is_none() {
            self.divergence = Some(format!(
                "{op:?}: the recovered scheduler answered {got:?}, the replayed one {want:?}"
            ));
        }
        got
    }

    fn commit(&mut self, txn: TxnId) {
        self.recovered.commit(txn);
        self.replayed.commit(txn);
    }

    fn abort(&mut self, txn: TxnId) {
        self.recovered.abort(txn);
        self.replayed.abort(txn);
    }
}

/// Runs `pending` — transactions `rec` left uncommitted, in arrival order
/// — through `recovered` (the scheduler recovery hands back, untouched)
/// and through a fresh `kind` scheduler that replayed `rec`'s log, in
/// lockstep; see the module docs. Returns the requests decided alike, or
/// the first that was not (or why the replay itself failed).
pub fn recovery_lockstep(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    recovered: &mut dyn Scheduler,
    rec: &Recovery,
    pending: &[TxnId],
) -> Result<u64, String> {
    let mut replayed = kind.make(txns, spec);
    replay(&mut *replayed, &rec.trace).map_err(|e| format!("replaying the log: {e}"))?;
    for &t in &rec.live_aborted {
        replayed.abort(t);
    }
    let mut pair = Pair {
        recovered,
        replayed,
        divergence: None,
    };
    let trace = closed_loop_trace(txns, pending, LOCKSTEP_STREAMS, &mut pair);
    match pair.divergence {
        Some(d) => Err(d),
        None => Ok(trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Decision(..)))
            .count() as u64),
    }
}
