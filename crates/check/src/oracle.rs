//! The offline oracle suite: everything a finished (or partial)
//! execution is checked against.
//!
//! Theorem 1 makes relative serializability polynomially decidable, so
//! every online protocol has an exact ground truth: the committed
//! history's RSG must be acyclic. On top of that single source of truth
//! the suite layers the class-lattice containments of Figure 5, the
//! stronger conflict-serializability claim of the lock-based protocols,
//! and exact [`TraceEvent`] replay through the server core's replay
//! machinery — four independent ways an execution can disagree with the
//! paper, each reported as a typed [`Divergence`].

use relser_core::classes::classify;
use relser_core::ids::{OpId, TxnId};
use relser_core::project::Projection;
use relser_core::rsg::Rsg;
use relser_core::sg::is_conflict_serializable;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock;
use relser_protocols::SchedulerKind;
use relser_server::{replay, TraceEvent};

/// What disagreed. `detail` is a human-readable elaboration; `kind`
/// names the oracle that fired.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which oracle fired.
    pub kind: DivergenceKind,
    /// The explorer's choice sequence reaching the failing execution
    /// (one entry per step; empty for server fault runs).
    pub path: Vec<TxnId>,
    /// The committed transactions of the failing execution.
    pub committed: Vec<TxnId>,
    /// The committed history (original-universe ops, grant order).
    pub history: Vec<OpId>,
    /// Human-readable elaboration.
    pub detail: String,
}

/// The oracle that detected a divergence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The committed history is not a valid schedule over the committed
    /// sub-universe (permutation / program-order violation).
    InvalidHistory,
    /// Theorem 1: the committed history's RSG has a cycle — the history
    /// is not relatively serializable.
    CyclicRsg,
    /// A Figure 5 lattice containment failed on the committed history.
    ContainmentViolation,
    /// A protocol claiming conflict serializability committed a
    /// non-conflict-serializable history.
    NotConflictSerializable,
    /// A lockstep shadow scheduler answered differently than the primary.
    ShadowMismatch,
    /// Deterministic replay of the recorded trace did not reproduce the
    /// execution's log.
    ReplayMismatch,
    /// The linear-time vector-clock certifier disagreed with the Theorem 1
    /// `Rsg` oracle on the committed history — the two independent
    /// implementations of the same predicate diverged.
    CertifierMismatch,
}

impl DivergenceKind {
    /// Stable short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DivergenceKind::InvalidHistory => "invalid-history",
            DivergenceKind::CyclicRsg => "cyclic-rsg",
            DivergenceKind::ContainmentViolation => "containment-violation",
            DivergenceKind::NotConflictSerializable => "not-conflict-serializable",
            DivergenceKind::ShadowMismatch => "shadow-mismatch",
            DivergenceKind::ReplayMismatch => "replay-mismatch",
            DivergenceKind::CertifierMismatch => "certifier-mismatch",
        }
    }
}

/// One finished (or partial) execution, as recorded by the explorer or a
/// server fault run.
#[derive(Clone, Debug, Default)]
pub struct ExecutionRecord {
    /// Explorer choice sequence (empty for server runs).
    pub path: Vec<TxnId>,
    /// Transactions committed, in commit order.
    pub committed: Vec<TxnId>,
    /// Granted ops of live/committed incarnations, grant order.
    pub log: Vec<OpId>,
    /// The replayable event trace.
    pub trace: Vec<TraceEvent>,
    /// A lockstep shadow mismatch observed during execution, if any.
    pub shadow_mismatch: Option<String>,
}

/// Runs the whole oracle suite over one execution of `kind` on
/// `(txns, spec)`. Returns every divergence found (empty = clean).
pub fn check_execution(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    exec: &ExecutionRecord,
) -> Vec<Divergence> {
    let mut out = Vec::new();
    let committed_log: Vec<OpId> = exec
        .log
        .iter()
        .copied()
        .filter(|o| exec.committed.contains(&o.txn))
        .collect();
    let diverge = |kind, detail: String| Divergence {
        kind,
        path: exec.path.clone(),
        committed: exec.committed.clone(),
        history: committed_log.clone(),
        detail,
    };

    if let Some(msg) = exec.shadow_mismatch.as_ref() {
        out.push(diverge(DivergenceKind::ShadowMismatch, msg.clone()));
    }

    // Theorem 1 + lattice oracles over the committed sub-universe.
    if !exec.committed.is_empty() {
        match Projection::subset(txns, spec, &exec.committed) {
            Err(e) => out.push(diverge(DivergenceKind::InvalidHistory, e.to_string())),
            Ok(p) => match p.schedule(&committed_log) {
                Err(e) => out.push(diverge(DivergenceKind::InvalidHistory, e.to_string())),
                Ok(schedule) => {
                    let rsg = Rsg::build(&p.txns, &schedule, &p.spec);
                    // Third backend: the linear-time vector-clock certifier
                    // must reach the same verdict as the explicit graph.
                    let verdict = vclock::certify(&p.txns, &schedule, &p.spec);
                    if verdict.is_acyclic() != rsg.is_acyclic() {
                        out.push(diverge(
                            DivergenceKind::CertifierMismatch,
                            format!(
                                "vclock certifier says {} but Rsg says {} on `{}`",
                                if verdict.is_acyclic() {
                                    "accept"
                                } else {
                                    "reject"
                                },
                                if rsg.is_acyclic() { "accept" } else { "reject" },
                                schedule.display(&p.txns)
                            ),
                        ));
                    }
                    if !rsg.is_acyclic() {
                        let cycle = rsg
                            .find_cycle()
                            .map(|c| {
                                c.iter()
                                    .map(|&o| p.txns.display_op(o))
                                    .collect::<Vec<_>>()
                                    .join(" -> ")
                            })
                            .unwrap_or_default();
                        out.push(diverge(
                            DivergenceKind::CyclicRsg,
                            format!(
                                "committed history `{}` is not relatively serializable; \
                                 RSG cycle: {cycle}",
                                schedule.display(&p.txns)
                            ),
                        ));
                    }
                    let report = classify(&p.txns, &schedule, &p.spec);
                    if !report.containments_hold() {
                        out.push(diverge(
                            DivergenceKind::ContainmentViolation,
                            format!("lattice containment violated: {report:?}"),
                        ));
                    }
                    if kind.claims_conflict_serializable()
                        && !is_conflict_serializable(&p.txns, &schedule)
                    {
                        out.push(diverge(
                            DivergenceKind::NotConflictSerializable,
                            format!(
                                "{} claims CSR but committed `{}`",
                                kind.name(),
                                schedule.display(&p.txns)
                            ),
                        ));
                    }
                }
            },
        }
    }

    // Exact deterministic replay through the server-core replay machinery:
    // a fresh scheduler fed the recorded trace must reproduce both every
    // decision and the final log (live incarnations included).
    if !exec.trace.is_empty() {
        let mut fresh = kind.make(txns, spec);
        match replay(&mut *fresh, &exec.trace) {
            Err(e) => out.push(diverge(DivergenceKind::ReplayMismatch, e.to_string())),
            Ok(log) => {
                if log != exec.log {
                    out.push(diverge(
                        DivergenceKind::ReplayMismatch,
                        format!(
                            "replay log has {} ops, execution log has {}",
                            log.len(),
                            exec.log.len()
                        ),
                    ));
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relser_core::paper::Figure2;

    #[test]
    fn clean_serial_execution_passes() {
        let fig = Figure2::new();
        let serial = fig
            .txns
            .serial_schedule(&[TxnId(0), TxnId(1), TxnId(2)])
            .unwrap();
        let exec = ExecutionRecord {
            committed: fig.txns.txn_ids().collect(),
            log: serial.ops().to_vec(),
            ..Default::default()
        };
        assert!(check_execution(&fig.txns, &fig.spec, SchedulerKind::RsgSgt, &exec).is_empty());
    }

    #[test]
    fn cyclic_committed_history_is_flagged() {
        // The planted-bug refutation: the history the swapped-spec engine
        // wrongly commits, whose true RSG is cyclic.
        let (txns, spec) = relser_protocols::planted::refutation_universe();
        let exec = ExecutionRecord {
            committed: txns.txn_ids().collect(),
            log: relser_protocols::planted::refutation_schedule(&txns)
                .ops()
                .to_vec(),
            ..Default::default()
        };
        let ds = check_execution(&txns, &spec, SchedulerKind::PlantedSwappedRsg, &exec);
        assert!(
            ds.iter().any(|d| d.kind == DivergenceKind::CyclicRsg),
            "{ds:?}"
        );
        // Both certification backends reject — they may not disagree.
        assert!(
            !ds.iter()
                .any(|d| d.kind == DivergenceKind::CertifierMismatch),
            "vclock and Rsg must agree on the refutation history: {ds:?}"
        );
        assert!(ds[0].detail.contains("RSG cycle"));
    }

    #[test]
    fn partial_commit_checks_only_the_committed_projection() {
        let fig = Figure2::new();
        // Only T2 committed; T1 and T3 left live ops in the log.
        let s1 = fig.s_1();
        let exec = ExecutionRecord {
            committed: vec![TxnId(1)],
            log: s1.ops().to_vec(),
            ..Default::default()
        };
        assert!(check_execution(&fig.txns, &fig.spec, SchedulerKind::RsgSgt, &exec).is_empty());
    }
}
