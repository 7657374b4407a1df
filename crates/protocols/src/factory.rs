//! Scheduler factories: name ↔ constructor indirection for harnesses.
//!
//! The model checker (`relser-check`), the fault-injection sweeps, and
//! the benches all need to create *many* fresh scheduler instances of a
//! protocol chosen at runtime — one per explored path. [`SchedulerKind`]
//! packages the constructor choice as plain data so a harness can be
//! parameterized by protocol without generics or `dyn`-builder plumbing.

use crate::altruistic::AltruisticLocking;
use crate::rsg_sgt::RsgSgt;
use crate::sgt::ConflictSgt;
use crate::two_pl::TwoPhaseLocking;
use crate::unit_locking::UnitLocking;
use crate::Scheduler;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;

/// A protocol selector: knows how to build a fresh [`Scheduler`] over a
/// universe and what correctness class the protocol claims.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Strict two-phase locking.
    TwoPl,
    /// Conflict serialization-graph testing.
    Sgt,
    /// The paper's RSG-based SGT (incremental engine).
    RsgSgt,
    /// Unit-boundary locking.
    UnitLocking,
    /// Altruistic locking.
    Altruistic,
    /// The deliberately broken RSG-SGT driven by a *transposed*
    /// `Atomicity` relation (the relation is directional; the bug swaps
    /// the observer). Test-only: exists so the model checker can
    /// demonstrate it catches a planted bug.
    #[cfg(feature = "planted-bug")]
    PlantedSwappedRsg,
}

impl SchedulerKind {
    /// The five production protocols, in a stable report order.
    pub fn all() -> [SchedulerKind; 5] {
        [
            SchedulerKind::TwoPl,
            SchedulerKind::Sgt,
            SchedulerKind::RsgSgt,
            SchedulerKind::UnitLocking,
            SchedulerKind::Altruistic,
        ]
    }

    /// A short stable name (matches [`Scheduler::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::TwoPl => "2PL",
            SchedulerKind::Sgt => "SGT",
            SchedulerKind::RsgSgt => "RSG-SGT",
            SchedulerKind::UnitLocking => "UnitLocking",
            SchedulerKind::Altruistic => "Altruistic",
            #[cfg(feature = "planted-bug")]
            SchedulerKind::PlantedSwappedRsg => "RSG-SGT-swapped(planted bug)",
        }
    }

    /// Does the protocol claim *conflict* serializability (the stronger
    /// class)? Protocols that only claim relative serializability return
    /// `false`; harnesses use this to pick the right offline oracle.
    pub fn claims_conflict_serializable(&self) -> bool {
        match self {
            SchedulerKind::TwoPl | SchedulerKind::Sgt | SchedulerKind::Altruistic => true,
            SchedulerKind::RsgSgt | SchedulerKind::UnitLocking => false,
            #[cfg(feature = "planted-bug")]
            SchedulerKind::PlantedSwappedRsg => false,
        }
    }

    /// Builds a fresh scheduler over `txns` / `spec`.
    pub fn make(&self, txns: &TxnSet, spec: &AtomicitySpec) -> Box<dyn Scheduler + Send> {
        match self {
            SchedulerKind::TwoPl => Box::new(TwoPhaseLocking::new(txns)),
            SchedulerKind::Sgt => Box::new(ConflictSgt::new(txns)),
            SchedulerKind::RsgSgt => Box::new(RsgSgt::new(txns, spec)),
            SchedulerKind::UnitLocking => Box::new(UnitLocking::new(txns, spec)),
            SchedulerKind::Altruistic => Box::new(AltruisticLocking::new(txns)),
            #[cfg(feature = "planted-bug")]
            SchedulerKind::PlantedSwappedRsg => {
                Box::new(crate::planted::SwappedSpecRsgSgt::new(txns, spec))
            }
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relser_core::paper::Figure1;

    #[test]
    fn factories_build_schedulers_with_matching_names() {
        let fig = Figure1::new();
        for kind in SchedulerKind::all() {
            let s = kind.make(&fig.txns, &fig.spec);
            assert_eq!(s.name(), kind.name(), "{kind:?}");
        }
    }

    #[test]
    fn csr_claims_cover_the_lock_based_protocols() {
        assert!(SchedulerKind::TwoPl.claims_conflict_serializable());
        assert!(SchedulerKind::Sgt.claims_conflict_serializable());
        assert!(!SchedulerKind::RsgSgt.claims_conflict_serializable());
        assert!(!SchedulerKind::UnitLocking.claims_conflict_serializable());
    }
}
