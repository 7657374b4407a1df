//! # relser-protocols — online concurrency control
//!
//! The paper closes §3 with: *"The relative serialization graph … can be
//! used as the basis for a concurrency control protocol similar to
//! serialization graph testing"*, and §5 motivates the whole model with
//! the concurrency gains available to long-lived transactions and
//! collaborative workloads. This crate makes those claims measurable by
//! implementing six online schedulers behind one [`Scheduler`] trait:
//!
//! | scheduler | class of admitted histories |
//! |-----------|------------------------------|
//! | [`two_pl::TwoPhaseLocking`] | conflict serializable (strict 2PL) |
//! | [`sgt::ConflictSgt`] | conflict serializable (serialization-graph testing) |
//! | [`rsg_sgt::RsgSgt`] | **relatively serializable** — the paper's proposal |
//! | [`altruistic::AltruisticLocking`] | conflict serializable, long transactions donate finished objects \[SGMA87\] |
//! | [`compat::CompatSet2Pl`] | relatively serializable under a compatibility-set spec \[Gar83\] |
//! | [`unit_locking::UnitLocking`] | relatively serializable — locks released at common unit boundaries |
//!
//! Protocols are pure decision procedures: they answer
//! [`Decision::Granted`], [`Decision::Blocked`], or [`Decision::Aborted`]
//! per operation request and never retry internally. The deterministic
//! [`driver`] replays workloads against a scheduler, handles restarts, and
//! returns the committed history as a [`relser_core::Schedule`] so every
//! produced history can be re-checked offline against the definitional
//! checkers — which the property tests do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod altruistic;
pub mod chaos;
pub mod compat;
pub mod driver;
pub mod factory;
pub mod lock_table;
#[cfg(feature = "planted-bug")]
pub mod planted;
pub mod rsg_sgt;
pub mod sgt;
pub mod two_pl;
pub mod unit_locking;

pub use factory::SchedulerKind;

use relser_core::ids::{OpId, TxnId};

/// Why a scheduler aborted a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// A lock-based scheduler found the requester on a waits-for cycle.
    Deadlock,
    /// A graph-testing scheduler found that granting would close a cycle.
    CycleRejected,
    /// A fault-injection layer aborted the transaction (never produced by
    /// a real protocol; see `relser-server`'s `FaultPlan`).
    Injected,
    /// The request arrived for a transaction whose information the
    /// scheduler has already retired (committed and reclaimed). A stale
    /// or duplicate request — the session degrades, the core is fine.
    /// Also the answer to a request that breaks program order, which
    /// leaves the incarnation as it was.
    Retired,
}

/// A scheduler's answer to one operation request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The operation may execute now.
    Granted,
    /// The operation must wait; `on` lists the transactions being waited
    /// for (informational, used by the driver for fairness accounting).
    Blocked {
        /// Transactions currently blocking the requester.
        on: Vec<TxnId>,
    },
    /// The requesting transaction must abort and restart from scratch.
    Aborted(AbortReason),
}

/// An online concurrency-control protocol.
///
/// The driver guarantees the call discipline: `begin` before any
/// `request`; requests of one transaction arrive in program order; each
/// granted prefix ends with either `commit` (after the last operation) or
/// `abort`; after `abort`, the transaction may `begin` again (a restart
/// replays the same operations).
///
/// `Send` is a supertrait so a scheduler can be moved into a dedicated
/// admission thread (the single-writer core of `relser-server`). All
/// access is `&mut self` — schedulers are single-writer by construction
/// and never need `Sync` or internal locking. Every implementor in this
/// crate is plain owned data (no `Rc`, no thread-local handles), so the
/// bound is satisfied structurally; new implementors must keep it that
/// way.
pub trait Scheduler: Send {
    /// A short stable name for reports (e.g. `"2PL"`, `"RSG-SGT"`).
    fn name(&self) -> &'static str;

    /// A transaction (incarnation) starts.
    fn begin(&mut self, txn: TxnId);

    /// The transaction requests its next operation.
    fn request(&mut self, op: OpId) -> Decision;

    /// The transaction commits (all its operations were granted).
    fn commit(&mut self, txn: TxnId);

    /// The transaction aborts; the scheduler must forget its effects.
    fn abort(&mut self, txn: TxnId);

    /// Has the scheduler retired (committed and reclaimed) `txn`, so that
    /// no further requests for it can be served? Schedulers without a
    /// retirement concept keep the default `false`.
    fn retired(&self, _txn: TxnId) -> bool {
        false
    }
}
