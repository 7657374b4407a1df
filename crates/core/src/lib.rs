//! # relser-core — Relative Serializability
//!
//! A faithful, executable implementation of
//!
//! > D. Agrawal, J. L. Bruno, A. El Abbadi, V. Krishnaswamy.
//! > *Relative Serializability: An Approach for Relaxing the Atomicity of
//! > Transactions.* PODS 1994.
//!
//! Traditional concurrency control treats each transaction as one atomic
//! unit with respect to every other transaction and accepts exactly the
//! conflict-serializable schedules. When application semantics are known,
//! that is needlessly restrictive: the paper lets a transaction present
//! **different atomicity views to different transactions** — for every
//! ordered pair `(T_i, T_j)` the user partitions `T_i`'s operations into
//! *atomic units* relative to `T_j` ([`spec::AtomicitySpec`]). The paper then
//! develops:
//!
//! * **relatively atomic** schedules (Definition 1) — no operation of `T_j`
//!   interleaves inside an atomic unit of `T_i` relative to `T_j`
//!   ([`classes::is_relatively_atomic`]);
//! * the **depends-on** relation — the transitive closure of program order
//!   and conflicts ([`depends::DependsOn`]);
//! * **relatively serial** schedules (Definition 2) — interleavings inside a
//!   unit are tolerated when no dependency links the intruding operation to
//!   the unit ([`classes::is_relatively_serial`]);
//! * **relatively serializable** schedules — conflict-equivalent to a
//!   relatively serial schedule — recognized in polynomial time by
//!   acyclicity of the **relative serialization graph** ([`rsg::Rsg`],
//!   Definition 3 + Theorem 1), with four arc families: `I` (program
//!   order), `D` (depends-on), `F` (push-forward), `B` (pull-backward).
//!
//! This crate contains the model (§2), the graph test (§3), checkers for
//! every polynomial schedule class of the paper's Figure 5, constructors
//! for the prior-art specification styles it generalizes (Garcia-Molina
//! compatibility sets, Lynch multilevel atomicity), a small text DSL for
//! writing transactions and schedules the way the paper does
//! (`r1[x] w1[x] …`), and executable versions of the paper's Figures 1–4.
//!
//! ## Quick start
//!
//! ```
//! use relser_core::prelude::*;
//!
//! // The three transactions of the paper's Figure 1.
//! let txns = TxnSet::parse(&[
//!     "r1[x] w1[x] w1[z] r1[y]",
//!     "r2[y] w2[y] r2[x]",
//!     "w3[x] w3[y] w3[z]",
//! ]).unwrap();
//!
//! // Relative atomicity: `|` separates atomic units (the six
//! // Atomicity(T_i, T_j) rows of Figure 1).
//! let mut spec = AtomicitySpec::absolute(&txns);
//! spec.set_units_str(&txns, 0, 1, "r1[x] w1[x] | w1[z] r1[y]").unwrap();
//! spec.set_units_str(&txns, 0, 2, "r1[x] w1[x] | w1[z] | r1[y]").unwrap();
//! spec.set_units_str(&txns, 1, 0, "r2[y] | w2[y] r2[x]").unwrap();
//! spec.set_units_str(&txns, 1, 2, "r2[y] w2[y] | r2[x]").unwrap();
//! spec.set_units_str(&txns, 2, 0, "w3[x] w3[y] | w3[z]").unwrap();
//! spec.set_units_str(&txns, 2, 1, "w3[x] w3[y] | w3[z]").unwrap();
//!
//! // The paper's correct-but-non-serial schedule S_ra.
//! let s = txns.parse_schedule(
//!     "r2[y] r1[x] w1[x] w2[y] r2[x] w1[z] w3[x] w3[y] r1[y] w3[z]",
//! ).unwrap();
//!
//! assert!(!s.is_serial());
//! assert!(classify(&txns, &s, &spec).relatively_atomic);
//! let rsg = Rsg::build(&txns, &s, &spec);
//! assert!(rsg.is_acyclic()); // S_ra is relatively serializable
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classes;
pub mod depends;
pub mod error;
pub mod explain;
pub mod expressibility;
pub mod format;
pub mod ids;
pub mod incremental;
pub mod infer;
pub mod op;
pub mod paper;
pub mod project;
pub mod rsg;
pub mod schedule;
pub mod sg;
pub mod shard;
pub mod spec;
pub mod spec_builders;
pub mod txn;
pub mod vclock;

/// One-stop imports for downstream crates, tests, and examples.
pub mod prelude {
    pub use crate::classes::{classify, ClassReport};
    pub use crate::depends::DependsOn;
    pub use crate::error::{Error, Result};
    pub use crate::ids::{ObjectId, OpId, TxnId};
    pub use crate::incremental::{AdmitError, CompactionPolicy, IncrementalRsg, RsgDelta};
    pub use crate::op::{AccessMode, Operation};
    pub use crate::project::Projection;
    pub use crate::rsg::{ArcKinds, Rsg};
    pub use crate::schedule::Schedule;
    pub use crate::sg::SerializationGraph;
    pub use crate::shard::ShardMap;
    pub use crate::spec::AtomicitySpec;
    pub use crate::spec_builders::{compatibility_sets, multilevel, MultilevelSpec};
    pub use crate::txn::{Transaction, TxnSet};
    pub use crate::vclock::{self, CertifierStats, CycleWitness, VClockCertifier, Verdict};
}

pub use prelude::*;
