//! # relser-workload — workload & specification generators
//!
//! Seeded, reproducible generators for the universes the reproduction's
//! tests, examples, and benchmarks run on:
//!
//! * [`random`] — random transaction sets (whole-universe, or shard-local
//!   for a sharded service: one owning shard per transaction), relative
//!   atomicity specifications, schedules, and conflict-equivalent
//!   shuffles, with uniform or Zipf object popularity ([`zipf`]);
//! * [`banking`] — the banking scenario the paper (after Lynch \[Lyn83\])
//!   uses to motivate relative atomicity: customers grouped into families
//!   sharing accounts, family-scoped *credit audits*, and a global *bank
//!   audit* that must stay absolutely atomic;
//! * [`cad`] — the computer-aided-design scenario: teams of specialized
//!   experts with free interleaving inside a team and phase-boundary
//!   atomicity across teams;
//! * [`longlived`] — long-lived transactions à la altruistic locking
//!   \[SGMA87\]: one long scan exposing per-step breakpoints amid short
//!   absolute transactions;
//! * [`stream`] — the open-system adapter: a seeded arrival order over a
//!   transaction set that server worker threads drain concurrently
//!   (one atomic fetch per claim).
//!
//! All generators take explicit seeds (`StdRng::seed_from_u64`), so every
//! experiment in EXPERIMENTS.md is reproducible run-to-run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banking;
pub mod cad;
pub mod longlived;
pub mod random;
pub mod stream;
pub mod zipf;

pub use random::{
    conflict_equivalent_shuffle, random_schedule, random_spec, random_txns, shard_local_txns,
    RandomConfig,
};
