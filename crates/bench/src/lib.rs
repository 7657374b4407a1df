//! # relser-bench — experiment harness
//!
//! Two entry points:
//!
//! * the **`paper-tables` binary** (`cargo run -p relser-bench --bin
//!   paper-tables -- <e1..e12|all>`) prints every experiment of
//!   `EXPERIMENTS.md` — the executable counterpart of each figure and
//!   claim in the PODS'94 paper;
//! * the **benches** (`cargo bench -p relser-bench`) measure the
//!   complexity claims (polynomial RSG test vs exponential Farrag–Özsu
//!   search) and the protocol suite on the dependency-free [`harness`]
//!   (the build environment has no crates.io access, so Criterion is
//!   replaced by an in-tree harness with a compatible call surface).
//!
//! All experiment logic lives in [`experiments`] as pure functions
//! returning formatted tables, so the unit tests can assert the *content*
//! of every experiment, not just that it runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod table;
