//! The repo's benchmark: five closed-loop workloads over the real TCP
//! service, nine end-to-end metrics, per-layer probes and a traced run.
//! See `README.md` beside this crate for why each piece is the way it
//! is; `sut.rs` is the only file that calls into the program.

pub mod client;
pub mod disk;
pub mod metrics;
pub mod probes;
pub mod round;
pub mod run;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;
