//! # relser-bench — experiment harness
//!
//! Three entry points:
//!
//! * the **`paper-tables` binary** (`cargo run -p relser-bench --bin
//!   paper-tables -- <e1..e12|a1..a4|all>`) prints every experiment of
//!   `EXPERIMENTS.md` — the executable counterpart of each figure and
//!   claim in the PODS'94 paper;
//! * the **`incremental` bench** (A3: per-request RSG rebuild vs the
//!   incremental engine, writes `BENCH_rsg_sgt.json`) and the **`net`
//!   bench** (the TCP front-end over loopback, writes `BENCH_net.json`),
//!   both on the dependency-free [`harness`];
//! * the **`prof_engine` example**, the engine's cost split when no
//!   system profiler is available.
//!
//! The service's performance is judged by the repo benchmark
//! (`BENCHMARK.json`, `benchmark/`), not by anything here.
//!
//! All experiment logic lives in [`experiments`] as pure functions
//! returning formatted tables, so the unit tests can assert the *content*
//! of every experiment, not just that it runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod streams;
pub mod table;
