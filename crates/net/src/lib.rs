//! # relser-net — a real TCP front-end for the admission service
//!
//! `relser-server` turned the RSG schedulers into an in-process service:
//! session threads enqueue commands, a single-writer admission core
//! applies them in queue order. This crate puts a **wire** in front of
//! the same machinery: real sockets, a binary framed protocol, and a
//! reactor that multiplexes N client connections onto the one command
//! queue — so the serialization point, the WAL discipline, and the
//! offline certification story are *unchanged*; only the clients moved
//! out of the process.
//!
//! The layers:
//!
//! * [`wire`] — length-prefixed, CRC-32-framed requests/responses over
//!   the shared [`relser_frame`] codec (the same framing the WAL uses on
//!   disk), with client-chosen request ids for **pipelining**;
//! * `conn` (internal) — the per-connection state machine: validate
//!   requests against the transaction set, submit commands, drive each
//!   one's [`relser_server::Flight`] (the per-operation state machine the
//!   in-process sessions drive too: blocked-retry, waits-for timeout,
//!   reply watchdog) to its verdict, and map
//!   queue overload onto the socket ([`OverloadPolicy::Wait`] pauses
//!   reads → TCP backpressure; `Shed` answers an explicit
//!   [`wire::Response::Shed`]);
//! * `reactor` (internal) — the readiness loop, one thread per reactor,
//!   sockets handed over by an acceptor thread: passes over its
//!   nonblocking connections while any has work, then blocks in
//!   `poll(2)` ([`relser_poll`]) on the sockets, on the doorbell the
//!   admission core rings once per released batch, and on the nearest
//!   real deadline — an idle server makes no wake-ups;
//! * [`server`] — [`serve_net`] wires listener, reactors, and the
//!   admission core under one `thread::scope`;
//! * [`client`] — [`drive_resilient`], the one loopback client: N
//!   sessionful connections × K pipelined transaction streams speaking
//!   the full restart protocol, reconnecting and resuming on a lost
//!   socket, with seeded wire faults from a [`ChaosPlan`];
//! * [`metrics`] — **wire-to-wire latency accounting**: every request is
//!   timed per stage (decode → queue wait → admit → WAL fsync → reply)
//!   plus end-to-end, all as mergeable [`LatencyHistogram`]s reported as
//!   p50/p99/p999 in [`NetReport::stages`].
//!
//! ## Failure philosophy
//!
//! A connection degrades alone: corrupt frames, malformed requests, lost
//! replies, and dead sockets abort that connection's live transactions
//! through the ordinary command queue and close that socket — the other
//! connections keep committing, and the committed history still passes
//! `Rsg::build(..).is_acyclic()` re-certification (the e2e tests hold
//! the server to exactly that, faults included).
//!
//! ```no_run
//! use relser_core::rsg::Rsg;
//! use relser_core::schedule::Schedule;
//! use relser_protocols::rsg_sgt::RsgSgt;
//! use relser_net::{drive_resilient, serve_net, ChaosPlan, NetConfig, ResilientConfig};
//! use relser_server::core::FaultPlan;
//! use relser_workload::banking::{banking, BankingConfig};
//! use relser_workload::stream::RequestStream;
//!
//! let sc = banking(&BankingConfig::default(), 42);
//! let scheduler = Box::new(RsgSgt::new(&sc.txns, &sc.spec));
//! let stream = RequestStream::shuffled(&sc.txns, 7);
//! let load = ResilientConfig::default();
//! let (report, stats) = serve_net(
//!     &sc.txns,
//!     scheduler,
//!     &NetConfig::default(),
//!     &FaultPlan::default(),
//!     None,
//!     |addr| drive_resilient(addr, &sc.txns, &stream, &load, &ChaosPlan::quiet()),
//! )
//! .unwrap();
//! assert_eq!(stats.committed.len(), sc.txns.len());
//! let history = Schedule::new(&sc.txns, report.log).unwrap();
//! assert!(Rsg::build(&sc.txns, &history, &sc.spec).is_acyclic());
//! ```
//!
//! [`OverloadPolicy::Wait`]: relser_server::OverloadPolicy::Wait
//! [`LatencyHistogram`]: relser_simdb::metrics::LatencyHistogram
//! [`NetReport::stages`]: metrics::NetReport::stages

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
mod conn;
pub mod metrics;
mod reactor;
pub mod server;
pub mod wire;

pub use chaos::{ChaosDice, ChaosPlan, WireFault};
pub use client::{drive_resilient, ResilientConfig, ResilientStats};
pub use metrics::{NetMetrics, NetReport};
pub use server::{
    serve_net, serve_net_supervised_in, NetConfig, SuperviseNetConfig, SupervisedNetReport,
};
pub use wire::{ErrorCode, ReqId, Request, Response, WireError};
