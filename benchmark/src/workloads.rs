//! The five workloads. Names are final: later issues cite them.
//!
//! Every workload is closed-loop. A run is many *rounds*: one round
//! starts a fresh server on one generated set, drives every transaction
//! to commit, stops the server and recovers from its log. The service
//! certifies a fixed `TxnSet` whose `AtomicitySpec` is O(n²) in the set
//! size, so a long run is many rounds over a small pool of sets rather
//! than one big set.

use crate::client::Shape;
use crate::sut::{self, Input};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sets {
    /// 1 024 single-record read-modify-write transactions.
    Rmw,
    /// The long-lived mix under the generator's relative spec.
    LongRelative,
    /// The same long-lived sets under the absolute spec.
    LongAbsolute,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub sets: Sets,
    pub shape: Shape,
    /// Sets generated per run; set `i` uses seed `seed · pool + i` for
    /// its transactions, its spec and its arrival order.
    pub pool: u64,
    /// `serve_net` over the modelled disk instead of the supervised
    /// in-memory shape.
    pub modelled_disk: bool,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "pingpong",
        sets: Sets::Rmw,
        shape: Shape {
            connections: 1,
            streams: 1,
        },
        pool: 4,
        modelled_disk: false,
        why: "one request in flight: every request pays the whole idle path \
              (socket, decode, queue, admit, reply, socket) with nothing to batch",
    },
    Workload {
        name: "saturate",
        sets: Sets::Rmw,
        shape: Shape {
            connections: 1,
            streams: 32,
        },
        pool: 4,
        modelled_disk: false,
        why: "32 pipelined streams on the pingpong sets: queue transfer, batch drain, \
              reply coalescing and core CPU do the work, the idle path none",
    },
    Workload {
        name: "longlived_rel",
        sets: Sets::LongRelative,
        shape: Shape {
            connections: 2,
            streams: 3,
        },
        pool: 16,
        modelled_disk: false,
        why: "the paper's section 5 regime under its relative spec: long transactions \
              pin live RSG state, so certification dominates",
    },
    Workload {
        name: "longlived_abs",
        sets: Sets::LongAbsolute,
        shape: Shape {
            connections: 2,
            streams: 3,
        },
        pool: 16,
        modelled_disk: false,
        why: "the same long-lived sets under the absolute spec (classical \
              serializability, Lemma 1): the other side of the paper's comparison",
    },
    Workload {
        name: "durable",
        sets: Sets::Rmw,
        shape: Shape {
            connections: 1,
            streams: 32,
        },
        pool: 4,
        modelled_disk: true,
        why: "saturate's traffic on a log device with a fixed 200 us sync: \
              the difference to saturate is the WAL layer",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Generates the run's pool from `seed` alone.
pub fn generate_pool(w: &Workload, seed: u64) -> Vec<Input> {
    (0..w.pool)
        .map(|i| {
            let set_seed = seed.wrapping_mul(w.pool).wrapping_add(i);
            match w.sets {
                Sets::Rmw => sut::gen_rmw(set_seed),
                Sets::LongRelative => sut::gen_longlived(set_seed, true),
                Sets::LongAbsolute => sut::gen_longlived(set_seed, false),
            }
        })
        .collect()
}
