//! Network chaos: seeded client-side socket faults for robustness runs.
//!
//! A [`ChaosPlan`] turns the resilient load driver into an adversary.
//! Before each batch of request bytes goes out, a deterministic draw
//! (seeded per connection) may inject one of the classic TCP failure
//! modes:
//!
//! * **reset** — the socket is closed abruptly, requests unsent; the
//!   server sees EOF mid-conversation and must degrade only that
//!   connection;
//! * **torn write** — a frame is cut mid-bytes and the socket closed;
//!   the server's decoder must park the prefix as *incomplete* and the
//!   EOF must not corrupt anything;
//! * **stall (slowloris)** — one byte is sent, then the connection goes
//!   silent for a while before delivering the rest; the server must
//!   neither block other connections nor misparse the resumed frame.
//!
//! Every fault is followed by the client's normal recovery protocol —
//! reconnect, `Hello` with the same session id, retry unacknowledged
//! commits under their original request ids — which is exactly the
//! machinery the chaos sweep exists to prove exactly-once.
//!
//! Server-side chaos (reply drops, shard-core kill-at-k) rides on the
//! existing [`FaultPlan`](relser_server::FaultPlan) per shard core; this
//! module only manufactures *wire* trouble.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// What the chaos dice said to do to the next write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFault {
    /// Deliver the bytes untouched.
    None,
    /// Close the socket abruptly without sending.
    Reset,
    /// Send a prefix that ends mid-frame, then close.
    TornWrite,
    /// Send one byte, stall, then deliver the rest.
    Stall,
}

/// Seeded plan of client-side wire faults, plus the stall length.
///
/// Probabilities are per *flush* (one batch of encoded requests), in
/// units of 1/10_000 so integer configs stay exact. The default plan is
/// inert; [`ChaosPlan::stormy`] is the preset the chaos sweep uses.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Base seed; each connection folds its id in, so a fleet of
    /// connections misbehaves deterministically but not in lockstep.
    pub seed: u64,
    /// Probability (per 10k) of an abrupt close before a flush.
    pub reset_per_10k: u32,
    /// Probability (per 10k) of a mid-frame torn write.
    pub torn_per_10k: u32,
    /// Probability (per 10k) of a slowloris stall.
    pub stall_per_10k: u32,
    /// How long a stalled connection stays silent mid-frame.
    pub stall: Duration,
    /// Stop injecting after this many faults per connection (so a run
    /// always finishes; 0 = unlimited).
    pub max_faults: u32,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan {
            seed: 0,
            reset_per_10k: 0,
            torn_per_10k: 0,
            stall_per_10k: 0,
            stall: Duration::from_millis(5),
            max_faults: 0,
        }
    }
}

impl ChaosPlan {
    /// No faults at all.
    pub fn quiet() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// The chaos-sweep preset: all three fault classes, frequent enough
    /// to fire many times per run, bounded so the run terminates.
    pub fn stormy(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            reset_per_10k: 150,
            torn_per_10k: 150,
            stall_per_10k: 100,
            stall: Duration::from_millis(2),
            max_faults: 25,
        }
    }

    /// The per-connection dice for connection `conn`.
    pub fn dice(&self, conn: u64) -> ChaosDice {
        ChaosDice {
            rng: StdRng::seed_from_u64(self.seed ^ conn.rotate_left(17) ^ 0x5EED_C4A0),
            reset: self.reset_per_10k,
            torn: self.torn_per_10k,
            stall: self.stall_per_10k,
            budget: self.max_faults,
            spent: 0,
        }
    }
}

/// One connection's deterministic fault stream.
pub struct ChaosDice {
    rng: StdRng,
    reset: u32,
    torn: u32,
    stall: u32,
    budget: u32,
    spent: u32,
}

impl ChaosDice {
    /// Rolls for the next flush. Always advances the RNG exactly once so
    /// the stream stays aligned whatever the outcome.
    pub fn roll(&mut self) -> WireFault {
        let draw: u32 = self.rng.random_range(0..10_000);
        if self.budget != 0 && self.spent >= self.budget {
            return WireFault::None;
        }
        let fault = if draw < self.reset {
            WireFault::Reset
        } else if draw < self.reset + self.torn {
            WireFault::TornWrite
        } else if draw < self.reset + self.torn + self.stall {
            WireFault::Stall
        } else {
            WireFault::None
        };
        if fault != WireFault::None {
            self.spent += 1;
        }
        fault
    }

    /// Where to cut a torn write: strictly inside `len` bytes (at least
    /// 1 byte sent, at least 1 byte withheld). `len` must be ≥ 2.
    pub fn tear_at(&mut self, len: usize) -> usize {
        self.rng.random_range(1..len)
    }

    /// Faults injected so far.
    pub fn spent(&self) -> u32 {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_faults() {
        let mut dice = ChaosPlan::quiet().dice(3);
        for _ in 0..1000 {
            assert_eq!(dice.roll(), WireFault::None);
        }
        assert_eq!(dice.spent(), 0);
    }

    #[test]
    fn rolls_are_deterministic_per_seed_and_connection() {
        let plan = ChaosPlan::stormy(42);
        let a: Vec<WireFault> = {
            let mut d = plan.dice(1);
            (0..500).map(|_| d.roll()).collect()
        };
        let b: Vec<WireFault> = {
            let mut d = plan.dice(1);
            (0..500).map(|_| d.roll()).collect()
        };
        assert_eq!(a, b, "same seed, same connection, same stream");
        let c: Vec<WireFault> = {
            let mut d = plan.dice(2);
            (0..500).map(|_| d.roll()).collect()
        };
        assert_ne!(a, c, "different connections decorrelate");
    }

    #[test]
    fn stormy_plan_respects_its_fault_budget() {
        let plan = ChaosPlan::stormy(7);
        let mut dice = plan.dice(0);
        let mut faults = 0;
        for _ in 0..100_000 {
            if dice.roll() != WireFault::None {
                faults += 1;
            }
        }
        assert!(faults > 0, "a stormy plan fires");
        assert!(
            faults <= plan.max_faults,
            "budget respected: {faults} <= {}",
            plan.max_faults
        );
    }

    #[test]
    fn tear_points_stay_strictly_inside_the_buffer() {
        let mut dice = ChaosPlan::stormy(9).dice(4);
        for len in 2..64 {
            for _ in 0..10 {
                let at = dice.tear_at(len);
                assert!(at >= 1 && at < len, "tear {at} inside 1..{len}");
            }
        }
    }
}
