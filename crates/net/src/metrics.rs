//! Wire-to-wire latency accounting and the combined run report.
//!
//! Every request that crosses the server is timed per stage:
//!
//! | stage    | where measured                 | histogram                |
//! |----------|--------------------------------|--------------------------|
//! | `decode` | reactor: frame → [`Request`]   | [`NetMetrics::decode`]   |
//! | `queue`  | core: enqueue → dequeue        | `ServerMetrics::queue_wait` |
//! | `admit`  | core: `Scheduler::request`     | [`NetReport::admit`]     |
//! | `fsync`  | WAL: durability barrier        | `ServerMetrics::wal_sync` |
//! | `reply`  | reactor: decision → bytes sent | [`NetMetrics::reply`]    |
//!
//! plus the end-to-end `wire` histogram (request bytes read off the
//! socket → response bytes written back to it), which bounds the sum.
//! [`NetReport::stages`] assembles the table; the bench harness
//! serializes its p50/p99/p999 columns into `BENCH_net.json`.
//!
//! [`Request`]: crate::wire::Request

use relser_core::ids::{OpId, TxnId};
use relser_server::core::TraceEvent;
use relser_server::ServerMetrics;
use relser_simdb::metrics::LatencyHistogram;
use std::fmt;

/// Reactor-side counters and stage histograms, merged across reactor
/// threads at the end of a run.
#[derive(Clone, Debug, Default)]
pub struct NetMetrics {
    /// Connections accepted.
    pub connections: u64,
    /// Requests decoded off the wire.
    pub requests: u64,
    /// Responses written back.
    pub responses: u64,
    /// Operation requests answered [`Shed`](crate::wire::Response::Shed)
    /// (full queue under the shed policy).
    pub sheds: u64,
    /// Commands deferred on a full queue under the wait policy — each
    /// deferral pauses the connection's reads, turning admission
    /// backpressure into TCP backpressure.
    pub deferrals: u64,
    /// Blocked operations re-submitted after a progress epoch advance.
    pub retries: u64,
    /// Server-side waits-for timeouts (the connection's transaction was
    /// aborted and the client told to restart it).
    pub timeout_aborts: u64,
    /// Connections closed for a corrupt frame or malformed request.
    pub bad_frame_closes: u64,
    /// Connections closed because the admission core never answered one
    /// of their requests (reply watchdog).
    pub reply_lost_closes: u64,
    /// Sessions opened ([`Hello`](crate::wire::Request::Hello) accepted).
    pub hellos: u64,
    /// Requests answered
    /// [`Recovering`](crate::wire::Response::Recovering): their shard's
    /// core was down mid-supervised-restart, nothing was enqueued, the
    /// client retries.
    pub recovering_replies: u64,
    /// Retried commits answered straight from the session retry table —
    /// the original verdict re-sent without touching the admission core.
    pub dup_commit_fast: u64,
    /// [`Closing`](crate::wire::Response::Closing) notices sent
    /// (graceful-shutdown broadcasts plus per-request refusals).
    pub closing_replies: u64,
    /// Responses encoded for a connection whose peer was gone before
    /// their bytes left. They reached no client, so they are counted here
    /// and kept out of the `reply` and `wire` histograms.
    pub undelivered_responses: u64,
    /// Times a reactor blocked in `poll(2)` — one per wake-up. An idle
    /// server stops counting; a reactor spinning on a socket it will not
    /// read would count without bound.
    pub reactor_waits: u64,
    /// Of those waits, the ones a doorbell ended (the core released a
    /// batch or bumped the progress epoch, the acceptor handed over a
    /// socket, the server stopped) — the rest were socket events and
    /// deadlines.
    pub doorbell_wakes: u64,
    /// Frame decode + request parse latency.
    pub decode: LatencyHistogram,
    /// Decision-taken → response-bytes-on-the-socket latency.
    pub reply: LatencyHistogram,
    /// End-to-end: request bytes read → response bytes written.
    pub wire: LatencyHistogram,
}

impl NetMetrics {
    /// Folds another reactor's metrics into this one (counters sum,
    /// histograms merge element-wise).
    pub fn merge(&mut self, other: &NetMetrics) {
        self.connections += other.connections;
        self.requests += other.requests;
        self.responses += other.responses;
        self.sheds += other.sheds;
        self.deferrals += other.deferrals;
        self.retries += other.retries;
        self.timeout_aborts += other.timeout_aborts;
        self.bad_frame_closes += other.bad_frame_closes;
        self.reply_lost_closes += other.reply_lost_closes;
        self.hellos += other.hellos;
        self.recovering_replies += other.recovering_replies;
        self.dup_commit_fast += other.dup_commit_fast;
        self.closing_replies += other.closing_replies;
        self.undelivered_responses += other.undelivered_responses;
        self.reactor_waits += other.reactor_waits;
        self.doorbell_wakes += other.doorbell_wakes;
        self.decode.merge(&other.decode);
        self.reply.merge(&other.reply);
        self.wire.merge(&other.wire);
    }
}

impl fmt::Display for NetMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "net: conns={} requests={} responses={} sheds={} deferrals={} retries={}",
            self.connections,
            self.requests,
            self.responses,
            self.sheds,
            self.deferrals,
            self.retries
        )?;
        writeln!(
            f,
            "net closes: bad_frame={} reply_lost={} timeout_aborts={} undelivered={}",
            self.bad_frame_closes,
            self.reply_lost_closes,
            self.timeout_aborts,
            self.undelivered_responses
        )?;
        writeln!(
            f,
            "net reactor: waits={} doorbell_wakes={}",
            self.reactor_waits, self.doorbell_wakes
        )?;
        write!(
            f,
            "net sessions: hellos={} recovering={} dup_commit_fast={} closing={}",
            self.hellos, self.recovering_replies, self.dup_commit_fast, self.closing_replies
        )
    }
}

/// Everything one [`serve_net`](crate::serve_net) run produced.
#[derive(Debug)]
pub struct NetReport {
    /// Transactions committed, in commit order.
    pub committed: Vec<TxnId>,
    /// Granted operations of live/committed incarnations, grant order.
    /// Filtered to `committed` this is the committed history — feed it
    /// to `Rsg::build(..).is_acyclic()` for offline re-certification.
    pub log: Vec<OpId>,
    /// Core-order event trace (empty unless trace recording is on).
    pub trace: Vec<TraceEvent>,
    /// The admission core fail-stopped (WAL failure or planned crash).
    pub crashed: bool,
    /// Core/queue-side metrics (includes the `queue` and `fsync` stage
    /// histograms).
    pub metrics: ServerMetrics,
    /// Reactor-side metrics (includes the `decode`, `reply`, and `wire`
    /// stage histograms).
    pub net: NetMetrics,
    /// Pure scheduler decision cost as a histogram (the `admit` stage;
    /// `metrics.decision` summarizes the same samples).
    pub admit: LatencyHistogram,
}

impl NetReport {
    /// The per-stage latency table in pipeline order: `(stage, histogram)`.
    pub fn stages(&self) -> [(&'static str, &LatencyHistogram); 6] {
        [
            ("decode", &self.net.decode),
            ("queue", &self.metrics.queue_wait),
            ("admit", &self.admit),
            ("fsync", &self.metrics.wal_sync),
            ("reply", &self.net.reply),
            ("wire", &self.net.wire),
        ]
    }
}

impl fmt::Display for NetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.net)?;
        writeln!(
            f,
            "{:<8} {:>12} {:>12} {:>12} {:>10}",
            "stage", "p50", "p99", "p999", "samples"
        )?;
        for (name, h) in self.stages() {
            writeln!(
                f,
                "{:<8} {:>10}ns {:>10}ns {:>10}ns {:>10}",
                name,
                h.p50_ns(),
                h.p99_ns(),
                h.p999_ns(),
                h.count()
            )?;
        }
        write!(f, "{}", self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = NetMetrics {
            connections: 2,
            requests: 10,
            ..NetMetrics::default()
        };
        a.decode.record(100);
        let mut b = NetMetrics {
            connections: 1,
            requests: 5,
            sheds: 3,
            ..NetMetrics::default()
        };
        b.decode.record(200);
        b.wire.record(1_000);
        a.merge(&b);
        assert_eq!(a.connections, 3);
        assert_eq!(a.requests, 15);
        assert_eq!(a.sheds, 3);
        assert_eq!(a.decode.count(), 2);
        assert_eq!(a.wire.count(), 1);
    }
}
