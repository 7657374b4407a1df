//! Layer probes: each times one layer's public functions from outside,
//! on the traced round's own inputs — the messages the client sent, the
//! core trace the server recorded, the WAL bytes it left behind. They
//! run after the round, on the benchmark's thread, so they cost the
//! traced run wall clock but never sit inside a timed interval.

use crate::round::Round;
use crate::sut::{self, Input, Replay};
use std::time::Instant;

pub struct Probes {
    /// `net::wire` request encode / decode, ns per message.
    pub wire_encode_ns: f64,
    pub wire_decode_ns: f64,
    /// `relser_frame` encode / decode (CRC-32 included), ns per frame.
    pub frame_encode_ns: f64,
    pub frame_decode_ns: f64,
    /// Two-thread `push_wait`/`pop_batch` through `BoundedQueue`, ns per
    /// item, as many items as the round queued commands.
    pub queue_transfer_ns: f64,
    /// A fresh `RsgSgt` replaying the round's recorded core trace.
    pub replay: Replay,
    /// `SegmentedWal` append (no syncs) and `scan`, ns per record.
    pub wal_append_ns: f64,
    pub wal_scan_ns: f64,
    /// `(name, start, end)` of each probe, ns since the epoch.
    pub spans: Vec<(&'static str, u64, u64)>,
}

pub fn run(input: &Input, round: &Round, epoch: Instant) -> std::io::Result<Probes> {
    let mut spans = Vec::new();
    let mut timed = |name: &'static str, start: Instant| {
        let since = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        spans.push((name, since(start), since(Instant::now())));
    };

    let requests = sut::clean_requests(input);
    let t = Instant::now();
    let (wire_encode_ns, wire_decode_ns) = sut::probe_wire(&requests);
    timed("probe net.wire", t);

    let t = Instant::now();
    let (frame_encode_ns, frame_decode_ns) = sut::probe_frame(&requests);
    timed("probe frame", t);

    let items = (round.report.net.metrics.commands as usize).max(1);
    let t = Instant::now();
    let queue_transfer_ns = sut::probe_queue(items);
    timed("probe server.queue", t);

    let t = Instant::now();
    let replay = sut::replay_scheduler(input, &round.report.trace);
    timed("probe protocols.rsg_sgt", t);

    let t = Instant::now();
    let (wal_append_ns, wal_scan_ns) = match &round.recovered {
        Some(rec) => {
            let (append, scan, _) = sut::probe_wal(&rec.segments)?;
            (append, scan)
        }
        None => (0.0, 0.0),
    };
    timed("probe wal", t);

    Ok(Probes {
        wire_encode_ns,
        wire_decode_ns,
        frame_encode_ns,
        frame_decode_ns,
        queue_transfer_ns,
        replay,
        wal_append_ns,
        wal_scan_ns,
        spans,
    })
}
