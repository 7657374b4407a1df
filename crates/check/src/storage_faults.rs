//! Storage fault injection against the durable server (`fault-fs`).
//!
//! The WAL's own tests hammer the *scanner* with arbitrary bytes; this
//! module hammers the whole durability loop — write path, fsync policy,
//! crash, recovery, re-certification — with two instruments:
//!
//! * [`FaultFs`] — a [`Storage`] shim that fails an append mid-write
//!   (leaving a torn tail), fails an fsync, or silently flips a bit as
//!   the bytes land, while tracking the synced watermark that models
//!   what a real disk still holds after power loss;
//! * [`crash_point_sweep`] — the headline harness. It runs the durable
//!   server to completion, then crashes it *everywhere*: the log is cut
//!   at every byte offset (covering every record boundary and every torn
//!   tail), bit-flipped at every byte, and re-run live against `FaultFs`
//!   failures — once driven by live sessions and once re-driven from a
//!   pre-loaded queue in multi-command batches
//!   ([`crate::preload::redrive_preloaded`]), so the failing write or
//!   barrier lands inside the group-commit window (records appended,
//!   barrier pending, acks held). Every recovery must succeed, pass the
//!   full offline oracle suite of [`crate::oracle::check_execution`], and
//!   — under [`FsyncPolicy::Always`] — preserve every acknowledged
//!   commit.
//!
//! The invariant this buys on top of the fault sweeps in
//! [`crate::faults`]: **no storage failure can lose an acknowledged
//! commit or make recovery bless a non-relatively-serializable history.**
//!
//! [`checkpoint_crash_sweep`] runs the same discipline against the
//! *segmented, checkpointing* log ([`relser_wal::SegmentedWal`]): cuts
//! and flips land across checkpoint and segment boundaries (including
//! inside the head checkpoint frame, modelling a crash mid-rotation),
//! live runs crash the core between rotations, and recovery must seed
//! from the surviving checkpoint without losing an acknowledged commit.

use crate::oracle::{check_execution, Divergence, ExecutionRecord};
use crate::preload::redrive_preloaded;
use relser_core::ids::TxnId;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::SchedulerKind;
use relser_server::recovery::{recover, recover_segments_with_certifier, Certifier, Recovery};
use relser_server::{serve, FaultPlan, RunOutcome, ServeReport, ServerConfig};
use relser_wal::{
    CheckpointPolicy, FsyncPolicy, MemSegmentStore, MemStorage, SegmentedWal, Storage, WalWriter,
};
use relser_workload::stream::RequestStream;
use std::io;
use std::sync::{Arc, Mutex};

/// Knobs for one [`FaultFs`] instance. Ordinals are 0-based; `None`
/// disables that fault.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultFsConfig {
    /// This append call (call 0 is the file header, then one per batch)
    /// fails. The writer (and so the core) fail-stops.
    pub fail_append_at: Option<u64>,
    /// How many bytes of the failing append still reach the buffer
    /// before the error — the torn tail a real crash leaves behind; it
    /// may hold whole valid frames of the batch that was never synced.
    pub torn_bytes: usize,
    /// Silently flip bit `b` of global byte offset `o` as it is written
    /// (bit rot / a misdirected write the writer never notices).
    pub bit_flip: Option<(u64, u8)>,
    /// This sync call fails (call 0 is the header sync under `Always`,
    /// then one per batch that logged anything).
    pub fail_sync_at: Option<u64>,
}

struct FaultInner {
    bytes: Vec<u8>,
    synced: usize,
}

/// A fault-injecting in-memory [`Storage`]: behaves like
/// [`MemStorage`] until a configured ordinal, then fails exactly the way
/// the [`FaultFsConfig`] says. The synced watermark only advances on a
/// *successful* sync, so [`FaultFsHandle::synced_bytes`] is what a
/// power-lossed disk still holds.
pub struct FaultFs {
    inner: Arc<Mutex<FaultInner>>,
    cfg: FaultFsConfig,
    appends: u64,
    syncs: u64,
}

/// Reader handle onto a [`FaultFs`] buffer (shared with the writer).
#[derive(Clone)]
pub struct FaultFsHandle {
    inner: Arc<Mutex<FaultInner>>,
}

impl FaultFs {
    /// A fresh faulty store and its reader handle.
    pub fn new(cfg: FaultFsConfig) -> (FaultFs, FaultFsHandle) {
        let inner = Arc::new(Mutex::new(FaultInner {
            bytes: Vec::new(),
            synced: 0,
        }));
        (
            FaultFs {
                inner: Arc::clone(&inner),
                cfg,
                appends: 0,
                syncs: 0,
            },
            FaultFsHandle { inner },
        )
    }
}

impl FaultFsHandle {
    /// Everything ever written (including unsynced and torn tails).
    pub fn bytes(&self) -> Vec<u8> {
        self.inner.lock().expect("faultfs lock").bytes.clone()
    }

    /// The durable prefix: bytes covered by the last successful sync —
    /// what survives a power loss.
    pub fn synced_bytes(&self) -> Vec<u8> {
        let inner = self.inner.lock().expect("faultfs lock");
        inner.bytes[..inner.synced].to_vec()
    }
}

impl Storage for FaultFs {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let n = self.appends;
        self.appends += 1;
        let mut inner = self.inner.lock().expect("faultfs lock");
        if self.cfg.fail_append_at == Some(n) {
            let keep = self.cfg.torn_bytes.min(bytes.len());
            let slice = &bytes[..keep];
            inner.bytes.extend_from_slice(slice);
            return Err(io::Error::other("injected append failure (torn tail)"));
        }
        let start = inner.bytes.len() as u64;
        inner.bytes.extend_from_slice(bytes);
        if let Some((off, bit)) = self.cfg.bit_flip {
            if off >= start && off < inner.bytes.len() as u64 {
                inner.bytes[off as usize] ^= 1 << (bit % 8);
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let n = self.syncs;
        self.syncs += 1;
        if self.cfg.fail_sync_at == Some(n) {
            return Err(io::Error::other("injected fsync failure"));
        }
        let mut inner = self.inner.lock().expect("faultfs lock");
        inner.synced = inner.bytes.len();
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.lock().expect("faultfs lock").bytes.len() as u64
    }
}

/// The sweep grid: which protocols/seeds to log, and which live storage
/// faults to inject on top of the exhaustive offline cuts.
#[derive(Clone, Debug)]
pub struct CrashSweepConfig {
    /// Protocols to sweep.
    pub kinds: Vec<SchedulerKind>,
    /// Arrival-order seeds (one clean durable run each).
    pub seeds: Vec<u64>,
    /// Append ordinals to fail live (each with every `torn_bytes` value).
    pub fail_appends: Vec<u64>,
    /// Torn-tail lengths for the failing append.
    pub torn_bytes: Vec<usize>,
    /// Sync ordinals to fail live.
    pub fail_syncs: Vec<u64>,
    /// Session worker threads per live run.
    pub workers: usize,
}

impl Default for CrashSweepConfig {
    fn default() -> Self {
        CrashSweepConfig {
            kinds: vec![SchedulerKind::RsgSgt],
            seeds: vec![1, 2],
            fail_appends: vec![0, 2, 5, 9],
            torn_bytes: vec![0, 1, 5],
            fail_syncs: vec![0, 3, 7],
            workers: 3,
        }
    }
}

/// What the sweep observed. [`CrashSweepReport::clean`] is the pass/fail.
#[derive(Debug, Default)]
pub struct CrashSweepReport {
    /// Clean durable runs whose logs were swept.
    pub runs: u64,
    /// Offline crash points recovered (one per byte offset per log).
    pub crash_points: u64,
    /// Single-bit corruptions recovered (one per byte per log).
    pub bit_flips: u64,
    /// Live [`FaultFs`] runs (each crashed the core mid-run).
    pub live_faults: u64,
    /// Recoveries oracle-checked through [`check_execution`].
    pub oracle_checked: u64,
    /// Acknowledged commits verified present after recovery.
    pub acked_commits_checked: u64,
    /// Acknowledged commits a recovery failed to produce (must be 0).
    pub lost_commits: u64,
    /// Pre-loaded re-drives whose core reported a committed list other
    /// than the commits its clients were acknowledged (must be 0: after a
    /// fail-stop `CoreOutput::committed` holds acknowledged commits only).
    pub report_ack_mismatches: u64,
    /// Recoveries that errored (must be 0 — every cut/flip/fault leaves
    /// a recoverable log).
    pub failed_recoveries: u64,
    /// Committed-count regressions across increasing cut points (must
    /// be 0: a longer surviving log never recovers fewer commits).
    pub monotonicity_violations: u64,
    /// Checkpoints cut by the swept runs (only [`checkpoint_crash_sweep`]
    /// produces any; it requires at least one per run to be meaningful).
    pub checkpoints: u64,
    /// Recoveries that seeded from a checkpoint rather than replaying
    /// from the start of history.
    pub seeded_recoveries: u64,
    /// Oracle divergences (count; storage capped like the fault sweep).
    pub divergence_count: u64,
    /// The first divergences found.
    pub divergences: Vec<Divergence>,
}

impl CrashSweepReport {
    /// Did every crash point recover cleanly with nothing lost?
    pub fn clean(&self) -> bool {
        self.divergence_count == 0
            && self.lost_commits == 0
            && self.report_ack_mismatches == 0
            && self.failed_recoveries == 0
            && self.monotonicity_violations == 0
    }
}

/// Runs the crash-point sweep over one universe; see the module docs.
/// Everything uses [`FsyncPolicy::Always`], the policy whose contract
/// ("zero acknowledged commits lost, ever") is checkable pointwise.
pub fn crash_point_sweep(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    cfg: &CrashSweepConfig,
) -> CrashSweepReport {
    let mut report = CrashSweepReport::default();
    for &kind in &cfg.kinds {
        for &seed in &cfg.seeds {
            let server_cfg = ServerConfig {
                workers: cfg.workers,
                record_trace: true,
                ..ServerConfig::default()
            };
            // One clean durable run produces the log the offline passes cut up.
            let (mem, handle) = MemStorage::new();
            let mut wal =
                WalWriter::new(Box::new(mem), FsyncPolicy::Always).expect("MemStorage never fails");
            let run = serve_one(txns, spec, kind, &server_cfg, seed, &mut wal);
            if run.outcome != RunOutcome::Completed {
                // A failed faultless run is a server bug the plain fault
                // sweep reports; the storage sweep just skips the log.
                continue;
            }
            report.runs += 1;
            let bytes = handle.bytes();

            // Pass 1: cut the log at every byte — every record boundary
            // and every torn-tail length in between.
            let mut prev_commits = 0usize;
            for cut in 0..=bytes.len() {
                report.crash_points += 1;
                let Some(rec) = try_recover(txns, spec, kind, &bytes[..cut], &mut report) else {
                    continue;
                };
                if rec.committed.len() < prev_commits {
                    report.monotonicity_violations += 1;
                }
                prev_commits = rec.committed.len();
                // Oracle-check the boundary cuts (where the recovered
                // state is a genuine acknowledged prefix; mid-frame cuts
                // recover the same states a nearby boundary already checks).
                if rec.truncation.is_none() {
                    oracle_check(txns, spec, kind, &rec, &mut report);
                }
            }
            // The full log must recover the full run.
            check_acked_commits(&run.committed, &bytes, txns, spec, kind, &mut report);

            // Pass 2: flip one bit in every byte — recovery must survive
            // (truncating at the damage), never panic, never forge state.
            for byte in 0..bytes.len() {
                report.bit_flips += 1;
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << (byte % 8);
                let _ = try_recover(txns, spec, kind, &corrupt, &mut report);
            }

            // Pass 3: live FaultFs runs — the storage fails mid-run, the
            // core fail-stops, and the synced watermark must still hold
            // every commit the crashed run acknowledged.
            let mut live: Vec<FaultFsConfig> = Vec::new();
            for &a in &cfg.fail_appends {
                for &t in &cfg.torn_bytes {
                    live.push(FaultFsConfig {
                        fail_append_at: Some(a),
                        torn_bytes: t,
                        ..FaultFsConfig::default()
                    });
                }
            }
            for &s in &cfg.fail_syncs {
                live.push(FaultFsConfig {
                    fail_sync_at: Some(s),
                    ..FaultFsConfig::default()
                });
            }
            for fs_cfg in live {
                for preloaded in [false, true] {
                    report.live_faults += 1;
                    let (fs, fs_handle) = FaultFs::new(fs_cfg);
                    let mut wal = match WalWriter::new(Box::new(fs), FsyncPolicy::Always) {
                        Ok(w) => w,
                        // Header append/sync already failed: nothing was
                        // ever acknowledged, and the empty synced prefix
                        // recovers to the empty state below.
                        Err(_) => {
                            let durable = fs_handle.synced_bytes();
                            let _ = try_recover(txns, spec, kind, &durable, &mut report);
                            continue;
                        }
                    };
                    let acked = if preloaded {
                        // The clean run again, in exact batches of
                        // `PRELOAD_BATCH_MAX` commands, so the fault cuts
                        // a batch with appended records and held acks.
                        let redrive = redrive_preloaded(
                            kind.make(txns, spec),
                            &run.trace,
                            &[],
                            &FaultPlan::default(),
                            &mut wal,
                            None,
                        );
                        report.report_ack_mismatches +=
                            u64::from(redrive.out.committed != redrive.acked);
                        redrive.acked
                    } else {
                        serve_one(txns, spec, kind, &server_cfg, seed, &mut wal).committed
                    };
                    check_acked_commits(
                        &acked,
                        &fs_handle.synced_bytes(),
                        txns,
                        spec,
                        kind,
                        &mut report,
                    );
                }
            }
        }
    }
    report
}

/// The checkpointed-sweep grid: like [`CrashSweepConfig`] but the runs
/// log through a [`SegmentedWal`] with an aggressive checkpoint cadence,
/// so every log swept contains rotations, and recovery must seed from
/// checkpoints instead of replaying history from the beginning.
#[derive(Clone, Debug)]
pub struct CheckpointSweepConfig {
    /// Protocols to sweep.
    pub kinds: Vec<SchedulerKind>,
    /// Arrival-order seeds (one clean durable run each).
    pub seeds: Vec<u64>,
    /// Checkpoint every N records (small → several rotations per run).
    pub every_records: u64,
    /// Command ordinals at which to crash the core live, mid-run.
    pub crash_commands: Vec<u64>,
    /// Session worker threads per live run.
    pub workers: usize,
}

impl Default for CheckpointSweepConfig {
    fn default() -> Self {
        CheckpointSweepConfig {
            kinds: vec![SchedulerKind::RsgSgt],
            seeds: vec![1, 2],
            every_records: 4,
            crash_commands: vec![3, 7, 13, 21],
            workers: 3,
        }
    }
}

/// The crash-point sweep across **checkpoint and segment boundaries**:
/// every run logs through a [`SegmentedWal`] that rotates every
/// `every_records` records, and the sweep then
///
/// 1. cuts the surviving segment at every byte (covering the head
///    checkpoint frame itself — a cut inside it models a crash
///    mid-rotation, and recovery must fall back without failing),
/// 2. flips one bit in every byte,
/// 3. re-runs live with the core crashing at configured command
///    ordinals, recovering from the durable segment prefixes,
/// 4. replays torn-rotation states `[full segment, torn next head]`,
///    which must fall back to the full segment and lose nothing.
///
/// Everything under [`FsyncPolicy::Always`]: zero acknowledged commits
/// lost, every recovery oracle-clean over its certified history.
pub fn checkpoint_crash_sweep(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    cfg: &CheckpointSweepConfig,
) -> CrashSweepReport {
    let ckpt_policy = CheckpointPolicy {
        every_records: cfg.every_records,
        every_bytes: u64::MAX,
    };
    let mut report = CrashSweepReport::default();
    for &kind in &cfg.kinds {
        for &seed in &cfg.seeds {
            let server_cfg = ServerConfig {
                workers: cfg.workers,
                record_trace: true,
                ..ServerConfig::default()
            };
            let (store, handle) = MemSegmentStore::new();
            let mut wal = SegmentedWal::new(Box::new(store), FsyncPolicy::Always, ckpt_policy)
                .expect("MemSegmentStore never fails");
            let stream = RequestStream::shuffled(txns, seed);
            let run = serve(
                txns,
                &stream,
                kind.make(txns, spec),
                &server_cfg,
                &FaultPlan::default(),
                Some(&mut wal),
            );
            if run.outcome != RunOutcome::Completed {
                continue;
            }
            report.runs += 1;
            report.checkpoints += run.checkpoints;
            let segments = handle.synced_segments();
            // Rotation deletes covered segments, so the durable set is
            // the newest segment (plus, mid-rotation, its predecessor).
            let (last_seq, last_bytes) = segments.last().cloned().expect("segment 0 always exists");

            // The full durable set recovers the full run, nothing lost.
            check_acked_segments(&run.committed, &segments, txns, spec, kind, &mut report);

            // Pass 1: cut the newest segment at every byte.
            let prior: Vec<(u64, Vec<u8>)> = segments[..segments.len() - 1].to_vec();
            let mut prev_commits = 0usize;
            for cut in 0..=last_bytes.len() {
                report.crash_points += 1;
                let mut cut_segs = prior.clone();
                cut_segs.push((last_seq, last_bytes[..cut].to_vec()));
                let Some((_, rec)) = try_recover_segments(txns, spec, kind, &cut_segs, &mut report)
                else {
                    continue;
                };
                if rec.committed.len() < prev_commits {
                    report.monotonicity_violations += 1;
                }
                prev_commits = rec.committed.len();
                report.seeded_recoveries += u64::from(rec.seeded_events > 0);
                if rec.truncation.is_none() && !rec.committed.is_empty() {
                    oracle_check(txns, spec, kind, &rec, &mut report);
                }
            }

            // Pass 2: flip one bit in every byte of the newest segment.
            for byte in 0..last_bytes.len() {
                report.bit_flips += 1;
                let mut corrupt = last_bytes.clone();
                corrupt[byte] ^= 1 << (byte % 8);
                let mut segs = prior.clone();
                segs.push((last_seq, corrupt));
                let _ = try_recover_segments(txns, spec, kind, &segs, &mut report);
            }

            // Pass 3: torn rotation — a crash after the next segment was
            // created but before its head checkpoint went durable leaves
            // `[full, torn head]`; recovery must fall back to the full
            // segment and still hold every acknowledged commit.
            for torn_len in [0usize, 4, 9, 24] {
                let mut segs = segments.clone();
                segs.push((
                    last_seq + 1,
                    last_bytes[..torn_len.min(last_bytes.len())].to_vec(),
                ));
                check_acked_segments(&run.committed, &segs, txns, spec, kind, &mut report);
            }

            // Pass 4: live core crashes mid-run — driven by live sessions
            // and re-driven from a pre-loaded queue in multi-command
            // batches, where the crash command sits *inside* a batch whose
            // earlier records are appended and whose acks are held. The
            // durable segment prefixes must still hold every commit the
            // crashed run acknowledged.
            for &at in &cfg.crash_commands {
                for preloaded in [false, true] {
                    report.live_faults += 1;
                    let (store, handle) = MemSegmentStore::new();
                    let mut wal =
                        SegmentedWal::new(Box::new(store), FsyncPolicy::Always, ckpt_policy)
                            .expect("MemSegmentStore never fails");
                    let faults = FaultPlan {
                        crash_at_command: Some(at),
                        ..FaultPlan::default()
                    };
                    let (acked, checkpoints) = if preloaded {
                        let redrive = redrive_preloaded(
                            kind.make(txns, spec),
                            &run.trace,
                            &[],
                            &faults,
                            &mut wal,
                            None,
                        );
                        report.report_ack_mismatches +=
                            u64::from(redrive.out.committed != redrive.acked);
                        (redrive.acked, redrive.out.checkpoints)
                    } else {
                        let stream = RequestStream::shuffled(txns, seed);
                        let crashed = serve(
                            txns,
                            &stream,
                            kind.make(txns, spec),
                            &server_cfg,
                            &faults,
                            Some(&mut wal),
                        );
                        (crashed.committed, crashed.checkpoints)
                    };
                    report.checkpoints += checkpoints;
                    check_acked_segments(
                        &acked,
                        &handle.synced_segments(),
                        txns,
                        spec,
                        kind,
                        &mut report,
                    );
                }
            }
        }
    }
    report
}

/// Segment-set flavor of [`try_recover`].
fn try_recover_segments(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    segments: &[(u64, Vec<u8>)],
    report: &mut CrashSweepReport,
) -> Option<(u64, Recovery)> {
    let mut fresh = kind.make(txns, spec);
    match recover_segments_with_certifier(txns, spec, &mut *fresh, segments, Certifier::VClock) {
        Ok(out) => Some(out),
        Err(_) => {
            report.failed_recoveries += 1;
            None
        }
    }
}

/// Segment-set flavor of [`check_acked_commits`].
fn check_acked_segments(
    acked: &[TxnId],
    segments: &[(u64, Vec<u8>)],
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    report: &mut CrashSweepReport,
) {
    let Some((_, rec)) = try_recover_segments(txns, spec, kind, segments, report) else {
        report.lost_commits += acked.len() as u64;
        return;
    };
    report.seeded_recoveries += u64::from(rec.seeded_events > 0);
    for t in acked {
        report.acked_commits_checked += 1;
        if !rec.committed.contains(t) {
            report.lost_commits += 1;
        }
    }
    oracle_check(txns, spec, kind, &rec, report);
}

/// One durable server run against `wal`.
fn serve_one(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    server_cfg: &ServerConfig,
    seed: u64,
    wal: &mut WalWriter,
) -> ServeReport {
    let stream = RequestStream::shuffled(txns, seed);
    serve(
        txns,
        &stream,
        kind.make(txns, spec),
        server_cfg,
        &FaultPlan::default(),
        Some(wal),
    )
}

/// Recovers `bytes` into a fresh scheduler, counting failures.
fn try_recover(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    bytes: &[u8],
    report: &mut CrashSweepReport,
) -> Option<Recovery> {
    let mut fresh = kind.make(txns, spec);
    match recover(txns, spec, &mut *fresh, bytes, Certifier::VClock) {
        Ok(rec) => Some(rec),
        Err(_) => {
            report.failed_recoveries += 1;
            None
        }
    }
}

/// The zero-acknowledged-commit-loss check: every commit the (possibly
/// crashed) run acknowledged must come back from recovering
/// `durable_bytes`, and the recovered state must pass the oracle suite.
fn check_acked_commits(
    acked: &[TxnId],
    durable_bytes: &[u8],
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    report: &mut CrashSweepReport,
) {
    let Some(rec) = try_recover(txns, spec, kind, durable_bytes, report) else {
        report.lost_commits += acked.len() as u64;
        return;
    };
    for t in acked {
        report.acked_commits_checked += 1;
        if !rec.committed.contains(t) {
            report.lost_commits += 1;
        }
    }
    oracle_check(txns, spec, kind, &rec, report);
}

/// Pushes a recovered state through the full offline oracle suite.
///
/// The Theorem 1 / lattice oracles need complete per-transaction op
/// sets, so they run over [`Recovery::certified`] — committed
/// transactions the recovered log fully contains. Without checkpoints
/// that is all of `committed`; with them, checkpoint-retired commits
/// are vouched for by the checkpoint's own pre-rotation certification.
fn oracle_check(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    rec: &Recovery,
    report: &mut CrashSweepReport,
) {
    report.oracle_checked += 1;
    let exec = ExecutionRecord {
        path: Vec::new(),
        committed: rec.certified.clone(),
        log: rec.log.clone(),
        trace: rec.trace.clone(),
        shadow_mismatch: None,
    };
    let found = check_execution(txns, spec, kind, &exec);
    report.divergence_count += found.len() as u64;
    for d in found {
        if report.divergences.len() < crate::explore::MAX_STORED_DIVERGENCES {
            report.divergences.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relser_core::paper::Figure1;

    #[test]
    fn figure1_crash_point_sweep_is_clean() {
        let fig = Figure1::new();
        let cfg = CrashSweepConfig {
            seeds: vec![1],
            fail_appends: vec![0, 3],
            torn_bytes: vec![0, 3],
            fail_syncs: vec![1, 4],
            ..CrashSweepConfig::default()
        };
        let report = crash_point_sweep(&fig.txns, &fig.spec, &cfg);
        assert!(report.clean(), "{report:?}");
        assert!(report.crash_points > 0);
        assert!(report.bit_flips > 0);
        assert!(report.live_faults > 0);
        assert!(report.acked_commits_checked > 0);
    }

    #[test]
    fn figure1_checkpoint_crash_sweep_is_clean() {
        let fig = Figure1::new();
        let cfg = CheckpointSweepConfig {
            seeds: vec![1],
            every_records: 3,
            crash_commands: vec![4, 9],
            ..CheckpointSweepConfig::default()
        };
        let report = checkpoint_crash_sweep(&fig.txns, &fig.spec, &cfg);
        assert!(report.clean(), "{report:?}");
        assert!(report.checkpoints >= 2, "cadence 3 must rotate: {report:?}");
        assert!(
            report.seeded_recoveries > 0,
            "recoveries must seed from checkpoints: {report:?}"
        );
        assert!(report.crash_points > 0);
        assert!(report.bit_flips > 0);
        assert!(report.live_faults > 0);
        assert!(report.acked_commits_checked > 0);
    }

    #[test]
    fn faultfs_tears_and_flips_as_configured() {
        let (mut fs, handle) = FaultFs::new(FaultFsConfig {
            fail_append_at: Some(1),
            torn_bytes: 2,
            bit_flip: Some((1, 0)),
            ..FaultFsConfig::default()
        });
        fs.append(&[0xAA, 0xBB, 0xCC]).unwrap();
        assert_eq!(handle.bytes(), vec![0xAA, 0xBB ^ 1, 0xCC], "bit flipped");
        assert_eq!(handle.synced_bytes(), b"", "nothing synced yet");
        fs.sync().unwrap();
        assert_eq!(handle.synced_bytes().len(), 3);
        let err = fs.append(&[0x11, 0x22, 0x33]).unwrap_err();
        assert!(err.to_string().contains("torn tail"));
        assert_eq!(handle.bytes().len(), 5, "two torn bytes landed");
        assert_eq!(handle.synced_bytes().len(), 3, "torn tail not durable");
    }

    #[test]
    fn failed_sync_stops_the_watermark() {
        let (mut fs, handle) = FaultFs::new(FaultFsConfig {
            fail_sync_at: Some(0),
            ..FaultFsConfig::default()
        });
        fs.append(&[1, 2, 3]).unwrap();
        assert!(fs.sync().is_err());
        assert_eq!(handle.synced_bytes(), b"");
        fs.sync().unwrap();
        assert_eq!(handle.synced_bytes().len(), 3, "later syncs recover");
    }
}
