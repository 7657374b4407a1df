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
//! * [`crash_point_sweep`] — the headline harness. It writes a log that
//!   never rotates (one [`SegmentedWal`] segment: header, empty head
//!   checkpoint, records) from a seeded single-threaded run re-driven
//!   through a core ([`crate::preload::closed_loop_trace`]), so the same
//!   log on every run, then crashes it *everywhere*: the log is cut
//!   at every byte offset (covering every record boundary and every torn
//!   tail), bit-flipped at every byte, and re-run live against `FaultFs`
//!   failures (handed out as segment 0 by a one-segment
//!   [`relser_wal::SegmentStore`]) — once driven by live sessions and
//!   once re-driven from a pre-loaded queue in multi-command batches
//!   ([`crate::preload::redrive_preloaded`]), so the failing write or
//!   barrier lands inside the group-commit window (records appended,
//!   barrier pending, commit acks held). Every configured fault must
//!   fire. Every recovery must succeed, pass the full offline oracle suite of [`crate::oracle::check_execution`] and
//!   the recovery lockstep of [`crate::lockstep::recovery_lockstep`], and
//!   — under [`FsyncPolicy::Always`] — preserve every acknowledged
//!   commit.
//!
//! The invariant this buys on top of the fault sweeps in
//! [`crate::faults`]: **no storage failure can lose an acknowledged
//! commit or make recovery bless a non-relatively-serializable history.**
//!
//! [`checkpoint_crash_sweep`] runs the same discipline against a log
//! that *rotates* under an aggressive checkpoint policy: cuts
//! and flips land across checkpoint and segment boundaries (including
//! inside the head checkpoint frame, modelling a crash mid-rotation),
//! live runs crash the core between rotations, and recovery must seed
//! from the surviving checkpoint without losing an acknowledged commit.
//!
//! Both sweeps run their live passes on either write path of the core:
//! with [`FaultFsConfig::sync_service`] zero the barrier is in-memory and
//! the core writes inline; with a service time longer than a thread
//! wake-up (the benchmark's modelled 200 µs) the core writes its first
//! commit barrier inline — the third barrier of its write-path probe,
//! after the log's two opening ones — then hands its writes to its
//! log-writer thread and admits during the barrier, so later faults land
//! on writes that cover several batches
//! ([`CrashSweepReport::staged_writes`] counts those writes). The swept
//! logs themselves are written inline, so they and the pins counted over
//! them are the same on both paths.

use crate::lockstep::recovery_lockstep;
use crate::oracle::{check_execution, Divergence, ExecutionRecord};
use crate::preload::{closed_loop_trace, redrive_preloaded};
use relser_core::ids::TxnId;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::SchedulerKind;
use relser_server::recovery::{recover_segments_with_certifier, Certifier, Recovery};
use relser_server::{
    recover_and_resume, serve_sharded, FaultPlan, ServerConfig, ShardCoreCtx, ShardedReport,
    TraceEvent,
};
use relser_wal::{
    CheckpointPolicy, CommitLog, FsyncPolicy, MemSegmentStore, SegmentStore, SegmentedWal, Storage,
};
use relser_workload::stream::RequestStream;
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Knobs for one [`FaultFs`] instance. Ordinals are 0-based; `None`
/// disables that fault.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultFsConfig {
    /// This append call (call 0 is the segment header, call 1 the head
    /// checkpoint, then one per write) fails. The writer (and so the
    /// core) fail-stops.
    pub fail_append_at: Option<u64>,
    /// How many bytes of the failing append still reach the buffer
    /// before the error — the torn tail a real crash leaves behind; it
    /// may hold whole valid frames of the batch that was never synced.
    pub torn_bytes: usize,
    /// Silently flip bit `b` of global byte offset `o` as it is written
    /// (bit rot / a misdirected write the writer never notices).
    pub bit_flip: Option<(u64, u8)>,
    /// This sync call fails (call 0 is the header sync under `Always`,
    /// call 1 the head checkpoint's, then one per write that logged a
    /// commit).
    pub fail_sync_at: Option<u64>,
    /// How long every sync takes (slept, then it succeeds or fails). Zero
    /// is an in-memory barrier, which the core writes inline; one longer
    /// than a parked thread's wake-up makes the core hand its writes after
    /// the first commit barrier to its log-writer thread, and admit during
    /// the barrier, where batches queued behind a barrier share the next
    /// write.
    pub sync_service: Duration,
}

struct FaultInner {
    bytes: Vec<u8>,
    synced: usize,
    /// A configured fault has fired.
    fired: bool,
}

/// A fault-injecting in-memory [`Storage`]: behaves like an in-memory
/// segment until a configured ordinal, then fails exactly the way
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
            fired: false,
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

    /// Has a configured fault fired (an append or sync failed, or the
    /// flipped byte was written)? A fault whose ordinal or offset the
    /// run never reached tested nothing.
    pub fn fired(&self) -> bool {
        self.inner.lock().expect("faultfs lock").fired
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
            inner.fired = true;
            return Err(io::Error::other("injected append failure (torn tail)"));
        }
        let start = inner.bytes.len() as u64;
        inner.bytes.extend_from_slice(bytes);
        if let Some((off, bit)) = self.cfg.bit_flip {
            if off >= start && off < inner.bytes.len() as u64 {
                inner.bytes[off as usize] ^= 1 << (bit % 8);
                inner.fired = true;
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let n = self.syncs;
        self.syncs += 1;
        if !self.cfg.sync_service.is_zero() {
            std::thread::sleep(self.cfg.sync_service);
        }
        let mut inner = self.inner.lock().expect("faultfs lock");
        if self.cfg.fail_sync_at == Some(n) {
            inner.fired = true;
            return Err(io::Error::other("injected fsync failure"));
        }
        inner.synced = inner.bytes.len();
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.lock().expect("faultfs lock").bytes.len() as u64
    }
}

/// Hands one [`FaultFs`] out as segment 0 of a log that never rotates.
struct OneSegment(Option<FaultFs>);

impl SegmentStore for OneSegment {
    fn create(&mut self, seq: u64) -> io::Result<Box<dyn Storage>> {
        assert_eq!(seq, 0, "a never-rotating log creates segment 0 only");
        Ok(Box::new(self.0.take().expect("segment 0 is created once")))
    }

    fn delete(&mut self, seq: u64) -> io::Result<()> {
        unreachable!("a never-rotating log deletes nothing (asked for {seq})")
    }
}

/// Segments on [`FaultFs`], one per sequence number, every one under the
/// same [`FaultFsConfig`] (its ordinals count per segment); deleted
/// segments are dropped like [`MemSegmentStore`]'s. What a rotating log
/// runs on in a live pass of [`checkpoint_crash_sweep`].
#[derive(Clone, Default)]
struct FaultSegments {
    cfg: FaultFsConfig,
    segs: Arc<Mutex<BTreeMap<u64, FaultFsHandle>>>,
}

impl FaultSegments {
    /// The retained segments' durable prefixes, ascending.
    fn synced_segments(&self) -> Vec<(u64, Vec<u8>)> {
        let segs = self.segs.lock().expect("segment lock");
        segs.iter().map(|(&s, h)| (s, h.synced_bytes())).collect()
    }
}

impl SegmentStore for FaultSegments {
    fn create(&mut self, seq: u64) -> io::Result<Box<dyn Storage>> {
        let (fs, handle) = FaultFs::new(self.cfg);
        self.segs.lock().expect("segment lock").insert(seq, handle);
        Ok(Box::new(fs))
    }

    fn delete(&mut self, seq: u64) -> io::Result<()> {
        self.segs.lock().expect("segment lock").remove(&seq);
        Ok(())
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
    /// Session worker threads per live run, and streams of the seeded
    /// single-threaded run that writes the swept log.
    pub workers: usize,
    /// [`FaultFsConfig::sync_service`] of every live run: zero drives the
    /// inline write step, a longer one the log-writer thread. The swept
    /// log itself is always written inline, so it is the same on every
    /// run.
    pub sync_service: Duration,
}

impl Default for CrashSweepConfig {
    fn default() -> Self {
        CrashSweepConfig {
            kinds: vec![SchedulerKind::RsgSgt],
            seeds: vec![1, 2],
            fail_appends: vec![0, 1, 3, 6, 10],
            torn_bytes: vec![0, 1, 5],
            fail_syncs: vec![0, 1, 4, 8],
            workers: 3,
            sync_service: Duration::ZERO,
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
    /// Live [`FaultFs`] runs of [`crash_point_sweep`] whose configured
    /// fault fired ([`FaultFsHandle::fired`]); a fault that never fires
    /// leaves a clean run and checks nothing the full-log check does not.
    pub live_faults_fired: u64,
    /// Writes the live runs' log-writer threads ran
    /// ([`relser_server::core::CoreOutput::staged_writes`]): zero unless
    /// their barriers were slow.
    pub staged_writes: u64,
    /// Recoveries oracle-checked through [`check_execution`].
    pub oracle_checked: u64,
    /// Acknowledged commits verified present after recovery.
    pub acked_commits_checked: u64,
    /// Acknowledged commits a recovery failed to produce exactly once
    /// (must be 0).
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
    /// Cuts of a swept log (pass 1) whose recovery seeded from a
    /// checkpoint rather than replaying from the start of history. The
    /// swept logs are written by seeded single-threaded runs, so this is
    /// the same on every run.
    pub seeded_recoveries: u64,
    /// Continuation requests the recovered and the replayed scheduler
    /// decided alike ([`recovery_lockstep`], after every recovery).
    pub lockstep_requests: u64,
    /// Recoveries after which they did not (must be 0).
    pub lockstep_divergences: u64,
    /// The first such divergence.
    pub first_lockstep_divergence: Option<String>,
    /// Second service lives opened on a crashed run's durable segments
    /// (only [`checkpoint_crash_sweep`] serves any).
    pub second_lives: u64,
    /// Oracle divergences (count; storage capped like the fault sweep).
    pub divergence_count: u64,
    /// The first divergences found.
    pub divergences: Vec<Divergence>,
}

impl CrashSweepReport {
    /// Did every crash point recover cleanly with nothing lost?
    pub fn clean(&self) -> bool {
        self.divergence_count == 0
            && self.lockstep_divergences == 0
            && self.lost_commits == 0
            && self.report_ack_mismatches == 0
            && self.failed_recoveries == 0
            && self.monotonicity_violations == 0
    }
}

/// The queue batches of [`crash_point_sweep`]'s live-session runs. Their
/// sessions commit together, at whatever moment their threads get to
/// it: at the default batch size one queue batch, written by one write
/// under one barrier, can carry every commit of a small universe, and
/// the storage ordinals past that barrier then never come. Two commands
/// a batch leave the first commit barrier — written inline, the last of
/// the core's write-path probe — at most two commits, so a universe of
/// three or more has a later commit barrier on every run, whatever the
/// sessions' timing and the log writer's coalescing.
const LIVE_BATCH_MAX: usize = 2;

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
                batch_max: LIVE_BATCH_MAX,
                ..ServerConfig::default()
            };
            // One clean durable run produces the log the offline passes cut up.
            let (store, handle) = MemSegmentStore::new();
            let mut wal = SegmentedWal::new(
                Box::new(store),
                FsyncPolicy::Always,
                CheckpointPolicy::never(),
            )
            .expect("MemSegmentStore never fails");
            let run = first_life(txns, spec, kind, seed, cfg.workers, &mut wal);
            report.runs += 1;
            let bytes = handle.segments().remove(0).1;

            // Pass 1: cut the log at every byte — every record boundary
            // and every torn-tail length in between.
            let mut prev_commits = 0usize;
            for cut in 0..=bytes.len() {
                report.crash_points += 1;
                let segs = [(0, bytes[..cut].to_vec())];
                let Some((_, rec)) = try_recover(txns, spec, kind, &segs, &mut report) else {
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
            let full = [(0, bytes.clone())];
            check_acked(&run.acked, &full, txns, spec, kind, &mut report);

            // Pass 2: flip one bit in every byte — recovery must survive
            // (truncating at the damage), never panic, never forge state.
            for byte in 0..bytes.len() {
                report.bit_flips += 1;
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << (byte % 8);
                let _ = try_recover(txns, spec, kind, &[(0, corrupt)], &mut report);
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
                        sync_service: cfg.sync_service,
                        ..FaultFsConfig::default()
                    });
                }
            }
            for &s in &cfg.fail_syncs {
                live.push(FaultFsConfig {
                    fail_sync_at: Some(s),
                    sync_service: cfg.sync_service,
                    ..FaultFsConfig::default()
                });
            }
            for fs_cfg in live {
                for preloaded in [false, true] {
                    report.live_faults += 1;
                    let (fs, fs_handle) = FaultFs::new(fs_cfg);
                    let store = Box::new(OneSegment(Some(fs)));
                    let mut wal = match SegmentedWal::new(
                        store,
                        FsyncPolicy::Always,
                        CheckpointPolicy::never(),
                    ) {
                        Ok(w) => w,
                        // The header or head checkpoint write or sync
                        // already failed: nothing was ever acknowledged,
                        // and the synced prefix recovers to the empty
                        // state below.
                        Err(_) => {
                            report.live_faults_fired += u64::from(fs_handle.fired());
                            let durable = [(0, fs_handle.synced_bytes())];
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
                            &FaultPlan::default(),
                            &mut wal,
                            ShardCoreCtx::default(),
                        );
                        report.report_ack_mismatches +=
                            u64::from(redrive.out.committed != redrive.acked);
                        report.staged_writes += redrive.out.staged_writes;
                        redrive.acked
                    } else {
                        let served = serve_one(txns, spec, kind, &server_cfg, seed, &mut wal);
                        report.staged_writes += served.shards[0].staged_writes;
                        served.committed
                    };
                    report.live_faults_fired += u64::from(fs_handle.fired());
                    let durable = [(0, fs_handle.synced_bytes())];
                    check_acked(&acked, &durable, txns, spec, kind, &mut report);
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
    /// [`FaultFsConfig::sync_service`] of the live runs' segments (see
    /// [`CrashSweepConfig::sync_service`]).
    pub sync_service: Duration,
}

impl Default for CheckpointSweepConfig {
    fn default() -> Self {
        CheckpointSweepConfig {
            kinds: vec![SchedulerKind::RsgSgt],
            seeds: vec![1, 2],
            every_records: 4,
            crash_commands: vec![3, 7, 13, 21],
            workers: 3,
            sync_service: Duration::ZERO,
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
///    which must fall back to the full segment and lose nothing,
/// 5. opens each live crash's durable segments with
///    [`recover_and_resume`] and serves the rest of the stream on them in
///    a second life that rotates under the same cadence: every commit
///    either life acknowledged is recovered exactly once.
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
            let run = first_life(txns, spec, kind, seed, cfg.workers, &mut wal);
            report.runs += 1;
            report.checkpoints += run.checkpoints;
            let segments = handle.synced_segments();
            // Rotation deletes covered segments, so the durable set is
            // the newest segment (plus, mid-rotation, its predecessor).
            let (last_seq, last_bytes) = segments.last().cloned().expect("segment 0 always exists");

            // The full durable set recovers the full run, nothing lost.
            check_acked(&run.acked, &segments, txns, spec, kind, &mut report);

            // Pass 1: cut the newest segment at every byte.
            let prior: Vec<(u64, Vec<u8>)> = segments[..segments.len() - 1].to_vec();
            let mut prev_commits = 0usize;
            for cut in 0..=last_bytes.len() {
                report.crash_points += 1;
                let mut cut_segs = prior.clone();
                cut_segs.push((last_seq, last_bytes[..cut].to_vec()));
                let Some((_, rec)) = try_recover(txns, spec, kind, &cut_segs, &mut report) else {
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
                let _ = try_recover(txns, spec, kind, &segs, &mut report);
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
                check_acked(&run.acked, &segs, txns, spec, kind, &mut report);
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
                    let store = FaultSegments {
                        cfg: FaultFsConfig {
                            sync_service: cfg.sync_service,
                            ..FaultFsConfig::default()
                        },
                        ..FaultSegments::default()
                    };
                    let mut wal = SegmentedWal::new(
                        Box::new(store.clone()),
                        FsyncPolicy::Always,
                        ckpt_policy,
                    )
                    .expect("a faultless FaultFs never fails");
                    let faults = FaultPlan {
                        crash_at_command: Some(at),
                        ..FaultPlan::default()
                    };
                    let (acked, checkpoints) = if preloaded {
                        let redrive = redrive_preloaded(
                            kind.make(txns, spec),
                            &run.trace,
                            &faults,
                            &mut wal,
                            ShardCoreCtx::default(),
                        );
                        report.report_ack_mismatches +=
                            u64::from(redrive.out.committed != redrive.acked);
                        report.staged_writes += redrive.out.staged_writes;
                        (redrive.acked, redrive.out.checkpoints)
                    } else {
                        let stream = RequestStream::shuffled(txns, seed);
                        let crashed = serve_sharded(
                            txns,
                            &stream,
                            vec![kind.make(txns, spec)],
                            &server_cfg,
                            std::slice::from_ref(&faults),
                            vec![&mut wal as &mut dyn CommitLog],
                        );
                        report.staged_writes += crashed.shards[0].staged_writes;
                        (crashed.committed, crashed.shards[0].checkpoints)
                    };
                    report.checkpoints += checkpoints;
                    let durable = store.synced_segments();
                    check_acked(&acked, &durable, txns, spec, kind, &mut report);
                    second_life(
                        txns,
                        spec,
                        kind,
                        &server_cfg,
                        seed,
                        ckpt_policy,
                        &durable,
                        &acked,
                        &mut report,
                    );
                }
            }
        }
    }
    report
}

/// Pass 5 of [`checkpoint_crash_sweep`]: opens a store holding a crashed
/// run's `durable` segments with the open call, serves what that first
/// life left uncommitted in a second life rotating under `ckpt`, and
/// recovers the second life's durable segments: every commit in `acked`
/// (the first life's) or acknowledged by the second must come back
/// exactly once.
#[allow(clippy::too_many_arguments)]
fn second_life(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    server_cfg: &ServerConfig,
    seed: u64,
    ckpt: CheckpointPolicy,
    durable: &[(u64, Vec<u8>)],
    acked: &[TxnId],
    report: &mut CrashSweepReport,
) {
    let mut store = MemSegmentStore::new().1;
    for (seq, bytes) in durable {
        let mut segment = store.create(*seq).expect("MemSegmentStore never fails");
        segment.append(bytes).expect("MemSegmentStore never fails");
        segment.sync().expect("MemSegmentStore never fails");
    }
    let opened = recover_and_resume(store.clone(), kind.make(txns, spec), txns, spec, 0, ckpt);
    let Ok((mut wal, scheduler, rec)) = opened else {
        report.failed_recoveries += 1;
        report.lost_commits += acked.len() as u64;
        return;
    };
    report.second_lives += 1;
    let rest = RequestStream::shuffled(txns, seed).without(&rec.committed);
    let run = serve_sharded(
        txns,
        &rest,
        vec![scheduler],
        server_cfg,
        &[],
        vec![&mut wal as &mut dyn CommitLog],
    );
    report.checkpoints += run.shards[0].checkpoints;
    // The second life reports the commits its log opened with, then its
    // own.
    let mut both = run.committed;
    both.extend(acked.iter().filter(|t| !rec.committed.contains(t)));
    check_acked(&both, &store.synced_segments(), txns, spec, kind, report);
}

/// A swept run's first life: what it logged and acknowledged.
struct FirstLife {
    /// The core's trace (the seeded run's, decision for decision).
    trace: Vec<TraceEvent>,
    /// Commits whose reply came back `Granted`.
    acked: Vec<TxnId>,
    /// Checkpoints the core cut.
    checkpoints: u64,
}

/// Writes `wal` from a seeded single-threaded run of `kind` on `streams`
/// closed-loop streams over `seed`'s arrival order, re-driven from a
/// pre-loaded queue through a core: the same log on every run.
fn first_life(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    seed: u64,
    streams: usize,
    wal: &mut dyn CommitLog,
) -> FirstLife {
    let arrivals = RequestStream::shuffled(txns, seed);
    let mut scheduler = kind.make(txns, spec);
    let trace = closed_loop_trace(txns, arrivals.order(), streams, &mut *scheduler);
    let redrive = redrive_preloaded(
        kind.make(txns, spec),
        &trace,
        &FaultPlan::default(),
        wal,
        ShardCoreCtx::default(),
    );
    assert!(!redrive.out.crashed, "a faultless re-drive runs to the end");
    FirstLife {
        trace: redrive.out.trace,
        acked: redrive.acked,
        checkpoints: redrive.out.checkpoints,
    }
}

/// Recovers `segments` into a fresh scheduler, counting failures, and
/// runs the recovery lockstep on what it hands back.
fn try_recover(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    segments: &[(u64, Vec<u8>)],
    report: &mut CrashSweepReport,
) -> Option<(u64, Recovery)> {
    let mut fresh = kind.make(txns, spec);
    match recover_segments_with_certifier(txns, spec, &mut *fresh, segments, Certifier::VClock) {
        Ok(out) => {
            let pending = RequestStream::in_order(txns).without(&out.1.committed);
            let lockstep =
                recovery_lockstep(txns, spec, kind, &mut *fresh, &out.1, pending.order());
            match lockstep {
                Ok(requests) => report.lockstep_requests += requests,
                Err(e) => {
                    report.lockstep_divergences += 1;
                    report.first_lockstep_divergence.get_or_insert(e);
                }
            }
            Some(out)
        }
        Err(_) => {
            report.failed_recoveries += 1;
            None
        }
    }
}

/// The zero-acknowledged-commit-loss check: every commit the (possibly
/// crashed) run acknowledged must come back, exactly once, from
/// recovering the durable `segments`, and the recovered state must pass
/// the oracle suite.
fn check_acked(
    acked: &[TxnId],
    segments: &[(u64, Vec<u8>)],
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    report: &mut CrashSweepReport,
) {
    let Some((_, rec)) = try_recover(txns, spec, kind, segments, report) else {
        report.lost_commits += acked.len() as u64;
        return;
    };
    for t in acked {
        report.acked_commits_checked += 1;
        if rec.committed.iter().filter(|&c| c == t).count() != 1 {
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
    wal: &mut SegmentedWal,
) -> ShardedReport {
    let stream = RequestStream::shuffled(txns, seed);
    serve_sharded(
        txns,
        &stream,
        vec![kind.make(txns, spec)],
        server_cfg,
        &[],
        vec![wal as &mut dyn CommitLog],
    )
}

/// Pushes a recovered state through the full offline oracle suite.
///
/// The Theorem 1 / lattice oracles need complete per-transaction op
/// sets, so they run over [`Recovery::certified`] — committed
/// transactions the recovered log fully contains. Without a rotation
/// that is all of `committed`; after one, checkpoint-retired commits
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

    /// Both write paths: an in-memory barrier (the core writes inline)
    /// and the benchmark's modelled 200 µs sync (the log-writer thread).
    const SYNC_SERVICES: [Duration; 2] = [Duration::ZERO, Duration::from_micros(200)];

    /// On the slow barrier the live runs did drive the log-writer thread.
    fn assert_staged_if_slow(sync_service: Duration, report: &CrashSweepReport) {
        if !sync_service.is_zero() {
            assert!(report.staged_writes > 0, "{report:?}");
        }
    }

    #[test]
    fn figure1_crash_point_sweep_is_clean() {
        for sync_service in SYNC_SERVICES {
            figure1_crash_point_sweep(sync_service);
        }
    }

    fn figure1_crash_point_sweep(sync_service: Duration) {
        let fig = Figure1::new();
        let cfg = CrashSweepConfig {
            kinds: vec![SchedulerKind::RsgSgt, SchedulerKind::TwoPl],
            seeds: vec![1],
            // Appends 0 and 1 are the header and the head checkpoint, 4
            // and 6 batch writes; sync 1 is the head checkpoint's, 2 and 3
            // the barriers of the first two writes that logged a commit.
            // Append 6 (under the pre-loaded driver) and sync 3 (under
            // both) land after a commit was acknowledged. On the staged
            // path too: syncs 0, 1 and 2 are the core's write-path probe,
            // sync 2 written inline, and the batches behind it share one
            // write (append 6) and one barrier (sync 3) on the log writer.
            fail_appends: vec![0, 1, 4, 6],
            torn_bytes: vec![0, 3],
            fail_syncs: vec![1, 2, 3],
            sync_service,
            ..CrashSweepConfig::default()
        };
        let report = crash_point_sweep(&fig.txns, &fig.spec, &cfg);
        assert!(report.clean(), "{sync_service:?}: {report:?}");
        assert_staged_if_slow(sync_service, &report);
        // Seeded single-threaded first lives: the same two logs on every
        // run.
        assert_eq!(report.crash_points, 684, "{report:?}");
        assert_eq!(report.seeded_recoveries, 0, "a never-rotating log");
        assert!(report.lockstep_requests > 0, "{report:?}");
        assert!(report.bit_flips > 0);
        // 2 kinds x (4 appends x 2 tears + 3 syncs) x 2 drivers, and every
        // configured fault fired.
        assert_eq!(report.live_faults, 44, "{report:?}");
        assert_eq!(report.live_faults_fired, report.live_faults, "{report:?}");
        // More than the two full-log checks (3 commits each): the live
        // faults check acknowledged commits too.
        assert!(report.acked_commits_checked > 6, "{report:?}");
    }

    #[test]
    fn figure1_checkpoint_crash_sweep_is_clean() {
        for sync_service in SYNC_SERVICES {
            figure1_checkpoint_crash_sweep(sync_service);
        }
    }

    fn figure1_checkpoint_crash_sweep(sync_service: Duration) {
        let fig = Figure1::new();
        let cfg = CheckpointSweepConfig {
            kinds: vec![SchedulerKind::RsgSgt, SchedulerKind::TwoPl],
            seeds: vec![1],
            every_records: 4,
            // Commits come late in both Figure 1 traces (19 and 27
            // commands): only a crash at 21 lands behind the first commit
            // barrier, where the slow-barrier pass writes on the log
            // writer (2PL's pre-loaded re-drive; RSG-SGT's trace ends
            // before it and runs to completion on the writer).
            crash_commands: vec![4, 9, 21],
            sync_service,
            ..CheckpointSweepConfig::default()
        };
        let report = checkpoint_crash_sweep(&fig.txns, &fig.spec, &cfg);
        assert!(report.clean(), "{sync_service:?}: {report:?}");
        assert_staged_if_slow(sync_service, &report);
        assert!(report.checkpoints >= 2, "cadence 4 must rotate: {report:?}");
        // Seeded single-threaded first lives: the same newest segments on
        // every run, whose cuts past the head seed from its events.
        assert_eq!(report.crash_points, 298, "{report:?}");
        assert_eq!(report.seeded_recoveries, 96, "{report:?}");
        assert!(report.lockstep_requests > 0, "{report:?}");
        assert!(report.bit_flips > 0);
        assert!(report.live_faults > 0);
        assert!(report.second_lives > 0, "{report:?}");
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
