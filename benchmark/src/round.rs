//! One round: start a fresh server on one set, drive every transaction
//! to commit, stop, cut the log back to what was synced, recover, and
//! hold the outcome to the correctness gate.

use crate::client::{self, Drive};
use crate::disk::ModelDisk;
use crate::sut::{self, Device, Input, Recovered, RoundReport, Store, TxnId, Verdicts};
use crate::workloads::Workload;
use std::path::Path;
use std::time::Instant;

/// How a round is run.
#[derive(Clone, Copy)]
pub struct RoundMode {
    /// Client spans on and `record_trace: true` on the server.
    pub traced: bool,
    /// Also cross-check the vector-clock verdict against the offline
    /// `Rsg::build(..).is_acyclic()` oracle (first pass only: the
    /// oracle is superlinear).
    pub cross_check: bool,
    /// Test hook: drop one acknowledged commit from the recovered set
    /// before comparing, to prove the gate can fail.
    pub plant_lost_ack: bool,
}

/// What the gate found wrong, counted against transactions attempted.
#[derive(Default, Debug)]
pub struct Failures {
    pub lost_txns: u64,
    pub dead_connections: u64,
    pub acked_missing: u64,
    pub uncertified: u64,
    pub supervisor_restarts: u64,
    /// Traced runs whose modelled disk did not keep its service time.
    pub device_off_model: u64,
    pub notes: Vec<String>,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.lost_txns
            + self.dead_connections
            + self.acked_missing
            + self.uncertified
            + self.supervisor_restarts
            + self.device_off_model
    }

    pub fn absorb(&mut self, other: Failures) {
        self.lost_txns += other.lost_txns;
        self.dead_connections += other.dead_connections;
        self.acked_missing += other.acked_missing;
        self.uncertified += other.uncertified;
        self.supervisor_restarts += other.supervisor_restarts;
        self.device_off_model += other.device_off_model;
        self.notes.extend(other.notes);
    }
}

pub struct Round {
    pub drive: Drive,
    pub report: RoundReport,
    /// `None` when recovery refused the log or its history failed
    /// certification (counted in `failures.uncertified`).
    pub recovered: Option<Recovered>,
    /// Acknowledged commits found in the recovered committed set.
    pub acked_durable: u64,
    /// The explicit certification calls, when they ran (traced rounds
    /// and the cross-checked first round).
    pub verdicts: Option<Verdicts>,
    pub failures: Failures,
    /// Span boundaries, nanoseconds since the epoch.
    pub serve_span: (u64, u64),
    pub recover_span: (u64, u64),
}

/// Runs one round of `w` on `input`. `scratch` is where the modelled
/// disk keeps its files; `epoch` is the zero of every span timestamp.
pub fn run_round(
    w: &Workload,
    input: &Input,
    mode: RoundMode,
    scratch: &Path,
    epoch: Instant,
) -> std::io::Result<Round> {
    let since = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let device = if w.modelled_disk {
        Device::Modelled(ModelDisk::create(scratch)?)
    } else {
        Device::Mem
    };
    let serve_start = Instant::now();
    let (report, store, drive) = sut::serve_round(input, device, mode.traced, |addr| {
        client::drive(addr, input, w.shape, mode.traced, epoch)
    })?;
    let serve_span = (since(serve_start), since(Instant::now()));

    let mut failures = Failures {
        lost_txns: drive.lost.len() as u64,
        dead_connections: drive.dead_connections,
        supervisor_restarts: report.supervisor_restarts,
        ..Failures::default()
    };
    if report.net.crashed {
        failures.supervisor_restarts += 1;
        failures.notes.push("admission core fail-stopped".into());
    }

    let recover_start = Instant::now();
    let recovered = match sut::recover_round(input, &store) {
        Ok(r) => Some(r),
        Err(e) => {
            failures.uncertified += 1;
            failures
                .notes
                .push(format!("recovery refused the log: {e}"));
            None
        }
    };
    let recover_span = (since(recover_start), since(Instant::now()));
    if let Store::Modelled(disk) = store {
        disk.remove()?;
    }

    let mut acked_durable = 0;
    let mut verdicts = None;
    if let Some(rec) = &recovered {
        let mut committed = vec![false; input.txn_count()];
        for t in &rec.committed {
            committed[t.index()] = true;
        }
        if mode.plant_lost_ack {
            if let Some(&TxnId(t)) = drive.acked.first() {
                committed[t as usize] = false;
            }
        }
        acked_durable = drive.acked.iter().filter(|t| committed[t.index()]).count() as u64;
        let missing = drive.acked.len() as u64 - acked_durable;
        if missing > 0 {
            failures.acked_missing += missing;
            failures.notes.push(format!(
                "{missing} acknowledged commits missing after recovery"
            ));
        }
        // Recovery's `Ok` already is the vector-clock verdict; certify
        // again from outside only where the call is timed as a probe
        // (traced rounds) or cross-checked against the RSG oracle.
        if mode.cross_check || mode.traced {
            match sut::certify(input, &rec.history, mode.cross_check) {
                Ok(v) => {
                    if !(v.vclock && v.rsg) {
                        failures.uncertified += 1;
                        failures.notes.push(format!(
                            "certification verdicts: vclock={} rsg={}",
                            v.vclock, v.rsg
                        ));
                    }
                    verdicts = Some(v);
                }
                Err(e) => {
                    failures.uncertified += 1;
                    failures
                        .notes
                        .push(format!("recovered history is not a schedule: {e}"));
                }
            }
        }
    }

    Ok(Round {
        drive,
        report,
        recovered,
        acked_durable,
        verdicts,
        failures,
        serve_span,
        recover_span,
    })
}
