//! One run of one workload: generate the pool, warm up, measure, report.
//!
//! Set-up is pool and spec generation plus one untimed warm-up round,
//! whose recovered history is also the one cross-checked against the
//! offline RSG oracle. It is done [`SETUPS`] times over and `setup_s` is
//! the median, because a single sub-second set-up moved by a quarter
//! between quiet and busy minutes of the sandbox. Then rounds cycle
//! through the pool until `seconds` of wall clock have passed (and every
//! set has been visited), so a run is `seconds` plus at most one round.

use crate::metrics::{EndToEnd, Layers, Measured, END_TO_END};
use crate::probes;
use crate::round::{run_round, Failures, Round, RoundMode};
use crate::sut::{self, Input};
use crate::trace::{self, RoundSpans};
use crate::workloads::{generate_pool, Workload};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Which rounds are traced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tracing {
    /// `--trace 0`: untraced rounds only; end-to-end metrics.
    Off,
    /// `--trace 1`: traced and untraced passes alternate for the whole
    /// run; per-layer metrics (the untraced passes are the base of
    /// `bench.trace_overhead_frac`).
    On,
    /// No `--trace`: the untraced run, then one traced pass; both tables.
    Both,
}

#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub tracing: Tracing,
    /// One pass instead of `seconds`.
    pub quick: bool,
    /// Test hook, see [`RoundMode::plant_lost_ack`].
    pub plant_lost_ack: bool,
}

pub struct RunResult {
    pub end_to_end: Option<Vec<Measured>>,
    pub per_layer: Option<Vec<Measured>>,
    /// Transactions attempted, over every round run.
    pub attempted: u64,
    pub failures: Failures,
}

/// How many times a run sets up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Everything the benchmark writes lives under `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

struct Runner {
    w: &'static Workload,
    cfg: RunCfg,
    pool: Vec<Input>,
    scratch: PathBuf,
    epoch: Instant,
    e2e: EndToEnd,
    layers: Layers,
    spans: Vec<RoundSpans>,
    attempted: u64,
    failures: Failures,
}

impl Runner {
    fn round(&mut self, set: usize, traced: bool, cross_check: bool) -> io::Result<Round> {
        let mode = RoundMode {
            traced,
            cross_check,
            plant_lost_ack: self.cfg.plant_lost_ack,
        };
        let input = &self.pool[set];
        let mut round = run_round(self.w, input, mode, &self.scratch, self.epoch)?;
        self.attempted += self.pool[set].txn_count() as u64;
        self.failures.absorb(std::mem::take(&mut round.failures));
        Ok(round)
    }

    fn untraced(&mut self, set: usize, timed: bool) -> io::Result<()> {
        let mut round = self.round(set, false, false)?;
        self.layers.add_untraced(&round);
        if timed {
            self.e2e.add(set, &mut round);
        }
        Ok(())
    }

    /// A traced round with its probes; its spans are kept for the trace
    /// file when `keep_spans` (the first traced pass only: a span per
    /// request for a whole run would be hundreds of megabytes).
    fn traced(&mut self, set: usize, keep_spans: bool) -> io::Result<()> {
        let start = Instant::now();
        let mut round = self.round(set, true, false)?;
        let probes = probes::run(&self.pool[set], &round, self.epoch)?;
        if keep_spans {
            self.spans.push(RoundSpans {
                set,
                start_ns: since(self.epoch, start),
                end_ns: since(self.epoch, Instant::now()),
                serve: round.serve_span,
                recover: round.recover_span,
                probes: probes.spans.clone(),
                txns: std::mem::take(&mut round.drive.txn_spans),
                requests: std::mem::take(&mut round.drive.req_spans),
            });
        }
        self.layers.add(&mut round, &probes);
        Ok(())
    }
}

/// Runs workload `w`; `started` is when this workload's set-up began.
pub fn run_workload(w: &'static Workload, cfg: RunCfg, started: Instant) -> io::Result<RunResult> {
    let mut r = Runner {
        w,
        cfg,
        pool: Vec::new(),
        scratch: out_dir().join(format!("disk-{}", std::process::id())),
        epoch: started,
        e2e: EndToEnd::new(w.pool as usize),
        layers: Layers::default(),
        spans: Vec::new(),
        attempted: 0,
        failures: Failures::default(),
    };
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        // The first set-up is timed from `started`: it pays process start.
        let t0 = if i == 0 { started } else { Instant::now() };
        r.pool = generate_pool(w, cfg.seed);
        let warm_up = r.round(0, false, true)?;
        setups.push(t0.elapsed().as_secs_f64());
        r.layers.add_rsg_build(&warm_up);
    }
    let setup_s = crate::stats::median_f64(&setups);
    let n = r.pool.len();

    let measured = Instant::now();
    let mut k = 0;
    loop {
        let (set, pass) = (k % n, k / n);
        if cfg.tracing == Tracing::On && pass % 2 == 0 {
            r.traced(set, pass == 0)?;
        } else {
            r.untraced(set, cfg.tracing != Tracing::On)?;
        }
        k += 1;
        let passes_wanted = if cfg.tracing == Tracing::On { 2 } else { 1 };
        let enough = cfg.quick || measured.elapsed().as_secs_f64() >= cfg.seconds;
        if k >= passes_wanted * n && enough {
            break;
        }
    }
    if cfg.tracing == Tracing::Both {
        for set in 0..n {
            r.traced(set, true)?;
        }
    }

    let end_to_end = (cfg.tracing != Tracing::On).then(|| r.e2e.values(setup_s));
    let per_layer = (cfg.tracing != Tracing::Off).then(|| r.layers.values(&r.pool));
    if r.layers.replay_divergences() > 0 {
        r.failures.notes.push(format!(
            "{} replayed scheduler decisions differ from the recorded trace",
            r.layers.replay_divergences()
        ));
    }

    if w.modelled_disk && per_layer.is_some() {
        check_modelled_sync(&mut r);
    }

    let meta = meta(w, &cfg, &r);
    print_report(w, &meta, end_to_end.as_deref(), per_layer.as_deref(), &r);
    if let Some(counts) = &per_layer {
        let path = out_dir().join(format!("{}.trace.json", w.name));
        let run_span = (0, since(started, Instant::now()));
        trace::write(&path, &meta, counts, run_span, &r.spans)?;
        println!(
            "trace: {} ({} rounds of spans)",
            path.display(),
            r.spans.len()
        );
    }
    Ok(RunResult {
        end_to_end,
        per_layer,
        attempted: r.attempted,
        failures: r.failures,
    })
}

/// The modelled device must behave like its model: a traced run whose
/// median barrier is more than 10 % off the service time measured some
/// other device and fails. The p99 is printed and flagged, not failed
/// on: on this 2-vCPU sandbox a preempted core thread puts it anywhere
/// between 214 and 295 us from run to run.
fn check_modelled_sync(r: &mut Runner) {
    let service = crate::disk::SYNC_SERVICE.as_nanos() as f64;
    let off = |ns: u64| (ns as f64 - service).abs() > 0.10 * service;
    let (p50, p99) = r.layers.wal_sync_p50_p99();
    println!(
        "modelled disk: sync p50 {:.1} us, p99 {:.1} us{} (service time {:.0} us)",
        p50 as f64 / 1e3,
        p99 as f64 / 1e3,
        if off(p99) { " [tail off model]" } else { "" },
        service / 1e3
    );
    if off(p50) {
        r.failures.device_off_model += 1;
        r.failures.notes.push(format!(
            "modelled sync p50 {:.1} us is more than 10 % off {:.0} us",
            p50 as f64 / 1e3,
            service / 1e3
        ));
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run's `meta` block: what it ran on and how much it measured.
fn meta(w: &Workload, cfg: &RunCfg, r: &Runner) -> Vec<(&'static str, String)> {
    let commit =
        command_line("git", &["rev-parse", "HEAD"]).map_or(
            "unknown".into(),
            |c| match command_line("git", &["status", "--porcelain"]) {
                Some(s) if !s.is_empty() => format!("{c}-dirty"),
                _ => c,
            },
        );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", w.name.to_string()),
        ("git_commit", commit),
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        (
            "client",
            format!(
                "closed loop, {} connection(s) x {} stream(s), loopback",
                w.shape.connections, w.shape.streams
            ),
        ),
        ("pool_sets", r.pool.len().to_string()),
        ("untraced_rounds", r.e2e.rounds().to_string()),
        ("traced_rounds", r.layers.traced_rounds().to_string()),
        (
            "poll_quantum_us",
            sut::poll_quantum().as_micros().to_string(),
        ),
    ]
}

fn print_report(
    w: &Workload,
    meta: &[(&str, String)],
    end_to_end: Option<&[Measured]>,
    per_layer: Option<&[Measured]>,
    r: &Runner,
) {
    println!("== {} — {}", w.name, w.why);
    let meta: Vec<String> = meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("meta: {}", meta.join(" | "));
    if let Some(values) = end_to_end {
        println!("end-to-end, untraced rounds:");
        println!(
            "  {:<24} {:>14} {:<6} {:>6} {:>9}",
            "metric", "value", "unit", "bound", "samples"
        );
        for m in values {
            println!(
                "  {:<24} {:>14.4} {:<6} {:>5.0}% {:>9}",
                m.def.name,
                m.value,
                m.def.unit,
                m.def.bound.unwrap_or(0.0) * 100.0,
                m.samples
            );
        }
    }
    if let Some(values) = per_layer {
        println!("per-layer, traced rounds:");
        for m in values {
            println!(
                "  {:<34} {:>14.4} {:<6} {:>9}",
                m.def.name, m.value, m.def.unit, m.samples
            );
        }
        let get = |name: &str| {
            values
                .iter()
                .find(|m| m.def.name == name)
                .map_or(0.0, |m| m.value)
        };
        let wire = get("net.wire_p50_us");
        // Large residuals are the finding (ROADMAP 1e), not an error.
        println!(
            "closure: sum of stage p50 {:.1} us | net.wire_p50_us {:.1} | client op p50 {:.1} us \
             | net.unattributed_us {:.1} | net.outside_us {:.1}",
            wire - get("net.unattributed_us"),
            wire,
            wire + get("net.outside_us"),
            get("net.unattributed_us"),
            get("net.outside_us"),
        );
    }
    let f = &r.failures;
    println!(
        "failures: {} of {} transactions attempted (lost {}, dead connections {}, acked missing {}, \
         uncertified {}, supervisor restarts {}, device off model {})",
        f.total(),
        r.attempted,
        f.lost_txns,
        f.dead_connections,
        f.acked_missing,
        f.uncertified,
        f.supervisor_restarts,
        f.device_off_model
    );
    for note in &f.notes {
        println!("  ! {note}");
    }
}

/// The last line of standard output: one JSON object.
pub fn result_json(result: &RunResult, tracing: Tracing) -> String {
    let metrics = match tracing {
        Tracing::On => result.per_layer.as_deref(),
        Tracing::Off | Tracing::Both => result.end_to_end.as_deref(),
    }
    .unwrap_or(&[]);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.def.name, m.value, m.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failures.total() == 0,
        result.attempted.max(1),
        result.failures.total(),
        body.join(", ")
    )
}

/// `--selftest`: two full sets of runs back to back on this binary; every
/// pairing of end-to-end metric and workload must agree within its
/// bound. Returns the number of breaches.
pub fn selftest(workloads: &[&'static Workload], cfg: RunCfg) -> io::Result<(u64, Failures)> {
    let cfg = RunCfg {
        tracing: Tracing::Off,
        ..cfg
    };
    let mut failures = Failures::default();
    let mut sets: Vec<Vec<Vec<Measured>>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for &w in workloads {
            let result = run_workload(w, cfg, Instant::now())?;
            failures.absorb(result.failures);
            set.push(result.end_to_end.expect("untraced run reports end-to-end"));
        }
        sets.push(set);
    }
    let mut breaches = 0;
    println!("== selftest: second set against first, per pairing");
    for (i, w) in workloads.iter().enumerate() {
        for (j, def) in END_TO_END.iter().enumerate() {
            let (a, b) = (sets[0][i][j].value, sets[1][i][j].value);
            let apart = if a == 0.0 { 0.0 } else { (b - a).abs() / a };
            let bound = def.bound.unwrap_or(0.0);
            let verdict = if apart <= bound { "ok" } else { "BREACH" };
            if apart > bound {
                breaches += 1;
            }
            println!(
                "  {:<14} {:<22} {:>12.4} {:>12.4} {:>7.2}% of {:>4.0}%  {verdict}",
                w.name,
                def.name,
                a,
                b,
                apart * 100.0,
                bound * 100.0
            );
        }
    }
    Ok((breaches, failures))
}
