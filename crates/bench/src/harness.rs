//! A small, dependency-free benchmark harness (`group` / `sample_size` /
//! `bench_function` / `iter`) for the crate's two `[[bench]]` targets.
//!
//! It does auto-calibrated timed sampling — median-of-samples reporting
//! with the interquartile range beside it, so one scheduler hiccup
//! neither skews a figure nor hides how much the samples spread — and
//! serialises all measurements of a run to a JSON file stamped with the
//! commit that produced it (see [`Harness::write_json`], [`git_commit`]).

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured benchmark.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark group (e.g. `rsg_sgt_formulations`).
    pub group: String,
    /// Benchmark id within the group (e.g. `rebuild/1032`).
    pub id: String,
    /// Median per-iteration time across samples, in nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time across samples, in nanoseconds.
    pub mean_ns: f64,
    /// First quartile of the per-iteration sample times, in nanoseconds.
    pub q1_ns: f64,
    /// Third quartile of the per-iteration sample times, in nanoseconds.
    pub q3_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per timed sample (chosen by calibration).
    pub iters: u64,
}

/// Collects measurements for one bench binary.
pub struct Harness {
    name: String,
    measurements: Vec<Measurement>,
    meta: Vec<(String, String)>,
}

impl Harness {
    /// A harness for the bench binary `name`.
    pub fn new(name: &str) -> Self {
        println!("== bench {name} (offline harness; median of samples) ==");
        Harness {
            name: name.to_string(),
            measurements: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Records a provenance/configuration key for the JSON `meta` object
    /// (git commit, workload parameters, thread counts, …). Keys keep
    /// insertion order; setting an existing key overwrites its value.
    pub fn set_meta(&mut self, key: &str, value: impl Display) {
        let value = value.to_string();
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.meta.push((key.to_string(), value));
        }
    }

    /// Opens a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
            samples: 20,
            target_sample: Duration::from_millis(20),
        }
    }

    /// All measurements recorded so far.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Serialises every measurement to `path` as JSON (hand-rolled — the
    /// workspace has no serde).
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", self.name));
        out.push_str("  \"unit\": \"ns_per_iter\",\n");
        out.push_str("  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            let sep = if i + 1 == self.meta.len() { "" } else { "," };
            out.push_str(&format!(
                "\n    \"{}\": \"{}\"{}",
                escape_json(k),
                escape_json(v),
                sep
            ));
        }
        if self.meta.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        out.push_str("  \"results\": [\n");
        for (i, m) in self.measurements.iter().enumerate() {
            let sep = if i + 1 == self.measurements.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"group\": \"{}\", \"id\": \"{}\", \"median_ns\": {:.1}, \
                 \"q1_ns\": {:.1}, \"q3_ns\": {:.1}, \"mean_ns\": {:.1}, \
                 \"samples\": {}, \"iters\": {}}}{}\n",
                m.group, m.id, m.median_ns, m.q1_ns, m.q3_ns, m.mean_ns, m.samples, m.iters, sep
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(path, out)?;
        println!("wrote {path}");
        Ok(())
    }
}

/// A benchmark group; see [`Harness::group`].
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    samples: usize,
    target_sample: Duration,
}

impl Group<'_> {
    /// Sets the number of timed samples (at least 3).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(3);
        self
    }

    /// Measures `f`, which should call [`Bencher::iter`] exactly once.
    pub fn bench_function(&mut self, id: impl Display, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            samples: self.samples,
            target_sample: self.target_sample,
            result: None,
        };
        f(&mut b);
        let m = b.result.expect("bench_function body must call iter()");
        let m = Measurement {
            group: self.name.clone(),
            id: id.to_string(),
            ..m
        };
        println!(
            "{:<28} {:<24} {:>14}  [{} .. {}]  ({} samples x {} iters)",
            m.group,
            m.id,
            fmt_ns(m.median_ns),
            fmt_ns(m.q1_ns),
            fmt_ns(m.q3_ns),
            m.samples,
            m.iters
        );
        self.harness.measurements.push(m);
    }
}

/// Passed to the closure of [`Group::bench_function`]; call
/// [`Bencher::iter`] with the code under test.
pub struct Bencher {
    samples: usize,
    target_sample: Duration,
    result: Option<Measurement>,
}

impl Bencher {
    /// Runs `f` repeatedly: calibrates an iteration count so one sample
    /// takes roughly the target duration, then times `samples` samples.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        // Warm-up + calibration: grow the iteration count until one
        // sample is long enough to time reliably.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.target_sample || iters >= 1 << 20 {
                break;
            }
            let grow = if elapsed.is_zero() {
                16
            } else {
                (self.target_sample.as_nanos() / elapsed.as_nanos().max(1)).clamp(2, 16) as u64
            };
            iters = iters.saturating_mul(grow);
        }

        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let n = per_iter.len();
        self.result = Some(Measurement {
            group: String::new(),
            id: String::new(),
            median_ns: per_iter[n / 2],
            mean_ns: per_iter.iter().sum::<f64>() / n as f64,
            q1_ns: per_iter[n / 4],
            q3_ns: per_iter[3 * n / 4],
            samples: n,
            iters,
        });
    }
}

/// The current git commit (short hash, `-dirty` suffixed when the tree
/// has uncommitted changes that could alter a figure — see
/// [`porcelain_is_dirty`]), or `"unknown"` outside a git checkout —
/// recorded into bench JSON so every figure is traceable to the code
/// that produced it.
pub fn git_commit() -> String {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match run(&["rev-parse", "--short", "HEAD"]) {
        Some(hash) if !hash.is_empty() => {
            let dirty = run(&["status", "--porcelain"]).is_some_and(|s| porcelain_is_dirty(&s));
            if dirty {
                format!("{hash}-dirty")
            } else {
                hash
            }
        }
        _ => "unknown".to_string(),
    }
}

/// Does `git status --porcelain` text show a change that could alter a
/// bench figure? Untracked (`??`) paths cannot — nothing builds them —
/// and neither can the harness's own outputs, the `BENCH_*.json` files at
/// the repository root, which the first of two bench runs rewrites
/// before the second one stamps its commit.
pub fn porcelain_is_dirty(porcelain: &str) -> bool {
    porcelain.lines().any(|line| {
        let Some((status, path)) = line.trim_start().split_once(' ') else {
            return false;
        };
        // A rename reads `old -> new`; the new path is the one in the tree.
        let path = path.trim_start().rsplit(" -> ").next().unwrap_or_default();
        let path = path.trim_matches('"');
        let bench_output =
            !path.contains('/') && path.starts_with("BENCH_") && path.ends_with(".json");
        status != "??" && !bench_output
    })
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_serialises() {
        let mut h = Harness::new("selftest");
        let mut g = h.group("g");
        g.sample_size(3);
        g.bench_function("spin", |b| {
            b.iter(|| (0..100u64).map(black_box).sum::<u64>())
        });
        let x = 7u32;
        g.bench_function(format!("param/{x}"), |b| b.iter(|| x * 2));
        assert_eq!(h.measurements().len(), 2);
        assert_eq!(h.measurements()[1].id, "param/7");
        assert!(h.measurements().iter().all(|m| m.median_ns > 0.0));
        assert!(h
            .measurements()
            .iter()
            .all(|m| m.q1_ns <= m.median_ns && m.median_ns <= m.q3_ns));

        let path = std::env::temp_dir().join("relser_bench_selftest.json");
        h.write_json(path.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"id\": \"param/7\""));
        assert!(text.contains("\"bench\": \"selftest\""));
        assert!(text.contains("\"q1_ns\": ") && text.contains("\"q3_ns\": "));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn meta_is_written_and_escaped() {
        let mut h = Harness::new("metatest");
        h.set_meta("git_commit", git_commit());
        h.set_meta("seed", 42);
        h.set_meta("quoted", "a\"b");
        h.set_meta("seed", 43); // overwrite, not duplicate
        let mut g = h.group("g");
        g.sample_size(3);
        g.bench_function("noop", |b| b.iter(|| 1u32));

        let path = std::env::temp_dir().join("relser_bench_metatest.json");
        h.write_json(path.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"meta\": {"));
        assert!(text.contains("\"git_commit\": \""));
        assert!(text.contains("\"seed\": \"43\""));
        assert!(!text.contains("\"seed\": \"42\""));
        assert!(text.contains("\"quoted\": \"a\\\"b\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn git_commit_reports_something() {
        let c = git_commit();
        assert!(!c.is_empty());
    }

    #[test]
    fn only_tracked_source_changes_make_a_stamp_dirty() {
        assert!(porcelain_is_dirty(" M crates/x/src/y.rs"));
        assert!(porcelain_is_dirty("M  crates/x/src/y.rs"));
        assert!(porcelain_is_dirty("R  a.rs -> crates/x/src/y.rs"));
        assert!(porcelain_is_dirty(" M BENCH_net.json\n M Cargo.toml"));
        assert!(porcelain_is_dirty(" M crates/bench/BENCH_net.json"));
        assert!(!porcelain_is_dirty(""));
        assert!(!porcelain_is_dirty(" M BENCH_net.json"));
        assert!(!porcelain_is_dirty("M  BENCH_rsg_sgt.json"));
        assert!(!porcelain_is_dirty("?? scratch/"));
        assert!(!porcelain_is_dirty(
            "?? crates/x/src/new.rs\n M BENCH_net.json"
        ));
    }
}
