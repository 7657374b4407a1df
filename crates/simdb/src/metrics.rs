//! Simulation metrics: throughput, latency percentiles, aborts, mean
//! effective concurrency, and real (wall-clock) scheduler decision cost.

/// Wall-clock cost of the scheduler's per-request decisions during one
/// run. Unlike every other metric this measures *host* nanoseconds, not
/// simulated ticks — it is how the rebuild-vs-incremental RSG-SGT
/// formulations are compared (ablation A3 / the `incremental` bench).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecisionLatency {
    /// Number of `Scheduler::request` calls measured.
    pub decisions: u64,
    /// Total nanoseconds across all decisions.
    pub total_ns: u64,
    /// Mean nanoseconds per decision.
    pub mean_ns: f64,
    /// 95th-percentile nanoseconds per decision.
    pub p95_ns: u64,
    /// 99th-percentile nanoseconds per decision.
    pub p99_ns: u64,
    /// Slowest single decision.
    pub max_ns: u64,
}

impl DecisionLatency {
    /// Summarizes raw per-decision samples (empty samples → all zeros).
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return DecisionLatency::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let total: u64 = sorted.iter().sum();
        let quantile_idx =
            |q: f64| ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
        DecisionLatency {
            decisions: sorted.len() as u64,
            total_ns: total,
            mean_ns: total as f64 / sorted.len() as f64,
            p95_ns: sorted[quantile_idx(0.95)],
            p99_ns: sorted[quantile_idx(0.99)],
            max_ns: *sorted.last().unwrap(),
        }
    }

    /// Merges another summary into this one (per-shard → aggregate).
    ///
    /// Counts, totals, means, and maxima combine exactly. The p95/p99
    /// are conservative upper bounds (max of the two stream quantiles):
    /// without the raw samples the true merged quantile is
    /// unrecoverable, and for capacity reporting an over-estimate errs
    /// on the safe side. Callers holding raw samples should concatenate
    /// and re-run [`DecisionLatency::from_samples`] instead.
    pub fn merge(&mut self, other: &DecisionLatency) {
        self.decisions += other.decisions;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.mean_ns = if self.decisions == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.decisions as f64
        };
        self.p95_ns = self.p95_ns.max(other.p95_ns);
        self.p99_ns = self.p99_ns.max(other.p99_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// A log-linear latency histogram (nanoseconds): every power-of-two
/// octave is split into `SUB_BUCKETS` (8) equal sub-buckets.
///
/// Samples below `SUB_BUCKETS` get a bucket each (exact). From there a
/// sample with highest set bit `e` lands in octave `e`, in the sub-bucket
/// named by its next three bits, which spans `2^(e-3)` values — so a
/// bucket's bounds are within 12.5 % of every sample in it. Shared
/// between the simulator and `relser-server`: recording is O(1),
/// branch-light and allocation-free, merging is element-wise, and
/// quantiles are answered with bucket-upper-bound precision — tight
/// enough that differences of stage medians (the benchmark's
/// `net.outside_us`, `net.unattributed_us`) keep their sign, without
/// retaining per-sample vectors on the hot path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

/// Linear sub-buckets per octave (a power of two).
const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// `SUB_BUCKETS` exact buckets, then one row per octave 3..=63.
const BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, ns.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Mean sample, ns (0 if empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Largest recorded sample, ns.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`; 0 if empty). The true sample is at most 12.5 %
    /// below it.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(k);
            }
        }
        self.max_ns
    }

    /// Median: upper bound of the bucket holding the 50th-percentile
    /// sample. See [`LatencyHistogram::quantile_ns`].
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// Upper bound of the bucket holding the 99th-percentile sample.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Upper bound of the bucket holding the 99.9th-percentile sample —
    /// the tail the wire-to-wire latency report is about.
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }

    /// The bucket counting `ns`.
    #[inline]
    fn bucket_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros();
        let sub = (ns >> (octave - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
        (((octave - SUB_BITS + 1) as usize) << SUB_BITS) | sub
    }

    /// The largest sample bucket `k` counts, ns.
    #[inline]
    fn bucket_upper(k: usize) -> u64 {
        if k < SUB_BUCKETS {
            return k as u64;
        }
        let shift = (k >> SUB_BITS) as u32 - 1;
        let lower = ((SUB_BUCKETS + (k & (SUB_BUCKETS - 1))) as u64) << shift;
        lower + ((1u64 << shift) - 1)
    }

    /// Non-empty buckets as `(upper_bound_ns, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(k, &c)| (Self::bucket_upper(k), c))
            .collect()
    }
}

impl std::fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.0}ns p50<={}ns p95<={}ns p99<={}ns max={}ns",
            self.count,
            self.mean_ns(),
            self.quantile_ns(0.50),
            self.quantile_ns(0.95),
            self.quantile_ns(0.99),
            self.max_ns,
        )
    }
}

/// Aggregate statistics of one simulation run.
///
/// Equality deliberately ignores [`Metrics::scheduler_latency`]: it is
/// wall-clock noise, while everything else is a deterministic function of
/// the seed (the determinism property tests rely on this).
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Committed transactions.
    pub commits: u64,
    /// Abort/restart events.
    pub aborts: u64,
    /// Blocked-request events.
    pub blocked_events: u64,
    /// Total ticks from first arrival to last commit.
    pub makespan: u64,
    /// Commits per 1000 ticks.
    pub throughput_per_kilotick: f64,
    /// Mean commit latency (commit tick − arrival tick).
    pub mean_latency: f64,
    /// 95th-percentile commit latency.
    pub p95_latency: u64,
    /// Time-averaged number of in-flight transactions.
    pub mean_concurrency: f64,
    /// Wall-clock cost of the scheduler's decisions (not part of `==`).
    pub scheduler_latency: DecisionLatency,
}

impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        self.commits == other.commits
            && self.aborts == other.aborts
            && self.blocked_events == other.blocked_events
            && self.makespan == other.makespan
            && self.throughput_per_kilotick == other.throughput_per_kilotick
            && self.mean_latency == other.mean_latency
            && self.p95_latency == other.p95_latency
            && self.mean_concurrency == other.mean_concurrency
    }
}

impl Metrics {
    /// Merges another run's metrics into this one, for aggregating
    /// per-shard (or per-partition) statistics into a single report.
    ///
    /// Counters sum exactly. `makespan` takes the maximum — shards run
    /// concurrently over the same wall of ticks, so the aggregate span is
    /// the slowest shard's. Throughput is recomputed from the merged
    /// commit count over that span. Mean latency is commit-weighted and
    /// exact; `p95_latency` is the conservative maximum of the stream
    /// p95s (the raw per-commit samples are gone). Mean concurrency sums:
    /// each shard's in-flight transactions coexist on the wall clock, so
    /// time-averaged populations add (shards with a shorter makespan are
    /// scaled onto the merged span).
    pub fn merge(&mut self, other: &Metrics) {
        let merged_span = self.makespan.max(other.makespan).max(1);
        let commits = self.commits + other.commits;
        self.mean_latency = if commits == 0 {
            0.0
        } else {
            (self.mean_latency * self.commits as f64 + other.mean_latency * other.commits as f64)
                / commits as f64
        };
        self.mean_concurrency = (self.mean_concurrency * self.makespan as f64
            + other.mean_concurrency * other.makespan as f64)
            / merged_span as f64;
        self.commits = commits;
        self.aborts += other.aborts;
        self.blocked_events += other.blocked_events;
        self.makespan = merged_span;
        self.throughput_per_kilotick = commits as f64 * 1000.0 / merged_span as f64;
        self.p95_latency = self.p95_latency.max(other.p95_latency);
        self.scheduler_latency.merge(&other.scheduler_latency);
    }
}

/// Builds [`Metrics`] from per-transaction observations.
///
/// `spans` are `(arrival, commit)` tick pairs; `busy_integral` is the
/// running integral of in-flight transactions over time (Σ active·Δt);
/// `decision_ns` holds one wall-clock sample per `Scheduler::request`.
pub fn summarize(
    spans: &[(u64, u64)],
    aborts: u64,
    blocked_events: u64,
    busy_integral: u64,
    decision_ns: &[u64],
) -> Metrics {
    assert!(!spans.is_empty(), "no committed transactions to summarize");
    let first_arrival = spans.iter().map(|&(a, _)| a).min().unwrap_or(0);
    let last_commit = spans.iter().map(|&(_, c)| c).max().unwrap_or(0);
    let makespan = last_commit.saturating_sub(first_arrival).max(1);
    let mut latencies: Vec<u64> = spans.iter().map(|&(a, c)| c.saturating_sub(a)).collect();
    latencies.sort_unstable();
    let mean_latency = latencies.iter().sum::<u64>() as f64 / latencies.len() as f64;
    let p95_idx = ((latencies.len() as f64 * 0.95).ceil() as usize).clamp(1, latencies.len()) - 1;
    Metrics {
        commits: spans.len() as u64,
        aborts,
        blocked_events,
        makespan,
        throughput_per_kilotick: spans.len() as f64 * 1000.0 / makespan as f64,
        mean_latency,
        p95_latency: latencies[p95_idx],
        mean_concurrency: busy_integral as f64 / makespan as f64,
        scheduler_latency: DecisionLatency::from_samples(decision_ns),
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "commits={} aborts={} blocked={} makespan={} thru/kt={:.2} lat(mean)={:.1} lat(p95)={} conc={:.2} sched(mean)={:.0}ns sched(p95)={}ns",
            self.commits,
            self.aborts,
            self.blocked_events,
            self.makespan,
            self.throughput_per_kilotick,
            self.mean_latency,
            self.p95_latency,
            self.mean_concurrency,
            self.scheduler_latency.mean_ns,
            self.scheduler_latency.p95_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_summary() {
        let spans = vec![(0, 10), (0, 20), (5, 25)];
        let m = summarize(&spans, 2, 7, 40, &[]);
        assert_eq!(m.commits, 3);
        assert_eq!(m.aborts, 2);
        assert_eq!(m.blocked_events, 7);
        assert_eq!(m.makespan, 25);
        assert!((m.throughput_per_kilotick - 120.0).abs() < 1e-9);
        assert!((m.mean_latency - (10.0 + 20.0 + 20.0) / 3.0).abs() < 1e-9);
        assert_eq!(m.p95_latency, 20);
        assert!((m.mean_concurrency - 40.0 / 25.0).abs() < 1e-9);
    }

    #[test]
    fn single_txn_run() {
        let m = summarize(&[(3, 9)], 0, 0, 6, &[]);
        assert_eq!(m.makespan, 6);
        assert_eq!(m.p95_latency, 6);
        assert_eq!(m.commits, 1);
    }

    #[test]
    fn zero_span_clamps_makespan() {
        let m = summarize(&[(5, 5)], 0, 0, 0, &[]);
        assert_eq!(m.makespan, 1);
    }

    #[test]
    #[should_panic(expected = "no committed transactions")]
    fn empty_spans_panic() {
        summarize(&[], 0, 0, 0, &[]);
    }

    #[test]
    fn display_contains_key_figures() {
        let m = summarize(&[(0, 10)], 1, 2, 10, &[100, 200]);
        let s = m.to_string();
        assert!(s.contains("commits=1"));
        assert!(s.contains("aborts=1"));
        assert!(s.contains("sched(mean)=150ns"));
    }

    #[test]
    fn decision_latency_summary() {
        let d = DecisionLatency::from_samples(&[100, 300, 200, 1000]);
        assert_eq!(d.decisions, 4);
        assert_eq!(d.total_ns, 1600);
        assert!((d.mean_ns - 400.0).abs() < 1e-9);
        assert_eq!(d.p95_ns, 1000);
        assert_eq!(d.p99_ns, 1000);
        assert_eq!(d.max_ns, 1000);
        assert_eq!(
            DecisionLatency::from_samples(&[]),
            DecisionLatency::default()
        );
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let mut h = LatencyHistogram::new();
        for ns in [0u64, 1, 100, 100, 1000, 50_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.total_ns(), 51_201);
        assert_eq!(h.max_ns(), 50_000);
        // The p50 sample is 100 → sub-bucket [96, 103] of octave 64..127.
        assert_eq!(h.quantile_ns(0.50), 103);
        // The max sample 50_000 → sub-bucket [49152, 53247].
        assert_eq!(h.quantile_ns(1.0), 53_247);
        assert_eq!(h.quantile_ns(0.0), 0);
        let display = h.to_string();
        assert!(display.contains("n=6"), "{display}");
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = LatencyHistogram::new();
        a.record(10);
        let mut b = LatencyHistogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ns(), 1_000_000);
        assert_eq!(a.nonzero_buckets().len(), 2);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile_ns(1.0), u64::MAX);
        let empty = LatencyHistogram::new();
        assert_eq!(empty.quantile_ns(0.95), 0);
        assert_eq!(empty.mean_ns(), 0.0);
    }

    #[test]
    fn histogram_buckets_tile_the_range_within_an_eighth() {
        // Every sample's bucket bound is ≥ the sample and at most 12.5 %
        // above it, at every octave edge and in between; buckets are
        // contiguous (a bucket starts where the previous one ended).
        let mut probes = vec![0u64, 1, 7, 8, 9, 15, 16, 17, u64::MAX - 1, u64::MAX];
        for shift in 4..64 {
            let base = 1u64 << shift;
            probes.extend([base - 1, base, base + 1, base + base / 3, base + (base - 1)]);
        }
        for v in probes {
            let mut h = LatencyHistogram::new();
            h.record(v);
            let upper = h.quantile_ns(1.0);
            assert!(upper >= v, "bound {upper} below sample {v}");
            assert!(upper - v <= v / 8, "bound {upper} over 12.5 % above {v}");
        }
        for k in 1..BUCKETS {
            let start = LatencyHistogram::bucket_upper(k - 1) + 1;
            assert_eq!(LatencyHistogram::bucket_of(start), k);
            assert_eq!(
                LatencyHistogram::bucket_of(LatencyHistogram::bucket_upper(k)),
                k
            );
        }
    }

    #[test]
    fn histogram_named_quantiles_track_the_samples() {
        // 1000 samples 1..=1000: the pXX accessors must bracket the exact
        // rank statistic within one sub-bucket (upper bound ≥ exact, and
        // at most an eighth above it).
        let mut h = LatencyHistogram::new();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        for (got, exact) in [(h.p50_ns(), 500u64), (h.p99_ns(), 990), (h.p999_ns(), 999)] {
            assert!(got >= exact, "upper bound {got} below exact {exact}");
            assert!(
                got <= exact + exact / 8,
                "upper bound {got} over 12.5 % above exact {exact}"
            );
        }
        // Ordering between the named quantiles always holds.
        assert!(h.p50_ns() <= h.p99_ns());
        assert!(h.p99_ns() <= h.p999_ns());
        // p999 is a bucket upper bound, so it can exceed the exact max —
        // but never the max's own bucket upper bound.
        assert!(h.p999_ns() <= h.max_ns().next_power_of_two());
    }

    #[test]
    fn histogram_named_quantiles_survive_merge() {
        // Quantiles over a merged histogram equal quantiles over one
        // histogram fed the union stream — merge loses nothing the
        // buckets can express. The tail (p999) lives entirely in the
        // right-hand stream, so the merged p999 must come from it.
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..2000u64 {
            let ns = if i < 1990 {
                100 + i % 50
            } else {
                1_000_000 + i
            };
            whole.record(ns);
            if i % 3 == 0 {
                left.record(ns);
            } else {
                right.record(ns);
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged.p50_ns(), whole.p50_ns());
        assert_eq!(merged.p99_ns(), whole.p99_ns());
        assert_eq!(merged.p999_ns(), whole.p999_ns());
        assert!(merged.p999_ns() >= 1_000_000, "tail samples drive p999");
        assert!(merged.p50_ns() <= 256, "bulk samples drive p50");
        // Empty histograms answer 0 for every named quantile.
        let empty = LatencyHistogram::new();
        assert_eq!(empty.p50_ns(), 0);
        assert_eq!(empty.p999_ns(), 0);
    }

    #[test]
    fn metrics_merge_matches_single_stream_accumulation() {
        // Two shards' spans with identical per-commit latency and a shared
        // origin: every merged field (including p95) is then exact, so the
        // merge must equal summarizing the union stream directly.
        let shard_a = vec![(0, 10), (2, 12), (4, 14)];
        let shard_b = vec![(0, 10), (6, 16)];
        let union: Vec<(u64, u64)> = shard_a.iter().chain(&shard_b).copied().collect();
        let mut merged = summarize(&shard_a, 1, 3, 20, &[]);
        merged.merge(&summarize(&shard_b, 2, 4, 12, &[]));
        let single = summarize(&union, 3, 7, 32, &[]);
        assert_eq!(merged.commits, single.commits);
        assert_eq!(merged.aborts, single.aborts);
        assert_eq!(merged.blocked_events, single.blocked_events);
        assert_eq!(merged.makespan, single.makespan);
        assert!((merged.throughput_per_kilotick - single.throughput_per_kilotick).abs() < 1e-9);
        assert!((merged.mean_latency - single.mean_latency).abs() < 1e-9);
        assert_eq!(merged.p95_latency, single.p95_latency);
        assert!(
            (merged.mean_concurrency - single.mean_concurrency).abs() < 1e-9,
            "{} vs {}",
            merged.mean_concurrency,
            single.mean_concurrency
        );
    }

    #[test]
    fn histogram_merge_matches_single_stream_accumulation() {
        // Satellite check: splitting one sample stream across two
        // histograms and merging is byte-identical (PartialEq on the
        // whole struct) to recording the stream into one histogram.
        let samples: Vec<u64> = (0..200u64).map(|i| i * i * 37 % 100_000).collect();
        let mut whole = LatencyHistogram::new();
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            if i % 2 == 0 {
                left.record(s);
            } else {
                right.record(s);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn decision_latency_merge_is_exact_on_sums_conservative_on_p95() {
        let a = DecisionLatency::from_samples(&[100, 200, 300]);
        let b = DecisionLatency::from_samples(&[400, 500]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.decisions, 5);
        assert_eq!(merged.total_ns, 1500);
        assert!((merged.mean_ns - 300.0).abs() < 1e-9);
        assert_eq!(merged.max_ns, 500);
        // p95 is an upper bound on the true merged p95.
        let exact = DecisionLatency::from_samples(&[100, 200, 300, 400, 500]);
        assert!(merged.p95_ns >= exact.p95_ns);
        // Merging into the empty summary reproduces the other side.
        let mut empty = DecisionLatency::default();
        empty.merge(&b);
        assert_eq!(empty, b);
    }

    #[test]
    fn metrics_equality_ignores_wall_clock_latency() {
        let a = summarize(&[(0, 10)], 0, 0, 10, &[100]);
        let b = summarize(&[(0, 10)], 0, 0, 10, &[999_999]);
        assert_eq!(a, b, "scheduler latency is not part of ==");
    }
}
