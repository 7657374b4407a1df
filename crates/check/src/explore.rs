//! The schedule-space explorer: drives a [`Scheduler`] through every
//! interleaving of a small workload under a controlled virtual clock.
//!
//! ## Execution model
//!
//! A *step* picks one unfinished transaction and submits its next
//! operation, exactly like the driver and the server sessions do:
//! `Granted` advances the cursor (committing after the last operation),
//! `Aborted` rolls the incarnation back to its first operation, and
//! `Blocked` parks the transaction until the next scheduler state change
//! (a grant, commit, or abort). A blocked probe is a *real* step — the
//! lock-based protocols register waits-for edges on it, so probe order
//! decides which transaction a deadlock aborts. When every unfinished
//! transaction is parked, the explorer deterministically aborts the
//! lowest-id one (the model-checking analogue of the server's waits-for
//! timeout). Each transaction gets a bounded number of incarnations; one
//! that exhausts the budget *gives up* (aborts for good), mirroring the
//! server sessions' livelock guard (`MAX_ATTEMPTS` in
//! `relser_server::session`), which keeps the choice tree finite.
//!
//! ## Strategies
//!
//! * [`Mode::Exhaustive`] — depth-first over every choice sequence.
//! * [`Mode::PrunedDfs`] — the same tree with sleep-set pruning
//!   (DPOR-lite): after fully exploring a *granted* step `t`, siblings'
//!   subtrees skip re-exploring `t` while its pending operation is
//!   independent of everything executed since. Independence is
//!   conservative — different transactions, non-conflicting operations,
//!   both grants; blocked probes and aborts never prune (they are
//!   order-sensitive). See DESIGN.md §10 for the soundness argument.
//! * [`Mode::RandomWalks`] — seeded uniformly-random walks for universes
//!   too large to enumerate.
//!
//! Every terminal (or truncated) execution is handed to the offline
//! [`oracle`](crate::oracle) suite; divergences come back typed, with the
//! exact choice sequence that reproduces them.

use crate::oracle::{check_execution, Divergence, ExecutionRecord};
use crate::rebuild::RsgSgtOracle;
use relser_core::ids::{OpId, TxnId};
use relser_core::op::Operation;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::{Decision, Scheduler, SchedulerKind};
use relser_server::TraceEvent;
use std::time::{Duration, Instant};

/// Exploration strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Every choice sequence, depth-first.
    Exhaustive,
    /// Depth-first with sleep-set (DPOR-lite) pruning.
    PrunedDfs,
    /// `walks` seeded uniformly-random walks.
    RandomWalks {
        /// Number of walks.
        walks: u64,
        /// Base seed (walk `k` uses `seed + k`).
        seed: u64,
    },
}

/// Explorer tunables.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Strategy.
    pub mode: Mode,
    /// Incarnations per transaction before it gives up (≥ 1).
    pub max_incarnations: u32,
    /// Per-path step cap; `None` derives a bound that normal executions
    /// cannot hit (paths are naturally finite, see the module docs).
    pub max_steps: Option<u32>,
    /// Stop after this many recorded paths (budget guard).
    pub max_paths: u64,
    /// Run the full-rebuild [`RsgSgtOracle`] in lockstep and flag any
    /// decision mismatch (meaningful for the RSG-SGT protocol).
    pub shadow: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            mode: Mode::Exhaustive,
            max_incarnations: 2,
            max_steps: None,
            max_paths: 1_000_000,
            shadow: false,
        }
    }
}

/// Counters for one exploration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExploreStats {
    /// Terminal (or truncated) executions oracle-checked.
    pub paths: u64,
    /// Distinct choice-tree nodes visited (fresh steps applied).
    pub nodes: u64,
    /// Steps re-applied while rebuilding sibling states (schedulers
    /// cannot be snapshotted, so backtracking replays the prefix).
    pub replay_steps: u64,
    /// Children skipped by sleep-set pruning.
    pub pruned: u64,
    /// Paths cut by the per-path step cap.
    pub truncated: u64,
    /// Transactions that exhausted their incarnation budget, across paths.
    pub gave_up: u64,
    /// Total oracle divergences found (all of them counted, even beyond
    /// the stored-report cap).
    pub divergences: u64,
    /// The `max_paths` budget was hit; coverage is incomplete.
    pub budget_hit: bool,
}

/// The result of one exploration.
#[derive(Debug)]
pub struct ExploreReport {
    /// Counters.
    pub stats: ExploreStats,
    /// The first divergences found (capped at [`MAX_STORED_DIVERGENCES`]).
    pub divergences: Vec<Divergence>,
    /// Wall-clock time of the exploration.
    pub wall: Duration,
}

impl ExploreReport {
    /// Did every oracle agree on every explored execution?
    pub fn clean(&self) -> bool {
        self.stats.divergences == 0
    }
}

/// Stored-divergence cap (all divergences are still *counted*).
pub const MAX_STORED_DIVERGENCES: usize = 32;

/// The model checker: explores the interleaving space of `kind` over a
/// universe and oracle-checks every execution.
pub struct ScheduleExplorer<'a> {
    txns: &'a TxnSet,
    spec: &'a AtomicitySpec,
    kind: SchedulerKind,
    cfg: ExploreConfig,
    max_steps: u32,
    stats: ExploreStats,
    divergences: Vec<Divergence>,
}

/// A sleep-set entry: a fully-explored granted step whose re-exploration
/// is postponed while it stays independent of everything executed since.
#[derive(Clone, Copy)]
struct SleepEntry {
    txn: usize,
    op: Operation,
}

/// What one step did (for sleep-set bookkeeping).
struct StepInfo {
    /// The operation, if the step was a grant.
    granted: Option<Operation>,
}

/// The mutable execution state along one path.
struct PathState<'a> {
    txns: &'a TxnSet,
    scheduler: Box<dyn Scheduler + Send>,
    shadow: Option<RsgSgtOracle>,
    cursor: Vec<u32>,
    started: Vec<bool>,
    done: Vec<bool>,
    blocked: Vec<bool>,
    incarnations: Vec<u32>,
    max_incarnations: u32,
    committed: Vec<TxnId>,
    log: Vec<OpId>,
    trace: Vec<TraceEvent>,
    steps: u32,
    gave_up: u32,
    shadow_mismatch: Option<String>,
}

impl<'a> PathState<'a> {
    fn new(
        txns: &'a TxnSet,
        spec: &AtomicitySpec,
        kind: SchedulerKind,
        shadow: bool,
        max_incarnations: u32,
    ) -> Self {
        PathState {
            txns,
            scheduler: kind.make(txns, spec),
            shadow: shadow.then(|| RsgSgtOracle::new(txns, spec)),
            cursor: vec![0; txns.len()],
            started: vec![false; txns.len()],
            done: vec![false; txns.len()],
            blocked: vec![false; txns.len()],
            incarnations: vec![0; txns.len()],
            max_incarnations,
            committed: Vec::new(),
            log: Vec::new(),
            trace: Vec::new(),
            steps: 0,
            gave_up: 0,
            shadow_mismatch: None,
        }
    }

    fn terminal(&self) -> bool {
        self.done.iter().all(|&d| d)
    }

    /// Transactions that may take the next step (unfinished, not parked).
    fn eligible(&self) -> Vec<usize> {
        (0..self.done.len())
            .filter(|&t| !self.done[t] && !self.blocked[t])
            .collect()
    }

    /// A scheduler state change happened: wake every parked transaction.
    fn wake_all(&mut self) {
        self.blocked.iter_mut().for_each(|b| *b = false);
    }

    /// Rolls transaction `t` back (the abort itself has already been
    /// applied to the scheduler) and starts its next incarnation — or
    /// gives up if the budget is spent.
    fn restart_or_give_up(&mut self, t: usize) {
        self.log.retain(|o| o.txn != TxnId(t as u32));
        if self.incarnations[t] >= self.max_incarnations {
            self.done[t] = true;
            self.gave_up += 1;
        } else {
            self.cursor[t] = 0;
            self.started[t] = false;
        }
        self.wake_all();
    }

    /// Applies one step for transaction `t` (must be eligible), then
    /// resolves any all-parked deadlock deterministically.
    fn step(&mut self, t: usize) -> StepInfo {
        debug_assert!(!self.done[t] && !self.blocked[t]);
        let txn = TxnId(t as u32);
        self.steps += 1;
        if !self.started[t] {
            self.incarnations[t] += 1;
            self.scheduler.begin(txn);
            if let Some(sh) = self.shadow.as_mut() {
                sh.begin(txn);
            }
            self.trace.push(TraceEvent::Begin(txn));
            self.started[t] = true;
        }
        let op = OpId::new(txn, self.cursor[t]);
        let decision = self.scheduler.request(op);
        if let Some(sh) = self.shadow.as_mut() {
            let other = sh.request(op);
            if other != decision {
                // Record the first mismatch and drop the shadow — its
                // state is no longer meaningful.
                self.shadow_mismatch = Some(format!(
                    "shadow disagreed at {}: primary {:?}, shadow {:?}",
                    self.txns.display_op(op),
                    decision,
                    other
                ));
                self.shadow = None;
            } else if matches!(other, Decision::Aborted(_)) {
                if let Some(sh) = self.shadow.as_mut() {
                    sh.abort(txn);
                }
            }
        }
        self.trace.push(TraceEvent::Decision(op, decision.clone()));
        let mut granted = None;
        match decision {
            Decision::Granted => {
                granted = Some(self.txns.op(op).expect("known op"));
                self.log.push(op);
                self.cursor[t] += 1;
                if self.cursor[t] as usize == self.txns.txn(txn).len() {
                    self.scheduler.commit(txn);
                    if let Some(sh) = self.shadow.as_mut() {
                        sh.commit(txn);
                    }
                    self.trace.push(TraceEvent::Commit(txn));
                    self.committed.push(txn);
                    self.done[t] = true;
                }
                self.wake_all();
            }
            Decision::Blocked { .. } => {
                self.blocked[t] = true;
            }
            Decision::Aborted(_) => {
                // Mirror the admission core: the abort is applied
                // atomically with the decision (replay relies on this).
                self.scheduler.abort(txn);
                self.restart_or_give_up(t);
            }
        }
        self.resolve_deadlock();
        StepInfo { granted }
    }

    /// While every unfinished transaction is parked, abort the lowest-id
    /// one — deterministic, so replayed prefixes reproduce it exactly.
    fn resolve_deadlock(&mut self) {
        while !self.terminal() && self.eligible().is_empty() {
            let t = (0..self.done.len())
                .find(|&t| !self.done[t])
                .expect("non-terminal state has an unfinished txn");
            let txn = TxnId(t as u32);
            self.scheduler.abort(txn);
            if let Some(sh) = self.shadow.as_mut() {
                sh.abort(txn);
            }
            self.trace.push(TraceEvent::Abort(txn));
            self.restart_or_give_up(t);
        }
    }

    fn into_record(self, path: Vec<TxnId>) -> ExecutionRecord {
        ExecutionRecord {
            path,
            committed: self.committed,
            log: self.log,
            trace: self.trace,
            shadow_mismatch: self.shadow_mismatch,
        }
    }
}

impl<'a> ScheduleExplorer<'a> {
    /// An explorer for `kind` over `(txns, spec)`.
    pub fn new(
        txns: &'a TxnSet,
        spec: &'a AtomicitySpec,
        kind: SchedulerKind,
        cfg: ExploreConfig,
    ) -> Self {
        assert!(cfg.max_incarnations >= 1);
        // Natural path-length bound (see module docs): grants are capped
        // by incarnations × program length, aborts by incarnations, and
        // blocked probes by one per transaction per state change. The
        // derived cap is a multiple of that, so only a runaway scheduler
        // can hit it.
        let n = txns.len() as u32;
        let inc = cfg.max_incarnations;
        let grants = txns.total_ops() as u32 * inc;
        let state_changes = grants + n * inc + n + 1;
        let derived = grants + state_changes * n + n * inc + 8;
        let max_steps = cfg.max_steps.unwrap_or(derived);
        ScheduleExplorer {
            txns,
            spec,
            kind,
            cfg,
            max_steps,
            stats: ExploreStats::default(),
            divergences: Vec::new(),
        }
    }

    /// Runs the exploration.
    pub fn explore(mut self) -> ExploreReport {
        let t0 = Instant::now();
        match self.cfg.mode {
            Mode::Exhaustive | Mode::PrunedDfs => {
                let state = self.fresh_state();
                let mut path = Vec::new();
                self.dfs(&mut path, state, Vec::new());
            }
            Mode::RandomWalks { walks, seed } => {
                for k in 0..walks {
                    if self.stats.budget_hit {
                        break;
                    }
                    self.random_walk(seed.wrapping_add(k));
                }
            }
        }
        ExploreReport {
            stats: self.stats,
            divergences: self.divergences,
            wall: t0.elapsed(),
        }
    }

    fn fresh_state(&self) -> PathState<'a> {
        PathState::new(
            self.txns,
            self.spec,
            self.kind,
            self.cfg.shadow,
            self.cfg.max_incarnations,
        )
    }

    /// Rebuilds the state for `path` from scratch (schedulers cannot be
    /// snapshotted; backtracking replays the prefix deterministically).
    fn replay_state(&mut self, path: &[TxnId]) -> PathState<'a> {
        let mut state = self.fresh_state();
        for &t in path {
            state.step(t.index());
        }
        self.stats.replay_steps += path.len() as u64;
        state
    }

    fn record_path(&mut self, state: PathState<'a>, path: &[TxnId], truncated: bool) {
        self.stats.paths += 1;
        if truncated {
            self.stats.truncated += 1;
        }
        self.stats.gave_up += state.gave_up as u64;
        if self.stats.paths >= self.cfg.max_paths {
            self.stats.budget_hit = true;
        }
        let record = state.into_record(path.to_vec());
        let found = check_execution(self.txns, self.spec, self.kind, &record);
        self.stats.divergences += found.len() as u64;
        for d in found {
            if self.divergences.len() < MAX_STORED_DIVERGENCES {
                self.divergences.push(d);
            }
        }
    }

    fn dfs(&mut self, path: &mut Vec<TxnId>, state: PathState<'a>, sleep: Vec<SleepEntry>) {
        if self.stats.budget_hit {
            return;
        }
        if state.terminal() || state.steps >= self.max_steps {
            let truncated = !state.terminal();
            self.record_path(state, path, truncated);
            return;
        }
        let eligible = state.eligible();
        let prune = self.cfg.mode == Mode::PrunedDfs;
        let mut state_opt = Some(state);
        // Inherited sleep entries plus grants fully explored at this node.
        let mut asleep = sleep;
        for t in eligible {
            if self.stats.budget_hit {
                return;
            }
            if prune && asleep.iter().any(|e| e.txn == t) {
                self.stats.pruned += 1;
                continue;
            }
            let mut st = match state_opt.take() {
                Some(s) => s,
                None => self.replay_state(path),
            };
            let info = st.step(t);
            self.stats.nodes += 1;
            // Only grant-steps commute; anything else (blocked probes
            // register waits-for edges, aborts roll state back) is
            // treated as dependent with everything: no inherited sleep.
            let child_sleep = match (prune, info.granted) {
                (true, Some(op_u)) => asleep
                    .iter()
                    .filter(|e| e.txn != t && !e.op.conflicts_with(op_u))
                    .copied()
                    .collect(),
                _ => Vec::new(),
            };
            path.push(TxnId(t as u32));
            self.dfs(path, st, child_sleep);
            path.pop();
            if prune {
                if let Some(op) = info.granted {
                    asleep.push(SleepEntry { txn: t, op });
                }
            }
        }
    }

    fn random_walk(&mut self, seed: u64) {
        let mut rng = seed | 1;
        let mut next = move |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            ((rng >> 16) as usize) % n
        };
        let mut state = self.fresh_state();
        let mut path = Vec::new();
        while !state.terminal() && state.steps < self.max_steps {
            let eligible = state.eligible();
            let t = eligible[next(eligible.len())];
            state.step(t);
            self.stats.nodes += 1;
            path.push(TxnId(t as u32));
        }
        let truncated = !state.terminal();
        self.record_path(state, &path, truncated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relser_classes::enumerate::schedule_count;
    use relser_core::paper::Figure2;

    fn explore(kind: SchedulerKind, mode: Mode) -> ExploreReport {
        let fig = Figure2::new();
        let cfg = ExploreConfig {
            mode,
            ..ExploreConfig::default()
        };
        ScheduleExplorer::new(&fig.txns, &fig.spec, kind, cfg).explore()
    }

    #[test]
    fn exhaustive_covers_at_least_the_abort_free_universe() {
        // Every abort-free choice sequence is one schedule of the
        // universe, so the path count is bounded below by the multinomial.
        let fig = Figure2::new();
        let report = explore(SchedulerKind::RsgSgt, Mode::Exhaustive);
        assert!(report.clean(), "{:?}", report.divergences);
        assert!(!report.stats.budget_hit);
        assert!(report.stats.paths >= schedule_count(&fig.txns).unwrap() as u64 / 2);
        assert_eq!(report.stats.truncated, 0, "derived step cap never hit");
    }

    #[test]
    fn all_five_protocols_are_clean_on_figure2() {
        for kind in SchedulerKind::all() {
            let report = explore(kind, Mode::Exhaustive);
            assert!(report.clean(), "{kind}: {:?}", report.divergences);
            assert!(!report.stats.budget_hit, "{kind}");
        }
    }

    #[test]
    fn pruning_skips_work_but_stays_clean() {
        let full = explore(SchedulerKind::RsgSgt, Mode::Exhaustive);
        let pruned = explore(SchedulerKind::RsgSgt, Mode::PrunedDfs);
        assert!(pruned.clean());
        assert!(pruned.stats.pruned > 0, "sleep sets pruned something");
        assert!(
            pruned.stats.nodes < full.stats.nodes,
            "pruned {} < full {}",
            pruned.stats.nodes,
            full.stats.nodes
        );
    }

    #[test]
    fn random_walks_are_deterministic_per_seed() {
        let a = explore(
            SchedulerKind::TwoPl,
            Mode::RandomWalks { walks: 50, seed: 9 },
        );
        let b = explore(
            SchedulerKind::TwoPl,
            Mode::RandomWalks { walks: 50, seed: 9 },
        );
        assert_eq!(a.stats.nodes, b.stats.nodes);
        assert_eq!(a.stats.paths, 50);
        assert!(a.clean());
    }

    #[test]
    fn shadow_lockstep_agrees_on_figure2() {
        let fig = Figure2::new();
        let cfg = ExploreConfig {
            shadow: true,
            ..ExploreConfig::default()
        };
        let report =
            ScheduleExplorer::new(&fig.txns, &fig.spec, SchedulerKind::RsgSgt, cfg).explore();
        assert!(report.clean(), "{:?}", report.divergences);
    }
}
