//! Counterexample minimization and reporting.
//!
//! When exploration finds a divergence, the raw failing universe is
//! rarely the story — the story is the smallest universe that still
//! breaks. [`shrink`] delta-debugs greedily: it repeatedly tries to
//! delete whole transactions, then to truncate one operation off the end
//! of each surviving program, re-running the (deterministic, exhaustive)
//! explorer after every candidate edit and keeping it only if the
//! divergence survives. Both edits are sound universe restrictions —
//! [`Projection`] clamps the atomicity specification alongside — so the
//! result is a genuine sub-universe of the input, not a new workload.
//!
//! [`Counterexample::render`] pretty-prints the minimized universe: the
//! programs, the atomicity rows, the committed history, and — for
//! relative-serializability violations — the offending RSG cycle plus
//! the full graph in Graphviz `dot` form.

use crate::explore::{ExploreConfig, ExploreStats, ScheduleExplorer};
use crate::oracle::Divergence;
use relser_core::ids::TxnId;
use relser_core::project::Projection;
use relser_core::rsg::Rsg;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::SchedulerKind;

/// A minimized failing universe plus the divergence it still exhibits.
pub struct Counterexample {
    /// The protocol under test.
    pub kind: SchedulerKind,
    /// The minimized sub-universe (owns its `TxnSet` and spec; `kept()`
    /// maps back to original transaction ids).
    pub universe: Projection,
    /// The first divergence of the final exploration, in minimized
    /// universe coordinates.
    pub divergence: Divergence,
    /// Stats of the final (minimized) exploration.
    pub stats: ExploreStats,
}

impl Counterexample {
    /// Operation count of the minimized universe — the shrink metric.
    pub fn total_ops(&self) -> usize {
        self.universe.txns.total_ops()
    }

    /// Human-readable report: programs, atomicity rows, committed
    /// history, RSG cycle, and the graph as Graphviz `dot`.
    pub fn render(&self) -> String {
        let txns = &self.universe.txns;
        let spec = &self.universe.spec;
        let d = &self.divergence;
        let mut out = String::new();
        out.push_str(&format!(
            "counterexample for {}: {} ({} ops)\n",
            self.kind,
            d.kind.name(),
            self.total_ops()
        ));
        for t in txns.txn_ids() {
            let ops: Vec<String> = (0..txns.txn(t).len() as u32)
                .map(|i| txns.display_op(relser_core::ids::OpId::new(t, i)))
                .collect();
            out.push_str(&format!(
                "  T{} (originally T{}): {}\n",
                t.0 + 1,
                self.universe.kept()[t.index()].0 + 1,
                ops.join(" ")
            ));
        }
        for i in txns.txn_ids() {
            for j in txns.txn_ids() {
                if i != j {
                    out.push_str(&format!("  {}\n", spec.display_pair(txns, i, j)));
                }
            }
        }
        out.push_str(&format!(
            "  path: {:?}\n  committed: {:?}\n  history: {}\n  detail: {}\n",
            d.path,
            d.committed,
            d.history
                .iter()
                .map(|&o| txns.display_op(o))
                .collect::<Vec<_>>()
                .join(" "),
            d.detail
        ));
        // For relative-serializability violations, rebuild the committed
        // sub-universe's RSG and attach the cycle and the dot rendering.
        if let Ok(p) = Projection::subset(txns, spec, &d.committed) {
            if let Ok(schedule) = p.schedule(&d.history) {
                let rsg = Rsg::build(&p.txns, &schedule, &p.spec);
                if let Some(cycle) = rsg.find_cycle() {
                    out.push_str(&format!(
                        "  RSG cycle: {}\n",
                        cycle
                            .iter()
                            .map(|&o| p.txns.display_op(o))
                            .collect::<Vec<_>>()
                            .join(" -> ")
                    ));
                }
                out.push_str(&rsg.to_dot(&p.txns, "counterexample"));
            }
        }
        out
    }
}

/// Greedily minimizes `(txns, spec)` under an arbitrary reproduction
/// predicate: repeatedly deletes whole transactions, then truncates one
/// operation off each surviving program's end, keeping an edit only while
/// `repro` still holds on the resulting sub-universe. Returns the final
/// [`Projection`], or `None` when the full universe does not reproduce.
///
/// This is the delta-debugging core behind [`shrink`]; it is public so
/// other harnesses — notably the vector-clock differential suite — can
/// minimize their own failure conditions (e.g. "the one-pass certifier
/// disagrees with `Rsg::build` on this universe") without going through
/// the schedule explorer. `repro` must be deterministic, or minimization
/// becomes flaky.
pub fn shrink_universe(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    mut repro: impl FnMut(&Projection) -> bool,
) -> Option<Projection> {
    let mut attempt = |keep: &[TxnId], lens: &[u32]| -> Option<Projection> {
        let p = Projection::new(txns, spec, keep, lens).ok()?;
        repro(&p).then_some(p)
    };
    let mut keep: Vec<TxnId> = txns.txn_ids().collect();
    let mut lens: Vec<u32> = keep.iter().map(|&t| txns.txn(t).len() as u32).collect();
    let mut best = attempt(&keep, &lens)?;
    loop {
        let mut improved = false;
        // Pass 1: delete whole transactions.
        let mut i = 0;
        while keep.len() > 1 && i < keep.len() {
            let mut k2 = keep.clone();
            let mut l2 = lens.clone();
            k2.remove(i);
            l2.remove(i);
            if let Some(p) = attempt(&k2, &l2) {
                keep = k2;
                lens = l2;
                best = p;
                improved = true;
            } else {
                i += 1;
            }
        }
        // Pass 2: truncate one operation off each program's end.
        for i in 0..keep.len() {
            while lens[i] > 1 {
                let mut l2 = lens.clone();
                l2[i] -= 1;
                if let Some(p) = attempt(&keep, &l2) {
                    lens = l2;
                    best = p;
                    improved = true;
                } else {
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }
    Some(best)
}

/// Explores `(txns, spec)` under `kind` and, if any divergence is found,
/// greedily minimizes the universe and returns the [`Counterexample`].
/// Returns `None` when the full-universe exploration is clean.
///
/// `cfg.mode` should be a *complete* strategy (exhaustive or pruned DFS):
/// the shrink predicate is "the explorer still finds a divergence", and
/// an incomplete strategy would make minimization flaky.
pub fn shrink(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    cfg: &ExploreConfig,
) -> Option<Counterexample> {
    let mut best: Option<(Divergence, ExploreStats)> = None;
    let universe = shrink_universe(txns, spec, |p| {
        let report = ScheduleExplorer::new(&p.txns, &p.spec, kind, cfg.clone()).explore();
        match report.divergences.into_iter().next() {
            Some(d) => {
                best = Some((d, report.stats));
                true
            }
            None => false,
        }
    })?;
    // `shrink_universe` keeps an edit only when the predicate holds, so
    // the last recorded evidence belongs to the returned universe.
    let (divergence, stats) = best.expect("predicate held on the returned universe");
    Some(Counterexample {
        kind,
        universe,
        divergence,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DivergenceKind;
    use relser_core::paper::Figure2;

    #[test]
    fn clean_protocol_yields_no_counterexample() {
        let fig = Figure2::new();
        assert!(shrink(
            &fig.txns,
            &fig.spec,
            SchedulerKind::RsgSgt,
            &ExploreConfig::default()
        )
        .is_none());
    }

    #[test]
    fn planted_bug_is_caught_and_shrunk_to_the_4op_core() {
        // The swapped-orientation engine commits the inconsistent read of
        // `planted::refutation_universe`; the shrunk counterexample must
        // stay within the acceptance budget of 6 operations (the true
        // minimum here is 4 — every deletion or truncation breaks the
        // cycle).
        let (txns, spec) = relser_protocols::planted::refutation_universe();
        let cex = shrink(
            &txns,
            &spec,
            SchedulerKind::PlantedSwappedRsg,
            &ExploreConfig::default(),
        )
        .expect("the planted bug must be caught");
        assert!(cex.total_ops() <= 6, "shrunk to {} ops", cex.total_ops());
        assert_eq!(cex.total_ops(), 4);
        assert_eq!(cex.divergence.kind, DivergenceKind::CyclicRsg);
        let report = cex.render();
        assert!(report.contains("RSG cycle"), "{report}");
        assert!(report.contains("digraph"), "{report}");
    }

    #[test]
    fn shrink_universe_minimizes_under_a_plain_predicate() {
        // Predicate: the universe still has a write/read conflict on `x`.
        // Starting from three transactions with trailing noise, the
        // minimizer must land on exactly `w1[x]` vs `r2[x]`.
        let txns = relser_core::txn::TxnSet::parse(&["w1[x] w1[y]", "r2[x] r2[y]", "r3[u] w3[u]"])
            .unwrap();
        let spec = relser_core::spec::AtomicitySpec::absolute(&txns);
        let p = shrink_universe(&txns, &spec, |p| {
            let mut writes_x = false;
            let mut reads_x = false;
            for t in p.txns.txn_ids() {
                for &op in p.txns.txn(t).ops() {
                    if p.txns.objects().name(op.object) == "x" {
                        writes_x |= op.is_write() && t == TxnId(0);
                        reads_x |= !op.is_write() && t != TxnId(0);
                    }
                }
            }
            writes_x && reads_x
        })
        .expect("full universe satisfies the predicate");
        assert_eq!(p.txns.total_ops(), 2, "minimized to the conflicting pair");
        assert_eq!(p.txns.len(), 2);
        assert_eq!(p.kept(), &[TxnId(0), TxnId(1)]);
    }

    #[test]
    fn shrink_universe_returns_none_when_not_reproducing() {
        let txns = relser_core::txn::TxnSet::parse(&["r1[x]"]).unwrap();
        let spec = relser_core::spec::AtomicitySpec::absolute(&txns);
        assert!(shrink_universe(&txns, &spec, |_| false).is_none());
    }

    #[test]
    fn irrelevant_transactions_are_deleted() {
        // The refutation universe plus a bystander transaction on a fresh
        // object: the shrinker must delete the bystander and land on the
        // 4-op core.
        let txns = relser_core::txn::TxnSet::parse(&["w1[x] w1[y]", "r2[x] r2[y]", "r3[u] w3[u]"])
            .unwrap();
        let mut spec = relser_core::spec::AtomicitySpec::absolute(&txns);
        spec.set_units_str(&txns, 0, 1, "w1[x] | w1[y]").unwrap();
        let cex = shrink(
            &txns,
            &spec,
            SchedulerKind::PlantedSwappedRsg,
            &ExploreConfig::default(),
        )
        .expect("the planted bug must be caught");
        assert_eq!(cex.total_ops(), 4, "bystander deleted");
        assert_eq!(cex.universe.txns.len(), 2);
        assert!(!cex.universe.kept().contains(&TxnId(2)), "T3 dropped");
    }
}
