//! Relative atomicity specifications.
//!
//! §2 of the paper: "an atomic unit of `T_i` relative to `T_j` is a sequence
//! of operations of `T_i` such that no operations of `T_j` are allowed to be
//! executed within this sequence. `Atomicity(T_i, T_j)` denotes the ordered
//! sequence of atomic units of `T_i` relative to `T_j`."
//!
//! Following Farrag–Özsu's equivalent *breakpoint* formulation (which the
//! paper cites in §2), the partition of `T_i` relative to `T_j` is stored as
//! a strictly-increasing set of breakpoints `b ∈ {1, …, len(T_i)-1}`, each
//! meaning "a unit boundary before the operation at 0-based program index
//! `b`". No breakpoints ⇒ absolute atomicity (one unit); all breakpoints ⇒
//! free interleaving (every operation its own unit).
//!
//! [`AtomicitySpec::push_forward`] and [`AtomicitySpec::pull_backward`] are
//! the paper's §3 `PushForward(o, T_k)` / `PullBackward(o, T_k)`: the last /
//! first operation of the atomic unit containing `o` relative to `T_k`.

use crate::error::{Error, Result};
use crate::ids::{OpId, TxnId};
use crate::txn::TxnSet;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// The relative atomicity specification for a whole transaction set: one
/// breakpoint set per *ordered* pair of distinct transactions.
///
/// The spec is a shared, copy-on-write value: `clone` is O(1) (two
/// reference-count bumps), and the first edit of a shared spec copies the
/// n × n breakpoint matrix once. Equality compares content, never identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtomicitySpec {
    /// Lengths of the transactions, indexed by `TxnId`. Fixed at
    /// construction.
    lens: Arc<[u32]>,
    /// `breaks[i * n + j]` = breakpoints of `Atomicity(T_i, T_j)`,
    /// strictly increasing, each in `1..lens[i]`. Diagonal entries unused.
    breaks: Arc<Vec<Vec<u32>>>,
}

impl AtomicitySpec {
    /// Absolute atomicity: every transaction is a single atomic unit with
    /// respect to every other transaction. Under this spec the paper's
    /// classes collapse onto the traditional ones (Lemma 1).
    pub fn absolute(txns: &TxnSet) -> Self {
        let n = txns.len();
        AtomicitySpec {
            lens: txns.txns().iter().map(|t| t.len() as u32).collect(),
            breaks: Arc::new(vec![Vec::new(); n * n]),
        }
    }

    /// Free interleaving: every operation is its own atomic unit with
    /// respect to every other transaction (Garcia-Molina's "arbitrarily
    /// interleaved" compatibility within a set).
    pub fn free(txns: &TxnSet) -> Self {
        Self::from_pairs(txns, |i, _| (1..txns.txn(i).len() as u32).collect())
            .expect("every interior breakpoint is valid")
    }

    /// Builds a spec whose `Atomicity(T_i, T_j)` is `pair(i, j)`, each
    /// checked as [`AtomicitySpec::set_breakpoints`] does. A bulk build
    /// pays neither a per-pair copy-on-write check nor a per-pair copy.
    pub(crate) fn from_pairs(
        txns: &TxnSet,
        mut pair: impl FnMut(TxnId, TxnId) -> Vec<u32>,
    ) -> Result<Self> {
        let mut spec = Self::absolute(txns);
        let n = spec.lens.len();
        let breaks = Arc::make_mut(&mut spec.breaks);
        for i in txns.txn_ids() {
            for j in txns.txn_ids().filter(|&j| j != i) {
                let bps = pair(i, j);
                check_breakpoints(&spec.lens, i, j, &bps)?;
                breaks[i.index() * n + j.index()] = bps;
            }
        }
        Ok(spec)
    }

    /// Number of transactions covered.
    pub fn txn_count(&self) -> usize {
        self.lens.len()
    }

    /// Length of transaction `t` as recorded by the spec.
    pub fn txn_len(&self, t: TxnId) -> u32 {
        self.lens[t.index()]
    }

    fn slot(&self, i: TxnId, j: TxnId) -> usize {
        debug_assert_ne!(i, j, "Atomicity(T_i, T_i) is undefined");
        i.index() * self.lens.len() + j.index()
    }

    /// Sets the breakpoints of `Atomicity(T_i, T_j)`.
    ///
    /// `breakpoints` must be strictly increasing with every value in
    /// `1..len(T_i)`.
    pub fn set_breakpoints(&mut self, i: TxnId, j: TxnId, breakpoints: &[u32]) -> Result<()> {
        check_breakpoints(&self.lens, i, j, breakpoints)?;
        let slot = self.slot(i, j);
        Arc::make_mut(&mut self.breaks)[slot] = breakpoints.to_vec();
        Ok(())
    }

    /// Sets `Atomicity(T_i, T_j)` from unit sizes, e.g. `[2, 2]` for a
    /// 4-operation transaction split into two 2-operation units.
    pub fn set_unit_sizes(&mut self, i: TxnId, j: TxnId, sizes: &[u32]) -> Result<()> {
        if i.index() >= self.lens.len() {
            return Err(Error::UnknownTxn(i));
        }
        if sizes.contains(&0) {
            return Err(Error::Empty("atomic unit".into()));
        }
        let total: u32 = sizes.iter().sum();
        if total != self.lens[i.index()] {
            return Err(Error::BadSpec(format!(
                "unit sizes {sizes:?} sum to {total}, but {i} has {} operations",
                self.lens[i.index()]
            )));
        }
        let mut breakpoints = Vec::with_capacity(sizes.len().saturating_sub(1));
        let mut acc = 0;
        for &s in &sizes[..sizes.len() - 1] {
            acc += s;
            breakpoints.push(acc);
        }
        self.set_breakpoints(i, j, &breakpoints)
    }

    /// Sets `Atomicity(T_i, T_j)` from the paper's visual notation, with `|`
    /// separating units:
    ///
    /// ```
    /// # use relser_core::prelude::*;
    /// let txns = TxnSet::parse(&["r1[x] w1[x] w1[z] r1[y]", "r2[y] w2[y] r2[x]"]).unwrap();
    /// let mut spec = AtomicitySpec::absolute(&txns);
    /// spec.set_units_str(&txns, 0, 1, "r1[x] w1[x] | w1[z] r1[y]").unwrap();
    /// assert_eq!(spec.breakpoints(TxnId(0), TxnId(1)), &[2]);
    /// ```
    ///
    /// Every operation of `T_i` must appear, in program order, with the
    /// correct mode and object; `i`/`j` are 0-based indexes here.
    pub fn set_units_str(&mut self, txns: &TxnSet, i: usize, j: usize, s: &str) -> Result<()> {
        let ti = TxnId(i as u32);
        let tj = TxnId(j as u32);
        let txn = txns.get(ti).ok_or(Error::UnknownTxn(ti))?;
        let mut breakpoints = Vec::new();
        let mut cursor: u32 = 0;
        for (unit_idx, unit_src) in s.split('|').enumerate() {
            let unit_src = unit_src.trim();
            if unit_src.is_empty() {
                return Err(Error::BadSpec(format!(
                    "unit {unit_idx} of Atomicity({ti}, {tj}) is empty"
                )));
            }
            if unit_idx > 0 {
                breakpoints.push(cursor);
            }
            for tok in unit_src.split_whitespace() {
                let expected = txn.ops().get(cursor as usize).ok_or_else(|| {
                    Error::BadSpec(format!(
                        "Atomicity({ti}, {tj}) lists more operations than {ti} has (at `{tok}`)"
                    ))
                })?;
                let want = format!(
                    "{}{}[{}]",
                    expected.mode.letter(),
                    ti.0 + 1,
                    txns.objects().name(expected.object)
                );
                if tok != want {
                    return Err(Error::BadSpec(format!(
                        "Atomicity({ti}, {tj}): expected `{want}` at position {cursor}, found `{tok}`"
                    )));
                }
                cursor += 1;
            }
        }
        if cursor != txn.len() as u32 {
            return Err(Error::BadSpec(format!(
                "Atomicity({ti}, {tj}) covers {cursor} of {} operations",
                txn.len()
            )));
        }
        self.set_breakpoints(ti, tj, &breakpoints)
    }

    /// The breakpoints of `Atomicity(T_i, T_j)`.
    pub fn breakpoints(&self, i: TxnId, j: TxnId) -> &[u32] {
        &self.breaks[self.slot(i, j)]
    }

    /// Number of atomic units of `T_i` relative to `T_j`.
    pub fn unit_count(&self, i: TxnId, j: TxnId) -> usize {
        self.breaks[self.slot(i, j)].len() + 1
    }

    /// The index (0-based) of the atomic unit of `T_i` relative to
    /// `observer` that contains operation index `op_index`.
    pub fn unit_of_index(&self, i: TxnId, observer: TxnId, op_index: u32) -> usize {
        let b = &self.breaks[self.slot(i, observer)];
        // Number of breakpoints <= op_index.
        b.partition_point(|&bp| bp <= op_index)
    }

    /// The unit containing operation `op`, relative to `observer`
    /// (`observer` must differ from `op.txn`).
    pub fn unit_of(&self, op: OpId, observer: TxnId) -> usize {
        self.unit_of_index(op.txn, observer, op.index)
    }

    /// Inclusive range of operation indices spanned by `unit` of
    /// `Atomicity(T_i, observer)`.
    pub fn unit_bounds(&self, i: TxnId, observer: TxnId, unit: usize) -> RangeInclusive<u32> {
        let b = &self.breaks[self.slot(i, observer)];
        let first = if unit == 0 { 0 } else { b[unit - 1] };
        let last = if unit == b.len() {
            self.lens[i.index()] - 1
        } else {
            b[unit] - 1
        };
        first..=last
    }

    /// `PushForward(o, T_k)` (§3): the *last* operation of the atomic unit
    /// of `o`'s transaction containing `o`, relative to `observer`.
    pub fn push_forward(&self, op: OpId, observer: TxnId) -> OpId {
        let unit = self.unit_of(op, observer);
        let last = *self.unit_bounds(op.txn, observer, unit).end();
        OpId::new(op.txn, last)
    }

    /// `PullBackward(o, T_k)` (§3): the *first* operation of the atomic
    /// unit of `o`'s transaction containing `o`, relative to `observer`.
    pub fn pull_backward(&self, op: OpId, observer: TxnId) -> OpId {
        let unit = self.unit_of(op, observer);
        let first = *self.unit_bounds(op.txn, observer, unit).start();
        OpId::new(op.txn, first)
    }

    /// `true` if every pair uses a single atomic unit — the traditional
    /// absolute-atomicity model.
    pub fn is_absolute(&self) -> bool {
        self.breaks.iter().all(Vec::is_empty)
    }

    /// Renders `Atomicity(T_i, T_j)` in the paper's boxed-units style using
    /// `|` separators, e.g. `r1[x] w1[x] | w1[z] r1[y]`.
    pub fn display_pair(&self, txns: &TxnSet, i: TxnId, j: TxnId) -> String {
        let txn = txns.txn(i);
        let b = self.breakpoints(i, j);
        let mut parts = Vec::new();
        let mut next_break = b.iter().peekable();
        for (idx, _) in txn.ops().iter().enumerate() {
            if next_break.peek() == Some(&&(idx as u32)) {
                parts.push("|".to_string());
                next_break.next();
            }
            parts.push(txns.display_op(OpId::new(i, idx as u32)));
        }
        parts.join(" ")
    }
}

/// Checks that `breakpoints` is a valid `Atomicity(T_i, T_j)` for
/// transactions of lengths `lens`: strictly increasing, each in
/// `1..len(T_i)`, with `i != j`.
fn check_breakpoints(lens: &[u32], i: TxnId, j: TxnId, breakpoints: &[u32]) -> Result<()> {
    if i.index() >= lens.len() {
        return Err(Error::UnknownTxn(i));
    }
    if j.index() >= lens.len() {
        return Err(Error::UnknownTxn(j));
    }
    if i == j {
        return Err(Error::BadSpec(format!(
            "Atomicity({i}, {i}) is undefined: a transaction has no atomicity relative to itself"
        )));
    }
    let len = lens[i.index()];
    for w in breakpoints.windows(2) {
        if w[0] >= w[1] {
            return Err(Error::BadSpec(format!(
                "breakpoints must be strictly increasing, got {breakpoints:?}"
            )));
        }
    }
    if let (Some(&first), Some(&last)) = (breakpoints.first(), breakpoints.last()) {
        if first == 0 || last >= len {
            return Err(Error::BadSpec(format!(
                "breakpoints of Atomicity({i}, {j}) must lie in 1..{len}, got {breakpoints:?}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> TxnSet {
        TxnSet::parse(&[
            "r1[x] w1[x] w1[z] r1[y]",
            "r2[y] w2[y] r2[x]",
            "w3[x] w3[y] w3[z]",
        ])
        .unwrap()
    }

    const T1: TxnId = TxnId(0);
    const T2: TxnId = TxnId(1);
    const T3: TxnId = TxnId(2);

    /// The full Figure 1 specification.
    fn fig1_spec(txns: &TxnSet) -> AtomicitySpec {
        let mut spec = AtomicitySpec::absolute(txns);
        spec.set_units_str(txns, 0, 1, "r1[x] w1[x] | w1[z] r1[y]")
            .unwrap();
        spec.set_units_str(txns, 0, 2, "r1[x] w1[x] | w1[z] | r1[y]")
            .unwrap();
        spec.set_units_str(txns, 1, 0, "r2[y] | w2[y] r2[x]")
            .unwrap();
        spec.set_units_str(txns, 1, 2, "r2[y] w2[y] | r2[x]")
            .unwrap();
        spec.set_units_str(txns, 2, 0, "w3[x] w3[y] | w3[z]")
            .unwrap();
        spec.set_units_str(txns, 2, 1, "w3[x] w3[y] | w3[z]")
            .unwrap();
        spec
    }

    #[test]
    fn absolute_spec_has_single_units() {
        let t = fig1();
        let spec = AtomicitySpec::absolute(&t);
        assert!(spec.is_absolute());
        assert_eq!(spec.unit_count(T1, T2), 1);
        assert_eq!(spec.unit_bounds(T1, T2, 0), 0..=3);
    }

    #[test]
    fn free_spec_has_singleton_units() {
        let t = fig1();
        let spec = AtomicitySpec::free(&t);
        assert!(!spec.is_absolute());
        assert_eq!(spec.unit_count(T1, T2), 4);
        for u in 0..4u32 {
            assert_eq!(spec.unit_bounds(T1, T2, u as usize), u..=u);
        }
    }

    #[test]
    fn figure1_units_parse_to_expected_breakpoints() {
        let t = fig1();
        let spec = fig1_spec(&t);
        assert_eq!(spec.breakpoints(T1, T2), &[2]);
        assert_eq!(spec.breakpoints(T1, T3), &[2, 3]);
        assert_eq!(spec.breakpoints(T2, T1), &[1]);
        assert_eq!(spec.breakpoints(T2, T3), &[2]);
        assert_eq!(spec.breakpoints(T3, T1), &[2]);
        assert_eq!(spec.breakpoints(T3, T2), &[2]);
    }

    #[test]
    fn push_forward_and_pull_backward_match_paper_examples() {
        // §3: "PushForward(r1[x], T2) is w1[x] and PullBackward(r1[y], T2)
        // is w1[z]."
        let t = fig1();
        let spec = fig1_spec(&t);
        let r1x = OpId::new(T1, 0);
        let r1y = OpId::new(T1, 3);
        assert_eq!(spec.push_forward(r1x, T2), OpId::new(T1, 1)); // w1[x]
        assert_eq!(spec.pull_backward(r1y, T2), OpId::new(T1, 2)); // w1[z]
    }

    #[test]
    fn unit_of_counts_breakpoints() {
        let t = fig1();
        let spec = fig1_spec(&t);
        // Atomicity(T1, T3) = [r1x w1x][w1z][r1y]
        assert_eq!(spec.unit_of(OpId::new(T1, 0), T3), 0);
        assert_eq!(spec.unit_of(OpId::new(T1, 1), T3), 0);
        assert_eq!(spec.unit_of(OpId::new(T1, 2), T3), 1);
        assert_eq!(spec.unit_of(OpId::new(T1, 3), T3), 2);
    }

    #[test]
    fn unit_bounds_cover_the_transaction() {
        let t = fig1();
        let spec = fig1_spec(&t);
        let mut covered = Vec::new();
        for u in 0..spec.unit_count(T1, T3) {
            covered.extend(spec.unit_bounds(T1, T3, u));
        }
        assert_eq!(covered, vec![0, 1, 2, 3]);
    }

    #[test]
    fn set_unit_sizes_equivalent_to_breakpoints() {
        let t = fig1();
        let mut a = AtomicitySpec::absolute(&t);
        a.set_unit_sizes(T1, T2, &[2, 2]).unwrap();
        assert_eq!(a.breakpoints(T1, T2), &[2]);
        // Wrong total rejected.
        assert!(a.set_unit_sizes(T1, T2, &[2, 3]).is_err());
        // Zero-size unit rejected.
        assert!(a.set_unit_sizes(T1, T2, &[0, 4]).is_err());
    }

    #[test]
    fn bad_breakpoints_rejected() {
        let t = fig1();
        let mut spec = AtomicitySpec::absolute(&t);
        assert!(spec.set_breakpoints(T1, T2, &[0]).is_err()); // 0 invalid
        assert!(spec.set_breakpoints(T1, T2, &[4]).is_err()); // == len invalid
        assert!(spec.set_breakpoints(T1, T2, &[2, 2]).is_err()); // not strict
        assert!(spec.set_breakpoints(T1, T2, &[3, 2]).is_err()); // decreasing
        assert!(spec.set_breakpoints(T1, T1, &[1]).is_err()); // diagonal
        assert!(spec.set_breakpoints(TxnId(9), T1, &[1]).is_err()); // unknown
        assert!(spec.set_breakpoints(T1, T2, &[1, 2, 3]).is_ok());
    }

    #[test]
    fn set_units_str_validates_coverage_and_tokens() {
        let t = fig1();
        let mut spec = AtomicitySpec::absolute(&t);
        // Missing an operation.
        assert!(spec.set_units_str(&t, 0, 1, "r1[x] w1[x] | w1[z]").is_err());
        // Wrong token.
        assert!(spec
            .set_units_str(&t, 0, 1, "w1[x] r1[x] | w1[z] r1[y]")
            .is_err());
        // Empty unit.
        assert!(spec
            .set_units_str(&t, 0, 1, "r1[x] w1[x] | | w1[z] r1[y]")
            .is_err());
        // Too many operations.
        assert!(spec
            .set_units_str(&t, 0, 1, "r1[x] w1[x] w1[z] r1[y] r1[y]")
            .is_err());
    }

    #[test]
    fn editing_a_clone_leaves_the_original_unchanged() {
        let t = fig1();
        let original = fig1_spec(&t);
        let mut copy = original.clone();
        copy.set_breakpoints(T1, T2, &[1, 2, 3]).unwrap();
        copy.set_unit_sizes(T3, T1, &[3]).unwrap();
        assert_eq!(original.breakpoints(T1, T2), &[2]);
        assert_eq!(original.unit_count(T3, T1), 2);
        assert_eq!(copy.breakpoints(T1, T2), &[1, 2, 3]);
        assert_eq!(copy.unit_count(T3, T1), 1);
    }

    #[test]
    fn editing_the_original_leaves_a_clone_unchanged() {
        let t = fig1();
        let mut original = fig1_spec(&t);
        let copy = original.clone();
        original.set_breakpoints(T1, T2, &[]).unwrap();
        original.set_unit_sizes(T2, T3, &[1, 1, 1]).unwrap();
        assert_eq!(copy.breakpoints(T1, T2), &[2]);
        assert_eq!(copy.unit_count(T2, T3), 2);
        assert_eq!(original.breakpoints(T1, T2), &[] as &[u32]);
        assert_eq!(original.unit_count(T2, T3), 3);
    }

    #[test]
    fn equality_compares_content_not_sharing() {
        let t = fig1();
        // Built separately: no storage in common, same content.
        assert_eq!(fig1_spec(&t), fig1_spec(&t));
        assert_eq!(AtomicitySpec::free(&t), AtomicitySpec::free(&t));
        let original = fig1_spec(&t);
        let mut copy = original.clone();
        assert_eq!(copy, original);
        // Rewriting a pair with its current value keeps equality.
        copy.set_breakpoints(T1, T2, &[2]).unwrap();
        assert_eq!(copy, original);
        copy.set_breakpoints(T1, T2, &[1]).unwrap();
        assert_ne!(copy, original);
    }

    #[test]
    fn display_pair_roundtrips() {
        let t = fig1();
        let spec = fig1_spec(&t);
        assert_eq!(spec.display_pair(&t, T1, T2), "r1[x] w1[x] | w1[z] r1[y]");
        assert_eq!(spec.display_pair(&t, T1, T3), "r1[x] w1[x] | w1[z] | r1[y]");
        let absolute = AtomicitySpec::absolute(&t);
        assert_eq!(absolute.display_pair(&t, T3, T1), "w3[x] w3[y] w3[z]");
    }
}
