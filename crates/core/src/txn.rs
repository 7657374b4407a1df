//! Transactions and transaction sets, including the text DSL.
//!
//! The DSL mirrors the paper's notation: a transaction is a
//! whitespace-separated sequence of `r<i>[<obj>]` / `w<i>[<obj>]` tokens,
//! e.g. `T1 = r1[x] w1[x] w1[z] r1[y]` is written `"r1[x] w1[x] w1[z] r1[y]"`.
//! Transaction numbers in the DSL are 1-based (as in the paper) and map to
//! 0-based [`TxnId`]s.

use crate::error::{Error, Result};
use crate::ids::{ObjectId, ObjectTable, OpId, TxnId};
use crate::op::{AccessMode, Operation};
use crate::schedule::Schedule;

/// A transaction: a totally-ordered sequence of read/write operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    id: TxnId,
    ops: Vec<Operation>,
}

impl Transaction {
    /// Creates a transaction. Errors if `ops` is empty: the paper's model
    /// has no empty transactions, and empty transactions would make
    /// atomic-unit machinery degenerate.
    pub fn new(id: TxnId, ops: Vec<Operation>) -> Result<Self> {
        if ops.is_empty() {
            return Err(Error::Empty(format!("transaction {id}")));
        }
        Ok(Transaction { id, ops })
    }

    /// The transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Transactions are never empty, but clippy likes the pair.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The operations in program order.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// The `index`-th operation (0-based program order).
    pub fn op(&self, index: u32) -> Operation {
        self.ops[index as usize]
    }

    /// Iterates the transaction's [`OpId`]s in program order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        let id = self.id;
        (0..self.ops.len() as u32).map(move |j| OpId::new(id, j))
    }
}

/// A set of transactions sharing one object namespace — the paper's `T`.
///
/// Transaction ids are dense: `TxnId(k)` is the `k`-th transaction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxnSet {
    txns: Vec<Transaction>,
    objects: ObjectTable,
}

impl TxnSet {
    /// An empty set (populate with [`TxnSet::add`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name` ahead of any transaction that uses it. Object ids
    /// are handed out in interning order, so a generator that must know
    /// an object's id before it writes a transaction over it (placement
    /// by [`crate::shard::ShardMap`]) interns its names first.
    pub fn intern_object(&mut self, name: &str) -> ObjectId {
        self.objects.intern(name)
    }

    /// Adds a transaction built from `(mode, object-name)` pairs and returns
    /// its id.
    pub fn add(&mut self, ops: &[(AccessMode, &str)]) -> Result<TxnId> {
        let id = TxnId(u32::try_from(self.txns.len()).expect("too many transactions"));
        let ops: Vec<Operation> = ops
            .iter()
            .map(|&(mode, name)| Operation {
                mode,
                object: self.objects.intern(name),
            })
            .collect();
        self.txns.push(Transaction::new(id, ops)?);
        Ok(id)
    }

    /// Parses one transaction per DSL string; the `k`-th string must use
    /// transaction number `k+1`.
    ///
    /// ```
    /// use relser_core::txn::TxnSet;
    /// let t = TxnSet::parse(&["r1[x] w1[x]", "w2[y]"]).unwrap();
    /// assert_eq!(t.len(), 2);
    /// ```
    pub fn parse(sources: &[&str]) -> Result<Self> {
        let mut set = TxnSet::new();
        for (k, src) in sources.iter().enumerate() {
            let tokens = parse_op_tokens(src)?;
            if tokens.is_empty() {
                return Err(Error::Empty(format!("transaction T{}", k + 1)));
            }
            let mut ops = Vec::with_capacity(tokens.len());
            for tok in tokens {
                if tok.txn_number as usize != k + 1 {
                    return Err(Error::Parse(format!(
                        "operation `{}` carries transaction number {} but appears in the definition of T{}",
                        tok.raw,
                        tok.txn_number,
                        k + 1
                    )));
                }
                ops.push((tok.mode, tok.object));
            }
            let pairs: Vec<(AccessMode, &str)> =
                ops.iter().map(|(m, o)| (*m, o.as_str())).collect();
            set.add(&pairs)?;
        }
        Ok(set)
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Total number of operations across all transactions.
    pub fn total_ops(&self) -> usize {
        self.txns.iter().map(Transaction::len).sum()
    }

    /// The transactions in id order.
    pub fn txns(&self) -> &[Transaction] {
        &self.txns
    }

    /// The transaction with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; use [`TxnSet::get`] for a checked
    /// lookup.
    pub fn txn(&self, id: TxnId) -> &Transaction {
        &self.txns[id.index()]
    }

    /// Checked transaction lookup.
    pub fn get(&self, id: TxnId) -> Option<&Transaction> {
        self.txns.get(id.index())
    }

    /// Iterates all transaction ids.
    pub fn txn_ids(&self) -> impl ExactSizeIterator<Item = TxnId> {
        (0..self.txns.len() as u32).map(TxnId)
    }

    /// The operation named by `id`.
    pub fn op(&self, id: OpId) -> Result<Operation> {
        let txn = self.get(id.txn).ok_or(Error::UnknownTxn(id.txn))?;
        txn.ops()
            .get(id.index as usize)
            .copied()
            .ok_or(Error::UnknownOp(id))
    }

    /// Iterates every operation id of every transaction, grouped by
    /// transaction in id order.
    pub fn all_op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        self.txns.iter().flat_map(Transaction::op_ids)
    }

    /// The shared object table.
    pub fn objects(&self) -> &ObjectTable {
        &self.objects
    }

    /// Renders an operation the way the paper writes it, e.g. `r1[x]`.
    pub fn display_op(&self, id: OpId) -> String {
        match self.op(id) {
            Ok(op) => format!(
                "{}{}[{}]",
                op.mode.letter(),
                id.txn.0 + 1,
                self.objects.name(op.object)
            ),
            Err(_) => format!("{id:?}"),
        }
    }

    /// Parses a schedule over this transaction set from the DSL, e.g.
    /// `"r2[y] r1[x] w1[x] …"`. The schedule must be a permutation of all
    /// operations respecting each transaction's program order, and each
    /// token's mode/object must match the transaction definition.
    pub fn parse_schedule(&self, src: &str) -> Result<Schedule> {
        let tokens = parse_op_tokens(src)?;
        // Next-expected op index per transaction.
        let mut cursor = vec![0u32; self.txns.len()];
        let mut order = Vec::with_capacity(tokens.len());
        for tok in tokens {
            let txn_id = TxnId(tok.txn_number - 1);
            let txn = self.get(txn_id).ok_or(Error::UnknownTxn(txn_id))?;
            let j = cursor[txn_id.index()];
            let op_id = OpId::new(txn_id, j);
            let expected = txn
                .ops()
                .get(j as usize)
                .copied()
                .ok_or_else(|| Error::Parse(format!(
                    "schedule contains more operations of {txn_id} than the transaction has (at `{}`)",
                    tok.raw
                )))?;
            let obj = self.objects.get(&tok.object).ok_or_else(|| {
                Error::Parse(format!("unknown object `{}` in `{}`", tok.object, tok.raw))
            })?;
            if expected.mode != tok.mode || expected.object != obj {
                return Err(Error::Parse(format!(
                    "schedule token `{}` does not match the next operation of {txn_id}, which is `{}`",
                    tok.raw,
                    self.display_op(op_id)
                )));
            }
            cursor[txn_id.index()] = j + 1;
            order.push(op_id);
        }
        Schedule::new(self, order)
    }

    /// The serial schedule running transactions in the order given by
    /// `perm` (a permutation of all transaction ids).
    pub fn serial_schedule(&self, perm: &[TxnId]) -> Result<Schedule> {
        let mut order = Vec::with_capacity(self.total_ops());
        for &t in perm {
            let txn = self.get(t).ok_or(Error::UnknownTxn(t))?;
            order.extend(txn.op_ids());
        }
        Schedule::new(self, order)
    }
}

/// One parsed DSL token.
struct OpToken {
    raw: String,
    mode: AccessMode,
    txn_number: u32, // 1-based as written
    object: String,
}

/// Splits a DSL string into operation tokens. Grammar per token:
/// `('r'|'w') <digits> '[' <name> ']'`, where `<name>` is any non-empty
/// string without `]` or whitespace.
fn parse_op_tokens(src: &str) -> Result<Vec<OpToken>> {
    let mut out = Vec::new();
    for raw in src.split_whitespace() {
        let mut chars = raw.chars();
        let mode = match chars.next() {
            Some('r') => AccessMode::Read,
            Some('w') => AccessMode::Write,
            other => {
                return Err(Error::Parse(format!(
                    "token `{raw}` must start with `r` or `w` (got {other:?})"
                )))
            }
        };
        let rest: String = chars.collect();
        let bracket = rest
            .find('[')
            .ok_or_else(|| Error::Parse(format!("token `{raw}` is missing `[`")))?;
        let (num, obj_part) = rest.split_at(bracket);
        let txn_number: u32 = num.parse().map_err(|_| {
            Error::Parse(format!(
                "token `{raw}` has a bad transaction number `{num}`"
            ))
        })?;
        if txn_number == 0 {
            return Err(Error::Parse(format!(
                "token `{raw}`: transaction numbers are 1-based"
            )));
        }
        if !obj_part.ends_with(']') {
            return Err(Error::Parse(format!(
                "token `{raw}` is missing closing `]`"
            )));
        }
        let object = &obj_part[1..obj_part.len() - 1];
        if object.is_empty() {
            return Err(Error::Parse(format!(
                "token `{raw}` has an empty object name"
            )));
        }
        out.push(OpToken {
            raw: raw.to_owned(),
            mode,
            txn_number,
            object: object.to_owned(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_figure1_transactions() {
        let t = TxnSet::parse(&[
            "r1[x] w1[x] w1[z] r1[y]",
            "r2[y] w2[y] r2[x]",
            "w3[x] w3[y] w3[z]",
        ])
        .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_ops(), 10);
        assert_eq!(t.txn(TxnId(0)).len(), 4);
        assert_eq!(t.display_op(OpId::new(TxnId(0), 0)), "r1[x]");
        assert_eq!(t.display_op(OpId::new(TxnId(2), 2)), "w3[z]");
        // x, y, z interned once each.
        assert_eq!(t.objects().len(), 3);
    }

    #[test]
    fn wrong_txn_number_in_definition_rejected() {
        let err = TxnSet::parse(&["r1[x] w2[x]"]).unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err}");
    }

    #[test]
    fn empty_transaction_rejected() {
        let err = TxnSet::parse(&[""]).unwrap_err();
        assert!(matches!(err, Error::Empty(_)));
    }

    #[test]
    fn token_errors_are_specific() {
        assert!(TxnSet::parse(&["q1[x]"]).is_err());
        assert!(TxnSet::parse(&["r[x]"]).is_err());
        assert!(TxnSet::parse(&["r1x]"]).is_err());
        assert!(TxnSet::parse(&["r1[x"]).is_err());
        assert!(TxnSet::parse(&["r1[]"]).is_err());
        assert!(TxnSet::parse(&["r0[x]"]).is_err());
    }

    #[test]
    fn parse_schedule_roundtrip() {
        let t = TxnSet::parse(&["r1[x] w1[y]", "w2[x]"]).unwrap();
        let s = t.parse_schedule("r1[x] w2[x] w1[y]").unwrap();
        let rendered: Vec<String> = s.ops().iter().map(|&o| t.display_op(o)).collect();
        assert_eq!(rendered, vec!["r1[x]", "w2[x]", "w1[y]"]);
    }

    #[test]
    fn parse_schedule_checks_token_against_program() {
        let t = TxnSet::parse(&["r1[x] w1[y]"]).unwrap();
        // w1[x] is not the next op of T1 (r1[x] is).
        let err = t.parse_schedule("w1[x] w1[y]").unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err}");
    }

    #[test]
    fn parse_schedule_rejects_missing_ops() {
        let t = TxnSet::parse(&["r1[x] w1[y]"]).unwrap();
        let err = t.parse_schedule("r1[x]").unwrap_err();
        assert!(matches!(err, Error::NotAPermutation(_)), "{err}");
    }

    #[test]
    fn parse_schedule_rejects_extra_ops() {
        let t = TxnSet::parse(&["r1[x]"]).unwrap();
        let err = t.parse_schedule("r1[x] r1[x]").unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err}");
    }

    #[test]
    fn parse_schedule_rejects_unknown_txn() {
        let t = TxnSet::parse(&["r1[x]"]).unwrap();
        let err = t.parse_schedule("r1[x] w9[x]").unwrap_err();
        assert!(matches!(err, Error::UnknownTxn(_)), "{err}");
    }

    #[test]
    fn serial_schedule_in_permuted_order() {
        let t = TxnSet::parse(&["r1[x] w1[x]", "r2[x]"]).unwrap();
        let s = t.serial_schedule(&[TxnId(1), TxnId(0)]).unwrap();
        let rendered: Vec<String> = s.ops().iter().map(|&o| t.display_op(o)).collect();
        assert_eq!(rendered, vec!["r2[x]", "r1[x]", "w1[x]"]);
    }

    #[test]
    fn add_api_builds_transactions() {
        let mut t = TxnSet::new();
        let id = t
            .add(&[(AccessMode::Read, "acct_a"), (AccessMode::Write, "acct_a")])
            .unwrap();
        assert_eq!(id, TxnId(0));
        assert_eq!(t.txn(id).op(0).mode, AccessMode::Read);
        assert_eq!(t.display_op(OpId::new(id, 1)), "w1[acct_a]");
    }

    #[test]
    fn op_lookup_errors() {
        let t = TxnSet::parse(&["r1[x]"]).unwrap();
        assert!(t.op(OpId::new(TxnId(5), 0)).is_err());
        assert!(t.op(OpId::new(TxnId(0), 9)).is_err());
        assert!(t.op(OpId::new(TxnId(0), 0)).is_ok());
    }
}
