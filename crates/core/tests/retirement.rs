//! Retirement waits for the predecessor *transaction*: the engine
//! retires a committed transaction only once no live transaction reaches
//! it in the transaction graph, because retiring by operation-level
//! reachability and pruning the retiree would hide a dependency that
//! closes a cycle (`relser_core::incremental`, "Rollback and
//! retirement").

use relser_core::ids::{OpId, TxnId};
use relser_core::incremental::{AdmitError, IncrementalRsg};
use relser_core::rsg::ArcKinds;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;

fn op(t: u32, j: u32) -> OpId {
    OpId::new(TxnId(t), j)
}

#[test]
fn retirement_waits_for_the_predecessor_transaction() {
    // X = w1[a] w1[b] is split for C and L but atomic for T. L's r3[b]
    // reaches X's w1[b]; C's r2[a] depends on X's w1[a] only, which
    // nothing live reaches. Operation by operation C is unreached, but
    // X, its predecessor, is reached. Had C retired, pruning its
    // accesses would hide from T's r4[d] its dependency on w1[a]
    // through C, and with it the F-arc w1[b] -> r4[d] that closes
    // r4[d] -F-> r3[q] -F-> w1[b] -F-> r4[d].
    let programs = ["w1[a] w1[b]", "r2[a] w2[d]", "r3[b] r3[q]", "w4[q] r4[d]"];
    let txns = TxnSet::parse(&programs).unwrap();
    let mut spec = AtomicitySpec::absolute(&txns);
    spec.set_breakpoints(TxnId(0), TxnId(1), &[1]).unwrap();
    spec.set_breakpoints(TxnId(0), TxnId(2), &[1]).unwrap();
    let mut engine = IncrementalRsg::new(&txns, &spec);
    for o in [op(2, 0), op(0, 0), op(0, 1)] {
        engine.try_admit(o).unwrap();
    }
    engine.commit(TxnId(0));
    engine.try_admit(op(1, 0)).unwrap();
    engine.try_admit(op(1, 1)).unwrap();
    engine.commit(TxnId(1));
    assert!(
        !engine.is_retired(TxnId(1)),
        "live L reaches X, X reaches C"
    );
    engine.try_admit(op(3, 0)).unwrap();
    engine.try_admit(op(2, 1)).unwrap();
    let rej = match engine.try_admit(op(3, 1)) {
        Err(AdmitError::Cycle(r)) => r,
        other => panic!("expected the cycle through X, got {other:?}"),
    };
    assert_eq!(rej.arc, (op(0, 1), op(3, 1), ArcKinds::F));
    assert_eq!(rej.cycle, vec![op(3, 1), op(2, 1), op(0, 1)]);
    engine.abort(TxnId(3));
    engine.commit(TxnId(2));
    assert_eq!(
        engine.retired_count(),
        3,
        "nothing live: all committed retire"
    );
}
