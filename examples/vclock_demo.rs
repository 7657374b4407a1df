//! The linear-time vector-clock certifier, end to end: certify the
//! paper's Figure 1 schedules (accept and violation, with a concrete
//! cycle witness), differentially validate against the explicit
//! Theorem 1 RSG over a batch of random universes, and time both
//! backends across a fixed-transaction-count scaling grid — the
//! Biswas–Enea regime in which certification is tractable and the
//! one-pass certifier is linear in the history length: O(|D(o)|) ≤ O(K)
//! work per operation o, for the transactions o depends on.
//!
//! ```text
//! cargo run --release --example vclock_demo            # full demo
//! cargo run --release --example vclock_demo -- --smoke # fast CI variant
//! ```
//!
//! Any certifier/oracle disagreement exits non-zero, so the demo doubles
//! as the CI `vclock-smoke` gate.

use relative_serializability::core::paper::Figure1;
use relative_serializability::core::rsg::Rsg;
use relative_serializability::core::vclock;
use relative_serializability::workload::{random_schedule, random_spec, random_txns, RandomConfig};
use std::time::Instant;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut clean = true;

    // Part 1: Figure 1 of the paper. S_ra is relatively serializable
    // (though not conflict serializable); a reshuffled variant is not,
    // and the certifier names the offending RSG cycle.
    let fig = Figure1::new();
    println!("== Figure 1 ==");
    let accept = fig.s_ra();
    let v = vclock::certify(&fig.txns, &accept, &fig.spec);
    let st = v.stats();
    println!("S_ra : {}", accept.display(&fig.txns));
    println!(
        "       acyclic={} (one pass: {} ops, clock width {}, {} cross arcs)",
        v.is_acyclic(),
        st.ops,
        st.width,
        st.cross_arcs
    );
    clean &= v.is_acyclic();
    let reject = fig
        .txns
        .parse_schedule("r2[y] w2[y] w3[x] r1[x] w1[x] w1[z] r2[x] w3[y] r1[y] w3[z]")
        .expect("valid schedule");
    let v = vclock::certify(&fig.txns, &reject, &fig.spec);
    println!("S_bad: {}", reject.display(&fig.txns));
    println!("       acyclic={}", v.is_acyclic());
    if let Some(w) = v.witness() {
        println!("       cycle: {}", w.render(&fig.txns));
    }
    clean &= !v.is_acyclic();

    // Part 2: differential validation against the explicit Theorem 1
    // RSG on random universes (the property suite in `relser-check`
    // runs 1000+ of these; this is the demo-sized slice).
    let batches = if smoke { 50 } else { 400 };
    println!("\n== differential vs Theorem 1 RSG: {batches} random universes ==");
    let mut accepts = 0usize;
    let mut violations = 0usize;
    for seed in 0..batches as u64 {
        let cfg = RandomConfig {
            txns: 2 + (seed as usize % 4),
            ops_per_txn: (1, 5),
            objects: 2 + (seed as usize % 3),
            theta: 0.5,
            write_ratio: 0.5,
        };
        let txns = random_txns(&cfg, 100 + seed);
        let spec = random_spec(&txns, 0.5, 200 + seed);
        let s = random_schedule(&txns, 300 + seed);
        let vc = vclock::certify(&txns, &s, &spec).is_acyclic();
        let rsg = Rsg::build(&txns, &s, &spec).is_acyclic();
        if vc != rsg {
            println!("  !! DISAGREEMENT at seed {seed}: vclock={vc} rsg={rsg}");
            clean = false;
        }
        if vc {
            accepts += 1;
        } else {
            violations += 1;
        }
    }
    println!("  {accepts} accepts, {violations} violations, all verdicts agree");

    // Part 3: the complexity story. Transaction count fixed at K=4, op
    // count growing 8x: the certifier's one pass stays near-linear while
    // the explicit RSG pays the superlinear depends-on closure.
    let grid: &[usize] = if smoke {
        &[25, 100]
    } else {
        &[25, 50, 100, 200]
    };
    println!("\n== scaling, K=4 transactions fixed (Biswas-Enea regime) ==");
    println!("{:>6}  {:>12}  {:>12}", "n", "vclock", "rsg oracle");
    for &m in grid {
        let cfg = RandomConfig {
            txns: 4,
            ops_per_txn: (m, m),
            objects: 6,
            theta: 0.5,
            write_ratio: 0.5,
        };
        let txns = random_txns(&cfg, 1994);
        let spec = random_spec(&txns, 0.5, 515);
        let s = random_schedule(&txns, 7);
        let t0 = Instant::now();
        let vc = vclock::certify(&txns, &s, &spec).is_acyclic();
        let t_vc = t0.elapsed();
        let t0 = Instant::now();
        let rsg = Rsg::build(&txns, &s, &spec).is_acyclic();
        let t_rsg = t0.elapsed();
        clean &= vc == rsg;
        println!("{:>6}  {:>12.1?}  {:>12.1?}", txns.total_ops(), t_vc, t_rsg);
    }

    if clean {
        println!("\nOK: certifier and oracle agree everywhere");
    } else {
        println!("\nFAIL: certifier diverged from the Theorem 1 oracle");
        std::process::exit(1);
    }
}
