//! The twelve experiments of `EXPERIMENTS.md`, one function each.
//!
//! Every function is pure (seeded, no ambient state) and returns the
//! report text the `paper-tables` binary prints. The unit tests at the
//! bottom assert the substantive content of each report — the experiments
//! are part of the test suite, not just demo output.

use crate::row;
use crate::table::render;
use relser_classes::lattice::count_classes;
use relser_classes::relatively_consistent::{is_relatively_consistent, search};
use relser_core::classes::{classify, relative_seriality_violation_with_deps};
use relser_core::depends::DependsOn;
use relser_core::ids::TxnId;
use relser_core::paper::{Figure1, Figure2, Figure3, Figure4};
use relser_core::rsg::Rsg;
use relser_core::schedule::Schedule;
use relser_core::sg::is_conflict_serializable;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::altruistic::AltruisticLocking;
use relser_protocols::compat::CompatSet2Pl;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::sgt::ConflictSgt;
use relser_protocols::two_pl::TwoPhaseLocking;
use relser_protocols::unit_locking::UnitLocking;
use relser_protocols::Scheduler;
use relser_simdb::{simulate, ArrivalPattern, SimConfig};
use relser_workload::banking::{banking, BankingConfig};
use relser_workload::cad::{cad, CadConfig};
use relser_workload::longlived::{long_lived, LongLivedConfig};
use relser_workload::{random_schedule, random_spec, random_txns, RandomConfig};
use std::fmt::Write as _;
use std::time::Instant;

fn class_row(txns: &TxnSet, s: &Schedule, spec: &AtomicitySpec, name: &str) -> Vec<String> {
    let r = classify(txns, s, spec);
    row![
        name,
        s.display(txns),
        yn(r.serial),
        yn(r.relatively_atomic),
        yn(r.relatively_serial),
        yn(r.conflict_serializable),
        yn(r.relatively_serializable)
    ]
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// E1 — Figure 1 and the schedule `S_ra`: correct (relatively atomic) yet
/// non-serial.
pub fn e1() -> String {
    let fig = Figure1::new();
    let mut out = String::new();
    let _ = writeln!(out, "E1  Figure 1: relative atomicity specifications\n");
    for i in fig.txns.txn_ids() {
        for j in fig.txns.txn_ids() {
            if i != j {
                let _ = writeln!(
                    out,
                    "  Atomicity({i}, {j}):  {}",
                    fig.spec.display_pair(&fig.txns, i, j)
                );
            }
        }
    }
    let _ = writeln!(out);
    let rows = vec![
        class_row(&fig.txns, &fig.s_ra(), &fig.spec, "S_ra"),
        class_row(
            &fig.txns,
            &fig.txns
                .serial_schedule(&[TxnId(0), TxnId(1), TxnId(2)])
                .unwrap(),
            &fig.spec,
            "serial T1T2T3",
        ),
    ];
    out.push_str(&render(
        &[
            "schedule",
            "operations",
            "serial",
            "rel.atomic",
            "rel.serial",
            "CSR",
            "rel.SR",
        ],
        &rows,
    ));
    out.push_str(
        "\nPaper §2: \"even though S_ra is not a serial schedule, it is correct with\n\
         respect to the relative atomicity specifications\" — reproduced.\n",
    );
    out
}

/// E2 — `S_rs` (relatively serial, not relatively atomic) and `S_2`
/// (relatively serializable only), with the Theorem-1 witness for `S_2`.
pub fn e2() -> String {
    let fig = Figure1::new();
    let mut out = String::new();
    let _ = writeln!(out, "E2  §2 schedules S_rs and S_2 over Figure 1\n");
    let rows = vec![
        class_row(&fig.txns, &fig.s_rs(), &fig.spec, "S_rs"),
        class_row(&fig.txns, &fig.s_2(), &fig.spec, "S_2"),
    ];
    out.push_str(&render(
        &[
            "schedule",
            "operations",
            "serial",
            "rel.atomic",
            "rel.serial",
            "CSR",
            "rel.SR",
        ],
        &rows,
    ));
    let rsg = Rsg::build(&fig.txns, &fig.s_2(), &fig.spec);
    let witness = rsg
        .witness(&fig.txns)
        .expect("S_2 is relatively serializable");
    let _ = writeln!(
        out,
        "\nTheorem 1 witness for S_2 (topological sort of its acyclic RSG):\n  {}",
        witness.display(&fig.txns)
    );
    let _ = writeln!(
        out,
        "witness is relatively serial: {}\nwitness conflict-equivalent to S_2: {}",
        yn(relser_core::classes::is_relatively_serial(
            &fig.txns, &witness, &fig.spec
        )),
        yn(witness.conflict_equivalent(&fig.s_2(), &fig.txns))
    );
    out
}

/// E3 — Figure 2: direct conflicts are not sufficient; the transitive
/// depends-on relation is.
pub fn e3() -> String {
    let fig = Figure2::new();
    let s1 = fig.s_1();
    let transitive = DependsOn::compute(&fig.txns, &s1);
    let direct = DependsOn::direct(&fig.txns, &s1);
    let v_trans = relative_seriality_violation_with_deps(&fig.txns, &s1, &fig.spec, &transitive);
    let v_direct = relative_seriality_violation_with_deps(&fig.txns, &s1, &fig.spec, &direct);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E3  Figure 2: transitive vs direct-only dependencies\n"
    );
    let _ = writeln!(out, "  S1 = {}\n", s1.display(&fig.txns));
    let rows = vec![
        row![
            "transitive (paper)",
            match &v_trans {
                Some(v) => format!(
                    "REJECT: {} intrudes into unit {} of {} (dependency via {})",
                    fig.txns.display_op(v.op),
                    v.unit + 1,
                    v.owner,
                    v.dependency
                        .map(|d| fig.txns.display_op(d))
                        .unwrap_or_default()
                ),
                None => "accept".into(),
            }
        ],
        row![
            "direct-only (flawed)",
            match &v_direct {
                Some(_) => "REJECT".to_string(),
                None => "accept — WRONG: S1 violates the user's atomicity intent".into(),
            }
        ],
    ];
    out.push_str(&render(&["dependency relation", "verdict on S1"], &rows));
    out.push_str(
        "\nPaper: \"the effects from w2[y] to r1[z] should be captured in the depends\n\
         on relation, so as to rule out S1 as a correct schedule\" — reproduced.\n",
    );
    out
}

/// E4 — Figure 3: the published RSG, arc for arc.
pub fn e4() -> String {
    let fig = Figure3::new();
    let s2 = fig.s_2();
    let rsg = Rsg::build(&fig.txns, &s2, &fig.spec);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E4  Figure 3: the relative serialization graph of S2\n"
    );
    let _ = writeln!(out, "  S2 = {}\n", s2.display(&fig.txns));
    let rows: Vec<Vec<String>> = rsg
        .arcs()
        .into_iter()
        .map(|(a, b, kinds)| row![fig.txns.display_op(a), "->", fig.txns.display_op(b), kinds])
        .collect();
    out.push_str(&render(&["from", "", "to", "kinds"], &rows));
    let _ = writeln!(
        out,
        "\n{} arcs total (paper's drawing: 12).  RSG acyclic: {} → S2 is relatively serializable.",
        rsg.arc_count(),
        yn(rsg.is_acyclic())
    );
    let _ = writeln!(out, "\nGraphviz:\n{}", rsg.to_dot(&fig.txns, "figure3"));
    out
}

/// E5 — Figure 4: relatively serial but not relatively consistent.
pub fn e5() -> String {
    let fig = Figure4::new();
    let s = fig.s();
    let report = classify(&fig.txns, &s, &fig.spec);
    let (witness, stats) = search(&fig.txns, &s, &fig.spec);
    let mut out = String::new();
    let _ = writeln!(out, "E5  Figure 4: the class-separating schedule\n");
    let _ = writeln!(out, "  S = {}\n", s.display(&fig.txns));
    let rows = vec![
        row!["relatively serial (Def. 2)", yn(report.relatively_serial)],
        row![
            "relatively serializable (Thm. 1)",
            yn(report.relatively_serializable)
        ],
        row!["relatively consistent (Farrag-Ozsu)", yn(witness.is_some())],
        row!["F-O search states expanded", stats.states_expanded],
    ];
    out.push_str(&render(&["property", "value"], &rows));
    out.push_str(
        "\nPaper §4: S is relatively serial but \"not conflict equivalent to any\n\
         relatively atomic schedule\" — the strict inclusion of Figure 5, reproduced.\n",
    );
    out
}

/// E6 — Figure 5 measured: class counts over every schedule of small
/// universes.
pub fn e6() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E6  Figure 5 measured: exhaustive class counts\n");
    let mut rows = Vec::new();
    {
        let fig = Figure1::new();
        let (c, _) = count_classes(&fig.txns, &fig.spec);
        rows.push(row![
            "Figure 1 universe",
            c.total,
            c.serial,
            c.relatively_atomic,
            c.relatively_consistent,
            c.relatively_serial,
            c.relatively_serializable,
            c.conflict_serializable
        ]);
    }
    {
        let fig = Figure4::new();
        let (c, _) = count_classes(&fig.txns, &fig.spec);
        rows.push(row![
            "Figure 4 universe",
            c.total,
            c.serial,
            c.relatively_atomic,
            c.relatively_consistent,
            c.relatively_serial,
            c.relatively_serializable,
            c.conflict_serializable
        ]);
    }
    {
        let fig = Figure1::new();
        let absolute = AtomicitySpec::absolute(&fig.txns);
        let (c, _) = count_classes(&fig.txns, &absolute);
        rows.push(row![
            "Figure 1, absolute spec",
            c.total,
            c.serial,
            c.relatively_atomic,
            c.relatively_consistent,
            c.relatively_serial,
            c.relatively_serializable,
            c.conflict_serializable
        ]);
    }
    out.push_str(&render(
        &[
            "universe",
            "schedules",
            "serial",
            "rel.atomic",
            "rel.consistent",
            "rel.serial",
            "rel.SR",
            "CSR",
        ],
        &rows,
    ));
    out.push_str(
        "\nContainments (Figure 5): serial ⊆ rel.atomic ⊆ rel.consistent ⊆ rel.SR and\n\
         rel.atomic ⊆ rel.serial ⊆ rel.SR — all verified per-schedule during counting.\n\
         Under the absolute spec the lattice collapses to the classical one (Lemma 1).\n",
    );
    out
}

/// E7 — Lemma 1: under absolute atomicity, relatively serializable ⇔
/// conflict serializable (exhaustive + sampled checks).
pub fn e7() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E7  Lemma 1: absolute atomicity reduces to classical theory\n"
    );
    let mut rows = Vec::new();
    // Exhaustive on a small universe.
    {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "w2[x] r2[y]", "w3[y]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut total = 0u64;
        let mut agree = 0u64;
        relser_classes::enumerate::for_each_schedule(&txns, |s| {
            total += 1;
            if Rsg::build(&txns, s, &spec).is_acyclic() == is_conflict_serializable(&txns, s) {
                agree += 1;
            }
            true
        });
        rows.push(row!["exhaustive 3-txn universe", total, agree]);
    }
    // Sampled on larger random universes.
    for seed in 0..3u64 {
        let cfg = RandomConfig {
            txns: 5,
            ops_per_txn: (2, 4),
            objects: 4,
            ..Default::default()
        };
        let txns = random_txns(&cfg, seed);
        let spec = AtomicitySpec::absolute(&txns);
        let mut agree = 0u64;
        let total = 500u64;
        for s_seed in 0..total {
            let s = random_schedule(&txns, s_seed);
            if Rsg::build(&txns, &s, &spec).is_acyclic() == is_conflict_serializable(&txns, &s) {
                agree += 1;
            }
        }
        rows.push(row![format!("random universe (seed {seed})"), total, agree]);
    }
    out.push_str(&render(
        &["universe", "schedules checked", "verdicts agree"],
        &rows,
    ));
    out
}

/// E8 — complexity: the polynomial RSG test vs the exponential
/// relatively-consistent search.
pub fn e8() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E8  Complexity: RSG test (polynomial) vs F-O search (exponential)\n"
    );

    // (a) RSG scaling: growing operation counts.
    let mut rows = Vec::new();
    for &short in &[8usize, 16, 32, 64, 128] {
        let sc = long_lived(
            &LongLivedConfig {
                short_txns: short,
                steps: 8,
                objects: short.max(8),
                ..Default::default()
            },
            1,
        );
        let s = random_schedule(&sc.txns, 1);
        let start = Instant::now();
        let rsg = Rsg::build(&sc.txns, &s, &sc.spec);
        let acyclic = rsg.is_acyclic();
        let dt = start.elapsed();
        rows.push(row![
            s.len(),
            rsg.arc_count(),
            yn(acyclic),
            format!("{:.3} ms", dt.as_secs_f64() * 1e3)
        ]);
    }
    out.push_str("  (a) RSG build + acyclicity vs schedule size\n\n");
    out.push_str(&render(&["ops", "arcs", "acyclic", "time"], &rows));

    // (b) F-O search on the adversarial trap family: the search must
    // exhaust ≈3^k memoized states before concluding "inconsistent",
    // while the RSG test rejects the same schedules in microseconds.
    let mut rows = Vec::new();
    for k in [2usize, 4, 6, 8, 10] {
        let (txns, spec, s) = adversarial_family(k);
        let start = Instant::now();
        let (witness, stats) = search(&txns, &s, &spec);
        let fo_time = start.elapsed();
        let start = Instant::now();
        let rsg_acyclic = Rsg::build(&txns, &s, &spec).is_acyclic();
        let rsg_time = start.elapsed();
        rows.push(row![
            txns.len(),
            s.len(),
            yn(witness.is_some()),
            stats.states_expanded,
            format!("{:.3} ms", fo_time.as_secs_f64() * 1e3),
            yn(rsg_acyclic),
            format!("{:.3} ms", rsg_time.as_secs_f64() * 1e3)
        ]);
    }
    out.push_str("\n  (b) Farrag-Ozsu relatively-consistent search, adversarial trap family\n\n");
    out.push_str(&render(
        &[
            "txns",
            "ops",
            "consistent",
            "FO states",
            "FO time",
            "RSG acyclic",
            "RSG time",
        ],
        &rows,
    ));
    out.push_str(
        "\nStates expanded grow exponentially with the transaction count while the RSG\n\
         test stays polynomial — the tractability gap the paper's Theorem 1 closes.\n",
    );
    out
}

/// The adversarial family for E8(b): a provably-inconsistent *trap* whose
/// proof of inconsistency requires exhausting an exponential state space.
///
/// Two gate transactions `G = w[p] w[q]` and `H = w[q'] w[p']` are
/// mutually atomic and their conflicts cross (`g1 < h2` on `p`, `h1 < g2`
/// on `q` in the tested schedule), so **no** relatively atomic equivalent
/// exists: whichever gate starts, the other gate's pending operation is
/// trapped inside its open unit. On top sit `k` two-operation *free*
/// transactions (fully breakpointed, touching private objects): they never
/// interact with the trap, but every combination of their cursors is a
/// distinct memoization state the depth-first search must prove dead —
/// ≈ `3^k` states — while the polynomial RSG test rejects the same
/// schedule instantly.
pub fn adversarial_family(k: usize) -> (TxnSet, AtomicitySpec, Schedule) {
    let mut sources: Vec<String> = (0..k)
        .map(|i| format!("w{0}[f{1}a] w{0}[f{1}b]", i + 1, i))
        .collect();
    let g = k + 1; // 1-based DSL numbers
    let h = k + 2;
    sources.push(format!("w{g}[p] w{g}[q]"));
    sources.push(format!("w{h}[q] w{h}[p]"));
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let txns = TxnSet::parse(&refs).unwrap();

    let mut spec = AtomicitySpec::absolute(&txns);
    let gate_g = TxnId(k as u32);
    let gate_h = TxnId(k as u32 + 1);
    for i in txns.txn_ids() {
        for j in txns.txn_ids() {
            if i == j {
                continue;
            }
            // Gates stay mutually absolute; every other pair is free.
            if (i == gate_g && j == gate_h) || (i == gate_h && j == gate_g) {
                continue;
            }
            let all: Vec<u32> = (1..txns.txn(i).len() as u32).collect();
            spec.set_breakpoints(i, j, &all).unwrap();
        }
    }

    // Schedule: free transactions serially, then the crossing gates.
    let mut text = String::new();
    for i in 0..k {
        let _ = write!(text, "w{0}[f{1}a] w{0}[f{1}b] ", i + 1, i);
    }
    let _ = write!(text, "w{g}[p] w{h}[q] w{g}[q] w{h}[p]");
    let s = txns.parse_schedule(text.trim()).unwrap();
    (txns, spec, s)
}

/// E9 — Theorem 1 both directions, checked against exhaustive ground
/// truth on a small universe.
pub fn e9() -> String {
    let fig = Figure2::new(); // 5 ops, 30 schedules: exhaustive is trivial
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E9  Theorem 1 ground truth (exhaustive over Figure 2's universe)\n"
    );
    let mut total = 0u64;
    let mut rsg_accepts = 0u64;
    let mut witness_ok = 0u64;
    let mut truth_agrees = 0u64;
    // Ground truth: S is relatively serializable iff some enumerated
    // schedule is conflict-equivalent to S and relatively serial.
    let all: Vec<Schedule> = relser_classes::enumerate::all_schedules(&fig.txns);
    for s in &all {
        total += 1;
        let rsg = Rsg::build(&fig.txns, s, &fig.spec);
        let accepted = rsg.is_acyclic();
        let truth = all.iter().any(|c| {
            c.conflict_equivalent(s, &fig.txns)
                && relser_core::classes::is_relatively_serial(&fig.txns, c, &fig.spec)
        });
        if accepted == truth {
            truth_agrees += 1;
        }
        if accepted {
            rsg_accepts += 1;
            let w = rsg.witness(&fig.txns).unwrap();
            if w.conflict_equivalent(s, &fig.txns)
                && relser_core::classes::is_relatively_serial(&fig.txns, &w, &fig.spec)
            {
                witness_ok += 1;
            }
        }
    }
    let rows = vec![
        row!["schedules enumerated", total],
        row!["RSG-acyclic (accepted)", rsg_accepts],
        row!["ground truth agrees with RSG verdict", truth_agrees],
        row!["witnesses valid (rel. serial + equivalent)", witness_ok],
    ];
    out.push_str(&render(&["quantity", "count"], &rows));
    out
}

/// E10 — acceptance rates of random schedules per class as the
/// specification loosens.
pub fn e10() -> String {
    let cfg = RandomConfig {
        txns: 4,
        ops_per_txn: (3, 4),
        objects: 4,
        theta: 0.6,
        write_ratio: 0.5,
    };
    let txns = random_txns(&cfg, 42);
    let samples = 400u64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E10  Acceptance rate of {samples} random schedules vs spec looseness\n     ({} txns, {} ops, seed 42)\n",
        txns.len(),
        txns.total_ops()
    );
    let mut rows = Vec::new();
    for &p in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        let spec = random_spec(&txns, p, 7);
        let mut ra = 0u64;
        let mut rs = 0u64;
        let mut rsr = 0u64;
        let mut csr = 0u64;
        for seed in 0..samples {
            let s = random_schedule(&txns, seed);
            let r = classify(&txns, &s, &spec);
            ra += u64::from(r.relatively_atomic);
            rs += u64::from(r.relatively_serial);
            rsr += u64::from(r.relatively_serializable);
            csr += u64::from(r.conflict_serializable);
        }
        let pct = |x: u64| format!("{:.1}%", 100.0 * x as f64 / samples as f64);
        rows.push(row![
            format!("{p:.2}"),
            pct(ra),
            pct(rs),
            pct(rsr),
            pct(csr)
        ]);
    }
    out.push_str(&render(
        &[
            "breakpoint prob.",
            "rel.atomic",
            "rel.serial",
            "rel.SR",
            "CSR",
        ],
        &rows,
    ));
    out.push_str(
        "\nLoosening the specification monotonically grows every relative class while\n\
         conflict serializability stays fixed — the concurrency headroom of §1.\n",
    );
    out
}

/// E11 — scheduler comparison on the long-lived-transaction workload.
pub fn e11() -> String {
    let sc = long_lived(
        &LongLivedConfig {
            long_txns: 1,
            steps: 8,
            short_txns: 8,
            objects: 8,
            ..Default::default()
        },
        3,
    );
    let seeds: Vec<u64> = (0..10).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E11  Protocol comparison, long-lived workload (1 long txn x {} steps, {} short txns; {} seeds)\n",
        8, 8, seeds.len()
    );
    let mut rows = Vec::new();
    type MkSched<'a> = Box<dyn Fn() -> Box<dyn Scheduler> + 'a>;
    let groups_all_separate: Vec<usize> = (0..sc.txns.len()).collect();
    let protocols: Vec<(&str, MkSched)> = vec![
        ("2PL", Box::new(|| Box::new(TwoPhaseLocking::new(&sc.txns)))),
        ("SGT", Box::new(|| Box::new(ConflictSgt::new(&sc.txns)))),
        (
            "Altruistic",
            Box::new(|| Box::new(AltruisticLocking::new(&sc.txns))),
        ),
        (
            "SpecAltruistic",
            Box::new(|| Box::new(AltruisticLocking::with_spec(&sc.txns, &sc.spec))),
        ),
        (
            "CompatSet-2PL",
            Box::new(|| Box::new(CompatSet2Pl::new(&sc.txns, &groups_all_separate))),
        ),
        (
            "UnitLocking",
            Box::new(|| Box::new(UnitLocking::new(&sc.txns, &sc.spec))),
        ),
        (
            "RSG-SGT",
            Box::new(|| Box::new(RsgSgt::new(&sc.txns, &sc.spec))),
        ),
    ];
    for (name, mk) in &protocols {
        let mut thru = 0.0;
        let mut lat = 0.0;
        let mut p95 = 0u64;
        let mut aborts = 0u64;
        let mut conc = 0.0;
        let mut sched_ns = 0.0;
        for &seed in &seeds {
            let cfg = SimConfig {
                seed,
                arrival: ArrivalPattern::EvenlySpaced { gap: 15 },
                ..Default::default()
            };
            let mut sched = mk();
            let r = simulate(&sc.txns, sched.as_mut(), &cfg).expect("simulation completes");
            thru += r.metrics.throughput_per_kilotick;
            lat += r.metrics.mean_latency;
            p95 = p95.max(r.metrics.p95_latency);
            aborts += r.metrics.aborts;
            conc += r.metrics.mean_concurrency;
            sched_ns += r.metrics.scheduler_latency.mean_ns;
        }
        let k = seeds.len() as f64;
        rows.push(row![
            name,
            format!("{:.2}", thru / k),
            format!("{:.0}", lat / k),
            p95,
            aborts,
            format!("{:.2}", conc / k),
            format!("{:.0}", sched_ns / k)
        ]);
    }
    out.push_str(&render(
        &[
            "protocol",
            "thru/ktick",
            "mean lat",
            "max p95",
            "aborts(total)",
            "mean conc",
            "sched ns/dec",
        ],
        &rows,
    ));
    out.push_str(
        "\nSpec-aware protocols (UnitLocking, RSG-SGT) and altruistic locking let short\n\
         transactions overlap the long one; strict 2PL serializes behind it — the §5\n\
         motivation, measured. 'sched ns/dec' is the real (host) per-decision cost of\n\
         each scheduler, seed-averaged. (Histories re-verified offline in the tests.)\n",
    );
    out
}

/// E12 — the banking and CAD scenarios end-to-end.
pub fn e12() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E12  Scenario walkthroughs\n");

    // Banking.
    let sc = banking(&BankingConfig::default(), 5);
    let cfg = SimConfig {
        seed: 2,
        ..Default::default()
    };
    let mut rsg_sched = RsgSgt::new(&sc.txns, &sc.spec);
    let r = simulate(&sc.txns, &mut rsg_sched, &cfg).expect("banking completes");
    let ok = relser_core::classes::is_relatively_serializable(&sc.txns, &r.history, &sc.spec);
    let csr = is_conflict_serializable(&sc.txns, &r.history);
    let _ = writeln!(
        out,
        "  banking: {} txns ({} customers, credit audits, 1 bank audit), RSG-SGT:\n    {}\n    relatively serializable: {}   conflict serializable: {}",
        sc.txns.len(),
        sc.txns.len() - 3,
        r.metrics,
        yn(ok),
        yn(csr)
    );
    let fo = is_relatively_consistent(&sc.txns, &r.history, &sc.spec);
    let _ = writeln!(out, "    relatively consistent (F-O): {}", yn(fo));

    // CAD.
    let sc = cad(&CadConfig::default(), 6);
    let mut rsg_sched = RsgSgt::new(&sc.txns, &sc.spec);
    let r = simulate(&sc.txns, &mut rsg_sched, &cfg).expect("cad completes");
    let ok = relser_core::classes::is_relatively_serializable(&sc.txns, &r.history, &sc.spec);
    let _ = writeln!(
        out,
        "\n  cad: {} designer txns in {} teams, RSG-SGT:\n    {}\n    relatively serializable: {}",
        sc.txns.len(),
        2,
        r.metrics,
        yn(ok)
    );
    out.push_str(
        "\nBoth §1 motivating scenarios run end-to-end under the paper's protocol and\n\
         verify against the offline checkers.\n",
    );
    out
}

/// A1 — arc-family ablation: what each of the F- and B-arc families
/// contributes to the soundness of the RSG test (§3 notes that prior
/// graph tools lacked pull-backward arcs). Counts, over every schedule of
/// the Figure 1 universe, how many schedules each ablated graph *falsely
/// accepts* (acyclic although the full RSG is cyclic).
pub fn a1() -> String {
    use relser_core::rsg::ArcConfig;
    let fig = Figure1::new();
    let configs: [(&str, ArcConfig); 3] = [
        (
            "without B-arcs (Lynch/F-O style)",
            ArcConfig {
                f_arcs: true,
                b_arcs: false,
            },
        ),
        (
            "without F-arcs",
            ArcConfig {
                f_arcs: false,
                b_arcs: true,
            },
        ),
        (
            "D+I arcs only",
            ArcConfig {
                f_arcs: false,
                b_arcs: false,
            },
        ),
    ];
    let mut total = 0u64;
    let mut rejected_full = 0u64;
    let mut false_accepts = [0u64; 3];
    relser_classes::enumerate::for_each_schedule(&fig.txns, |s| {
        total += 1;
        let deps = DependsOn::compute(&fig.txns, s);
        let full = Rsg::build_with_deps(&fig.txns, s, &fig.spec, &deps);
        if !full.is_acyclic() {
            rejected_full += 1;
            for (k, (_, cfg)) in configs.iter().enumerate() {
                if Rsg::build_with_config(&fig.txns, s, &fig.spec, &deps, *cfg).is_acyclic() {
                    false_accepts[k] += 1;
                }
            }
        }
        true
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A1  RSG arc-family ablation (Figure 1 universe, {total} schedules; {rejected_full} correctly rejected by the full RSG)\n"
    );
    let rows: Vec<Vec<String>> = configs
        .iter()
        .zip(false_accepts)
        .map(|((name, _), fa)| {
            row![
                name,
                fa,
                format!("{:.1}%", 100.0 * fa as f64 / rejected_full as f64)
            ]
        })
        .collect();
    out.push_str(&render(
        &["ablated graph", "false accepts", "of rejected"],
        &rows,
    ));
    out.push_str(
        "\nDropping either arc family makes the test unsound; the pull-backward arcs\n\
         the paper adds over Lynch and Farrag-Ozsu are load-bearing, not cosmetic.\n",
    );
    out
}

/// A2 — contention sweep: where the protocols cross over as the object
/// pool shrinks (hotter data ⇒ more conflicts).
pub fn a2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A2  Contention sweep: mean makespan over 8 seeds (1 long txn + 8 short txns)\n"
    );
    let mut rows = Vec::new();
    for &objects in &[4usize, 8, 16, 32] {
        let sc = long_lived(
            &LongLivedConfig {
                long_txns: 1,
                steps: 8,
                short_txns: 8,
                objects,
                theta: 0.8,
                ..Default::default()
            },
            17,
        );
        let mut mk_2pl = 0u64;
        let mut mk_rsg = 0u64;
        let mut ab_2pl = 0u64;
        let mut ab_rsg = 0u64;
        let seeds = 8u64;
        for seed in 0..seeds {
            let cfg = SimConfig {
                seed,
                arrival: ArrivalPattern::EvenlySpaced { gap: 15 },
                ..Default::default()
            };
            let a = simulate(&sc.txns, &mut TwoPhaseLocking::new(&sc.txns), &cfg).unwrap();
            let b = simulate(&sc.txns, &mut RsgSgt::new(&sc.txns, &sc.spec), &cfg).unwrap();
            mk_2pl += a.metrics.makespan;
            mk_rsg += b.metrics.makespan;
            ab_2pl += a.metrics.aborts;
            ab_rsg += b.metrics.aborts;
        }
        rows.push(row![
            objects,
            mk_2pl / seeds,
            mk_rsg / seeds,
            format!("{:.2}x", mk_2pl as f64 / mk_rsg as f64),
            ab_2pl,
            ab_rsg
        ]);
    }
    out.push_str(&render(
        &[
            "objects",
            "2PL makespan",
            "RSG-SGT makespan",
            "speedup",
            "2PL aborts",
            "RSG aborts",
        ],
        &rows,
    ));
    out.push_str(
        "\nThe gap is widest where the *long transaction's* footprint dominates the\n\
         conflicts (ample objects): 2PL keeps queueing short transactions behind the\n\
         scan while RSG-SGT interleaves them at the donated breakpoints. On very hot\n\
         data (few objects) the short transactions genuinely conflict with *each\n\
         other* — contention the specification does not relax — so both protocols\n\
         abort more and converge.\n",
    );
    out
}

/// A3 — scheduler-cost ablation: the O(P²)-per-request rebuild
/// formulation of RSG-SGT vs the incremental maintenance engine
/// (identical decisions, different cost). Both run under the simulator,
/// which times every `Scheduler::request` call, so the columns are the
/// *per-decision* wall-clock means/p95s from [`relser_simdb::metrics::Metrics`].
/// The last row crosses 1,000 operations, where the rebuild's quadratic
/// per-request term dominates.
pub fn a3() -> String {
    use relser_protocols::rsg_sgt::RsgSgtOracle;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A3  RSG-SGT formulations: per-request rebuild vs incremental maintenance\n"
    );
    let mut rows = Vec::new();
    for &short in &[8usize, 16, 32, 64, 256] {
        let sc = long_lived(
            &LongLivedConfig {
                short_txns: short,
                steps: 8,
                objects: short.max(8),
                ..Default::default()
            },
            19,
        );
        let cfg = SimConfig {
            seed: 5,
            max_events: 40_000_000,
            ..Default::default()
        };
        let a = simulate(&sc.txns, &mut RsgSgtOracle::new(&sc.txns, &sc.spec), &cfg).unwrap();
        let b = simulate(&sc.txns, &mut RsgSgt::new(&sc.txns, &sc.spec), &cfg).unwrap();
        assert_eq!(a.history, b.history, "formulations must agree");
        let (ra, rb) = (&a.metrics.scheduler_latency, &b.metrics.scheduler_latency);
        rows.push(row![
            sc.txns.total_ops(),
            ra.decisions,
            format!("{:.0} ns", ra.mean_ns),
            format!("{} ns", ra.p95_ns),
            format!("{:.2} ms", ra.total_ns as f64 / 1e6),
            format!("{:.0} ns", rb.mean_ns),
            format!("{} ns", rb.p95_ns),
            format!("{:.2} ms", rb.total_ns as f64 / 1e6),
            format!("{:.1}x", ra.mean_ns / rb.mean_ns)
        ]);
    }
    out.push_str(&render(
        &[
            "ops",
            "decisions",
            "rebuild mean",
            "rebuild p95",
            "rebuild total",
            "incr mean",
            "incr p95",
            "incr total",
            "speedup",
        ],
        &rows,
    ));
    out.push_str("\nIdentical committed histories (asserted); only the cost differs.\n");
    out
}

/// A4 — expressibility census: how much of the relative-atomicity space
/// the prior specification models cover. Random specifications over a
/// fixed 4-transaction universe, classified as expressible under
/// Garcia-Molina compatibility sets, as a uniform chopping, or as some
/// Lynch hierarchy — plus the paper's own Figure 1 specification.
pub fn a4() -> String {
    use relser_core::expressibility::{as_compatibility_sets, as_multilevel, as_uniform};
    let cfg = RandomConfig {
        txns: 4,
        ops_per_txn: (3, 3),
        objects: 4,
        theta: 0.0,
        write_ratio: 0.5,
    };
    let txns = random_txns(&cfg, 31);
    let samples = 300u64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A4  Expressibility census: {samples} random specs per density (4 txns x 3 ops)\n"
    );
    let mut rows = Vec::new();
    for &p in &[0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let mut compat = 0u64;
        let mut uniform = 0u64;
        let mut multilevel_ok = 0u64;
        for seed in 0..samples {
            let spec = random_spec(&txns, p, seed);
            compat += u64::from(as_compatibility_sets(&txns, &spec).is_some());
            uniform += u64::from(as_uniform(&txns, &spec).is_some());
            multilevel_ok += u64::from(as_multilevel(&txns, &spec).unwrap().is_some());
        }
        let pct = |x: u64| format!("{:.1}%", 100.0 * x as f64 / samples as f64);
        rows.push(row![
            format!("{p:.2}"),
            pct(compat),
            pct(uniform),
            pct(multilevel_ok),
            "100%"
        ]);
    }
    out.push_str(&render(
        &[
            "breakpoint prob.",
            "compat sets [Gar83]",
            "uniform [SSV92]",
            "multilevel [Lyn83]",
            "relative (paper)",
        ],
        &rows,
    ));
    let fig = Figure1::new();
    let _ = writeln!(
        out,
        "\nFigure 1's own specification: compat sets: {}, uniform: {}, multilevel: {} —\nthe paper's running example already requires the full model.",
        yn(as_compatibility_sets(&fig.txns, &fig.spec).is_some()),
        yn(as_uniform(&fig.txns, &fig.spec).is_some()),
        yn(as_multilevel(&fig.txns, &fig.spec).unwrap().is_some()),
    );
    out
}

/// Runs one experiment by id (`"e1"`–`"e12"`, `"a1"`–`"a3"`), or `None`
/// if unknown.
pub fn run(id: &str) -> Option<String> {
    Some(match id {
        "e1" => e1(),
        "e2" => e2(),
        "e3" => e3(),
        "e4" => e4(),
        "e5" => e5(),
        "e6" => e6(),
        "e7" => e7(),
        "e8" => e8(),
        "e9" => e9(),
        "e10" => e10(),
        "e11" => e11(),
        "e12" => e12(),
        "a1" => a1(),
        "a2" => a2(),
        "a3" => a3(),
        "a4" => a4(),
        _ => return None,
    })
}

/// All experiment ids in order (paper experiments, then ablations).
pub const ALL_IDS: [&str; 16] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "a1", "a2", "a3",
    "a4",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reports_sra_correct_but_not_serial() {
        let t = e1();
        assert!(t.contains("Atomicity(T1, T2):  r1[x] w1[x] | w1[z] r1[y]"));
        let sra_line = t.lines().find(|l| l.starts_with("S_ra")).unwrap();
        assert!(sra_line.contains("no"), "not serial");
        assert!(sra_line.contains("yes"), "relatively atomic");
    }

    #[test]
    fn e2_extracts_a_valid_witness() {
        let t = e2();
        assert!(t.contains("witness is relatively serial: yes"));
        assert!(t.contains("witness conflict-equivalent to S_2: yes"));
    }

    #[test]
    fn e3_shows_the_disagreement() {
        let t = e3();
        assert!(t.contains("REJECT"));
        assert!(t.contains("WRONG"));
    }

    #[test]
    fn e4_matches_figure3() {
        let t = e4();
        assert!(t.contains("12 arcs total"));
        assert!(t.contains("RSG acyclic: yes"));
        assert!(t.contains("D,F,B"));
        assert!(t.contains("digraph figure3"));
    }

    #[test]
    fn e5_separates_the_classes() {
        let t = e5();
        assert!(t.contains("relatively serial (Def. 2)") && t.contains("yes"));
        let fo_line = t
            .lines()
            .find(|l| l.contains("relatively consistent"))
            .unwrap();
        assert!(fo_line.ends_with("no"));
    }

    #[test]
    fn e6_counts_the_figure1_universe() {
        let t = e6();
        assert!(t.contains("4200"));
        // Absolute-spec row: relatively atomic must equal serial (6).
        let row = t
            .lines()
            .find(|l| l.starts_with("Figure 1, absolute spec"))
            .unwrap();
        assert!(row.contains("4200"));
    }

    #[test]
    fn e7_all_verdicts_agree() {
        let t = e7();
        let mut data_rows = 0;
        for line in t.lines().filter(|l| l.contains("universe")) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            // Data rows end in two numbers (checked, agreeing); the table
            // header does not.
            if let (Ok(total), Ok(agree)) = (
                cols[cols.len() - 2].parse::<u64>(),
                cols[cols.len() - 1].parse::<u64>(),
            ) {
                assert_eq!(total, agree, "{line}");
                data_rows += 1;
            }
        }
        assert_eq!(data_rows, 4);
    }

    #[test]
    fn e8_adversarial_family_is_inconsistent_and_grows() {
        let (txns, spec, s) = adversarial_family(4);
        assert!(!is_relatively_consistent(&txns, &s, &spec));
        let (_, small) = search(&txns, &s, &spec);
        let (txns2, spec2, s2) = adversarial_family(6);
        let (_, big) = search(&txns2, &s2, &spec2);
        assert!(
            big.states_expanded > 4 * small.states_expanded,
            "expected super-linear growth: {} vs {}",
            big.states_expanded,
            small.states_expanded
        );
    }

    #[test]
    fn e9_ground_truth_fully_agrees() {
        let t = e9();
        let total_line = t
            .lines()
            .find(|l| l.contains("schedules enumerated"))
            .unwrap();
        let total: u64 = total_line
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap();
        let agree_line = t
            .lines()
            .find(|l| l.contains("ground truth agrees"))
            .unwrap();
        let agree: u64 = agree_line
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(total, agree);
        assert_eq!(total, 30);
    }

    #[test]
    fn e10_acceptance_grows_with_looseness() {
        let t = e10();
        let pcts: Vec<f64> = t
            .lines()
            .filter(|l| l.starts_with("0.") || l.starts_with("1."))
            .map(|l| {
                let cells: Vec<&str> = l.split_whitespace().collect();
                cells[3].trim_end_matches('%').parse::<f64>().unwrap() // rel.SR
            })
            .collect();
        assert_eq!(pcts.len(), 5);
        assert!(pcts.windows(2).all(|w| w[0] <= w[1]), "{pcts:?}");
        assert!((pcts[4] - 100.0).abs() < 1e-9, "free spec accepts all");
    }

    #[test]
    fn e12_scenarios_verify() {
        let t = e12();
        assert!(t.contains("relatively serializable: yes"));
        assert!(!t.contains("relatively serializable: no"));
    }

    #[test]
    fn run_dispatches_all_ids() {
        for id in ALL_IDS {
            if ["e11", "a1", "a2", "a3", "a4"].contains(&id) {
                continue; // the slow ones are exercised by their own tests
            }
            assert!(run(id).is_some(), "{id}");
        }
        assert!(run("e99").is_none());
    }

    #[test]
    fn a1_b_arcs_are_load_bearing() {
        let t = a1();
        // The no-B row must report a non-zero false-accept count; the
        // exhaustive search found 434.
        let line = t.lines().find(|l| l.contains("without B-arcs")).unwrap();
        assert!(line.contains("434"), "{line}");
        // F-arcs matter too.
        let line_f = t.lines().find(|l| l.starts_with("without F-arcs")).unwrap();
        let fa: u64 = line_f.split_whitespace().nth(2).unwrap().parse().unwrap();
        assert!(fa > 0);
    }

    #[test]
    fn a4_census_shows_the_strict_hierarchy() {
        let t = a4();
        // At density 0 every model expresses the (absolute) spec.
        let zero = t.lines().find(|l| l.starts_with("0.00")).unwrap();
        assert_eq!(zero.matches("100.0%").count(), 3, "{zero}");
        // Figure 1 needs the full model.
        assert!(t.contains("compat sets: no, uniform: no, multilevel: no"));
    }

    #[test]
    fn a3_formulations_agree_and_report_speedup() {
        let t = a3();
        assert!(t.contains("Identical committed histories"));
        assert!(t.contains("rebuild mean") && t.contains("incr mean"));
        assert!(t.lines().filter(|l| l.contains('x')).count() >= 4);
        // The scaling table reaches the 1,000-operation regime.
        let max_ops = t
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .filter_map(|w| w.parse::<u64>().ok())
            .max()
            .unwrap_or(0);
        assert!(max_ops >= 1000, "largest row has only {max_ops} ops");
    }

    #[test]
    fn e11_protocol_table_lists_all_protocols() {
        let t = e11();
        for name in [
            "2PL",
            "SGT",
            "Altruistic",
            "SpecAltruistic",
            "CompatSet-2PL",
            "UnitLocking",
            "RSG-SGT",
        ] {
            assert!(t.contains(name), "{name} missing");
        }
    }
}
