//! Fake conflicts (Sections 3.5 and 5.4): the paper's Fig. 3 pair of
//! specifications D1/D2 and the role of fake-freedom as a cheap
//! commutativity check.
//!
//! D1 specifies a choice between `a+` and `b+` where each branch
//! re-enables the other signal — a *symmetric fake conflict*. D2 specifies
//! the same behaviour as genuine concurrency. Both induce the *same state
//! graph*, but the paper's tool rejects D1 as ill-formed and accepts D2.
//!
//! Run with: `cargo run --example fake_conflicts`

use stgcheck::core::{verify, SymbolicStg, VarOrder, VerifyOptions};
use stgcheck::stg::gen;
use stgcheck::stg::{build_state_graph, SgOptions, Stg};

fn show(stg: &Stg) {
    println!("== {} ==", stg.name());
    let sg = build_state_graph(stg, SgOptions::default()).expect("bounded & consistent");
    println!("  explicit state graph: {} states, {} edges", sg.len(), sg.num_edges());

    let mut sym = SymbolicStg::new(stg, VarOrder::Interleaved);
    let code = sym.effective_initial_code().expect("fixture has a code");
    let traversal = sym.traverse(code);
    let r_n = sym.project_markings(traversal.reached);

    let conflicts = sym.check_fake_conflicts(r_n);
    if conflicts.is_empty() {
        println!("  no direct conflicts at all (pure concurrency)");
    }
    for fc in &conflicts {
        let net = stg.net();
        println!(
            "  conflict {} vs {}: co-enabled={} fake({}←{})={} fake({}←{})={}",
            net.trans_name(fc.t1),
            net.trans_name(fc.t2),
            fc.co_enabled,
            net.trans_name(fc.t1),
            net.trans_name(fc.t2),
            fc.fake_1_by_2,
            net.trans_name(fc.t2),
            net.trans_name(fc.t1),
            fc.fake_2_by_1,
        );
        if fc.is_symmetric_fake() {
            println!("    => symmetric fake: should be rewritten as concurrency (like D2)");
        } else if fc.is_asymmetric_fake() {
            println!("    => asymmetric fake");
        } else if fc.co_enabled {
            println!("    => real conflict (choice or arbitration)");
        }
    }
    let report = verify(stg, VerifyOptions::default()).expect("fixture has a code");
    println!("  verdict: {}\n", report.verdict);
}

fn main() {
    let d1 = gen::fig3_d1();
    let d2 = gen::fig3_d2();
    show(&d1);
    show(&d2);

    // The paper's point: same state graph, different well-formedness.
    let sg1 = build_state_graph(&d1, SgOptions::default()).unwrap();
    let sg2 = build_state_graph(&d2, SgOptions::default()).unwrap();
    println!("D1 and D2 induce state graphs of equal size: {} == {}", sg1.len(), sg2.len());
    println!("yet D1 is rejected (symmetric fake conflict) while D2 is accepted.");
}
