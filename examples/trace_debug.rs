//! Counter-example traces: when a check fails, `stgcheck` can produce a
//! shortest concrete firing sequence from the initial state to the
//! violation, computed on demand from the reachable set of any engine.
//!
//! Demonstrated on four targets:
//! 1. a consistency violation (the paper's `b+ a+ b+` example);
//! 2. a chosen functional state of the mutex element (grant 1 held while
//!    user 2 requests);
//! 3. the same state after a saturation traversal with sifting;
//! 4. the deadlock of a terminating specification.
//!
//! Run with: `cargo run --example trace_debug`

use stgcheck::bdd::BddOps;
use stgcheck::core::{EngineKind, EngineOptions, ReorderMode, SymbolicStg, VarOrder};
use stgcheck::stg::gen;
use stgcheck::stg::{Polarity, Stg, StgBuilder};

fn show_trace(stg: &Stg, trace: &[stgcheck::petri::TransId]) {
    let pretty: Vec<String> = trace.iter().map(|&t| stg.label_string(t)).collect();
    println!("  trace ({} firings): {}", trace.len(), pretty.join(" ; "));
}

/// Traces the mutex element to "user 1 granted while user 2 requests"
/// after a traversal by `engine`, described by `label`.
fn mutex_grant_trace(label: &str, engine: EngineOptions) {
    let stg = gen::mutex_element();
    println!("== {} ({label}) ==", stg.name());
    let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
    sym.set_engine(engine);
    let code = stg.initial_code().expect("declared");
    let reached = sym.traverse(code).reached;
    let a1 = sym.signal_var(stg.signal_by_name("a1").expect("a1"));
    let r2 = sym.signal_var(stg.signal_by_name("r2").expect("r2"));
    let target = {
        let mgr = sym.manager_mut();
        let (v1, v2) = (mgr.var(a1), mgr.var(r2));
        mgr.and(v1, v2)
    };
    let trace = sym.extract_trace(code, reached, target).expect("state reachable");
    println!("  shortest path to: user 1 granted while user 2 requests");
    show_trace(&stg, &trace);
}

fn main() {
    // 1. Consistency violation of the paper's Section 3.1 example.
    let stg = gen::inconsistent_stg();
    println!("== {} ==", stg.name());
    let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
    let code = stg.initial_code().expect("fixture declares a code");
    let reached = sym.traverse(code).reached;
    let b = stg.signal_by_name("b").expect("signal b exists");
    let bad = sym.inconsistent_set(b, Polarity::Rise);
    let trace = sym.extract_trace(code, reached, bad).expect("the inconsistency is reachable");
    println!("  shortest path to `b+` enabled while b = 1:");
    show_trace(&stg, &trace);
    println!();

    // 2. Functional query on the mutex element.
    mutex_grant_trace("per-transition", EngineOptions::default());
    println!();

    // 3. The same query after saturation with sifting: the trace needs
    //    only the reached set, whichever engine built it.
    mutex_grant_trace(
        "saturation, --reorder sift",
        EngineOptions {
            kind: EngineKind::Saturation,
            reorder: ReorderMode::Sift,
            ..EngineOptions::default()
        },
    );
    println!();

    // 4. Deadlock of a one-shot specification.
    let mut b = StgBuilder::new("oneshot");
    b.input("r");
    b.output("a");
    let p = b.place("p", 1);
    b.pt(p, "r+");
    b.arc("r+", "a+");
    b.initial_code_str("00");
    let stg = b.build().expect("well-formed");
    println!("== {} ==", stg.name());
    let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
    let code = stg.initial_code().expect("declared");
    let reached = sym.traverse(code).reached;
    let dead = sym.deadlock_set(reached);
    if dead.is_false() {
        println!("  no deadlock");
    } else {
        let trace = sym.extract_trace(code, reached, dead).expect("deadlock reachable");
        println!("  shortest path into the deadlock:");
        show_trace(&stg, &trace);
        let witness = sym.decode_witness(dead).expect("witness");
        println!("  dead state: {witness}");
    }
}
