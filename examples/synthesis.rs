//! From verification to synthesis: derive the gate equations the paper's
//! checks enable.
//!
//! Section 2 of the paper: once an STG is known to be gate-implementable
//! (CSC holds), "the logic equations for all gates of the circuit can be
//! derived by the STG in a conventional way". This example derives them
//! symbolically for three designs:
//!
//! * the r/a handshake — the output is a wire (`a = r`);
//! * the Muller pipeline — every stage comes out as the classic C-element
//!   `cᵢ = cᵢ₋₁ cᵢ₊₁' + cᵢ (cᵢ₋₁ + cᵢ₊₁')`;
//! * the mutex element — grant gates guarded by the opposite grant.
//!
//! Run with: `cargo run --example synthesis`

use stgcheck::core::{SymbolicStg, VarOrder};
use stgcheck::stg::gen;
use stgcheck::stg::{Stg, StgBuilder};

fn synthesise(stg: &Stg) {
    println!("== {} ==", stg.name());
    let mut sym = SymbolicStg::new(stg, VarOrder::Interleaved);
    let code = sym.effective_initial_code().expect("code available");
    let traversal = sym.traverse(code);
    match sym.derive_all_functions(traversal.reached) {
        Ok(functions) => {
            for f in &functions {
                println!("  {}", sym.function_to_sop(f));
            }
        }
        Err(e) => println!("  cannot synthesise: {e}"),
    }
    println!();
}

fn main() {
    // A plain four-phase handshake: the output is a buffer of the input.
    let mut b = StgBuilder::new("handshake");
    b.input("r");
    b.output("a");
    b.cycle(&["r+", "a+", "r-", "a-"]);
    b.initial_code_str("00");
    synthesise(&b.build().expect("well-formed"));

    // Muller pipeline: C-elements fall out of the excitation regions.
    synthesise(&gen::muller_pipeline(4));

    // The Fig. 1 mutex element.
    synthesise(&gen::mutex_element());

    // A CSC violation makes derivation fail — by design.
    synthesise(&gen::csc_violation_stg());
}
