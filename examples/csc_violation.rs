//! Complete State Coding analysis in depth: the VME bus controller read
//! cycle (the textbook *reducible* CSC conflict) versus a minimal
//! *irreducible* one.
//!
//! Shows the excitation/quiescent region machinery of Section 5.3 of the
//! paper: the contradictory codes `CONT(a)`, the violation witnesses, and
//! the frozen-input traversal that separates conflicts solvable by signal
//! insertion (I/O-implementable) from those that require an interface
//! change (only SI-implementable).
//!
//! Run with: `cargo run --example csc_violation`

use stgcheck::core::{SymbolicStg, VarOrder};
use stgcheck::stg::gen;
use stgcheck::stg::Stg;

fn analyse(stg: &Stg) {
    println!("== {} ==", stg.name());
    println!(
        "  inputs:  {}",
        stg.input_signals().iter().map(|&s| stg.signal_name(s)).collect::<Vec<_>>().join(" ")
    );
    println!(
        "  outputs: {}",
        stg.noninput_signals().iter().map(|&s| stg.signal_name(s)).collect::<Vec<_>>().join(" ")
    );

    let mut sym = SymbolicStg::new(stg, VarOrder::Interleaved);
    let code = sym.effective_initial_code().expect("consistent fixture");
    let traversal = sym.traverse(code);
    println!("  reachable full states: {}", traversal.stats.num_states);

    for analysis in sym.check_csc(traversal.reached) {
        let name = stg.signal_name(analysis.signal);
        if analysis.holds {
            println!("  CSC({name}): ok");
            continue;
        }
        let witness = analysis.witness.as_ref().expect("violated CSC carries a witness");
        println!("  CSC({name}): VIOLATED — contradictory code {}", witness.code);
        let irreducible = sym.has_complementary_input_sequences(
            traversal.reached,
            analysis.signal,
            analysis.contradictory,
        );
        if irreducible {
            println!(
                "    irreducible: mutually complementary input sequences exist;\n\
                 \x20   no insertion of internal signals can fix this interface"
            );
        } else {
            println!(
                "    reducible: an internal signal (as petrify's csc0) can\n\
                 \x20   disambiguate the conflicting states"
            );
        }
    }
    println!();
}

fn main() {
    // The classic: VME bus controller read cycle. Reducible.
    analyse(&gen::vme_read());
    // All-output conflict: reducible as well.
    analyse(&gen::csc_violation_stg());
    // Input-burst conflict: irreducible — the environment's traces alone
    // cannot tell the two states apart.
    analyse(&gen::irreducible_csc_stg());
}
