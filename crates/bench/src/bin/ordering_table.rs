//! Prints the reachable-set BDD size per variable-ordering strategy —
//! the data behind the paper's Section 6 remark on ordering heuristics.
use stgcheck_core::{SymbolicStg, VarOrder};
use stgcheck_stg::{gen, Code};

fn main() {
    println!(
        "{:<18} {:>14} {:>12} {:>12} {:>12} {:>12}",
        "example", "states", "interleaved", "places-first", "signals-1st", "declaration"
    );
    for stg in [gen::muller_pipeline(10), gen::par_handshakes(8), gen::master_read(6)] {
        let mut sizes = Vec::new();
        let mut states = 0u128;
        for order in [
            VarOrder::Interleaved,
            VarOrder::PlacesThenSignals,
            VarOrder::SignalsThenPlaces,
            VarOrder::Declaration,
        ] {
            let mut sym = SymbolicStg::new(&stg, order);
            let t = sym.traverse(Code::ZERO);
            states = t.stats.num_states;
            sizes.push(t.stats.final_nodes);
        }
        println!(
            "{:<18} {:>14} {:>12} {:>12} {:>12} {:>12}",
            stg.name(),
            states,
            sizes[0],
            sizes[1],
            sizes[2],
            sizes[3]
        );
    }
}
