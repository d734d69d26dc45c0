//! Variable-ordering ablation: ordering matters — the paper's
//! Section 6 remark made executable. The interleaved (DFS) order keeps the
//! reachable-set BDD small on the scalable families; the naive separated
//! orders are measurably worse.

use stgcheck::core::{SymbolicStg, VarOrder};
use stgcheck::stg::gen;
use stgcheck::stg::Code;

fn peak_and_final(stg: &stgcheck::stg::Stg, order: VarOrder) -> (usize, usize) {
    let mut sym = SymbolicStg::new(stg, order);
    let t = sym.traverse(Code::ZERO);
    (t.stats.peak_nodes, t.stats.final_nodes)
}

#[test]
fn interleaved_beats_naive_on_par_handshakes() {
    let stg = gen::par_handshakes(8);
    let (_, good) = peak_and_final(&stg, VarOrder::Interleaved);
    let (_, separated) = peak_and_final(&stg, VarOrder::PlacesThenSignals);
    // Independent components: the interleaved order is linear in n, the
    // places/signals-separated one couples every signal to every place
    // region.
    assert!(good < separated, "interleaved {good} should beat separated {separated}");
    // And it is *small* in absolute terms: a few nodes per handshake.
    assert!(good < 200, "got {good}");
}

#[test]
fn interleaved_scales_linearly_on_par_handshakes() {
    let (_, f4) = peak_and_final(&gen::par_handshakes(4), VarOrder::Interleaved);
    let (_, f8) = peak_and_final(&gen::par_handshakes(8), VarOrder::Interleaved);
    let (_, f16) = peak_and_final(&gen::par_handshakes(16), VarOrder::Interleaved);
    // Linear growth: doubling n roughly doubles the BDD, far from the
    // 4^n state count.
    assert!(f8 <= 3 * f4, "f4={f4} f8={f8}");
    assert!(f16 <= 3 * f8, "f8={f8} f16={f16}");
}

#[test]
fn all_orders_agree_on_semantics() {
    // Ordering must never change the *answer*, only the cost.
    let stg = gen::muller_pipeline(6);
    let mut counts = Vec::new();
    for order in [
        VarOrder::Interleaved,
        VarOrder::PlacesThenSignals,
        VarOrder::SignalsThenPlaces,
        VarOrder::Declaration,
    ] {
        let mut sym = SymbolicStg::new(&stg, order);
        let t = sym.traverse(Code::ZERO);
        counts.push(t.stats.num_states);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}

#[test]
fn muller_bdd_stays_polynomial_under_interleaved_order() {
    // State count grows exponentially; the BDD must not.
    let mut prev_states = 0u128;
    for n in [6usize, 10, 14, 18] {
        let stg = gen::muller_pipeline(n);
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let t = sym.traverse(Code::ZERO);
        assert!(t.stats.num_states > prev_states);
        prev_states = t.stats.num_states;
        assert!(
            (t.stats.final_nodes as u128) * 20 < t.stats.num_states.max(10_000),
            "muller({n}): {} nodes for {} states",
            t.stats.final_nodes,
            t.stats.num_states
        );
    }
}
