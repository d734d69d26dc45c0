//! Property-based tests of the Petri-net substrate: token-game laws,
//! reachability invariants and token conservation on random nets.

use proptest::prelude::*;
use stgcheck_petri::{Marking, PetriNet, PlaceId, ReachError, ReachOptions, TransId};

/// A random connected, conservative net: `n` places in a ring of
/// transitions, plus a few random extra arcs that keep token conservation
/// (each extra transition consumes one and produces one token).
fn arb_ring_net() -> impl Strategy<Value = PetriNet> {
    (2usize..7, proptest::collection::vec((0usize..6, 0usize..6), 0..6), 1u32..3).prop_map(
        |(n, extras, tokens)| {
            let mut net = PetriNet::new();
            let places: Vec<PlaceId> = (0..n).map(|i| net.add_place(format!("p{i}"), 0)).collect();
            net.set_initial_tokens(places[0], tokens);
            for i in 0..n {
                let t = net.add_transition(format!("ring{i}"));
                net.connect(&[places[i]], t, &[places[(i + 1) % n]]);
            }
            for (k, (a, b)) in extras.into_iter().enumerate() {
                let (a, b) = (a % n, b % n);
                if a == b {
                    continue;
                }
                let t = net.add_transition(format!("extra{k}"));
                net.connect(&[places[a]], t, &[places[b]]);
            }
            net
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Firing preserves total token count in conservative nets.
    #[test]
    fn conservative_nets_conserve_tokens(net in arb_ring_net()) {
        let m0 = net.initial_marking();
        let total: u32 = (0..m0.len()).map(|i| m0.tokens(PlaceId::from_index(i))).sum();
        let g = net.reachability_graph(ReachOptions::default()).unwrap();
        for m in g.markings() {
            let t: u32 = (0..m.len()).map(|i| m.tokens(PlaceId::from_index(i))).sum();
            prop_assert_eq!(t, total);
        }
    }

    /// Every edge of the reachability graph is a legal firing, and every
    /// enabled transition has an edge.
    #[test]
    fn reachability_graph_is_sound_and_complete(net in arb_ring_net()) {
        let g = net.reachability_graph(ReachOptions::default()).unwrap();
        for v in 0..g.len() {
            let m = g.marking(v);
            let edges = g.successors(v);
            for t in net.transitions() {
                match net.try_fire(t, m) {
                    Some(next) => {
                        let w = g.vertex_of(&next).expect("successor reachable");
                        prop_assert!(edges.contains(&(t, w)));
                    }
                    None => {
                        prop_assert!(edges.iter().all(|&(et, _)| et != t));
                    }
                }
            }
        }
    }

    /// The bound equals the maximum over the enumerated markings, and
    /// safeness agrees with bound == 1.
    #[test]
    fn bound_and_safety_agree(net in arb_ring_net()) {
        let bound = net.bound(ReachOptions::default()).unwrap();
        let safe = net.is_safe(ReachOptions::default()).unwrap();
        prop_assert_eq!(safe, bound <= 1);
    }

    /// fire_sequence is fold of try_fire.
    #[test]
    fn sequences_compose(net in arb_ring_net(), seq in proptest::collection::vec(0usize..8, 0..6)) {
        let m0 = net.initial_marking();
        let ts: Vec<TransId> = seq
            .into_iter()
            .filter(|&i| i < net.num_transitions())
            .map(TransId::from_index)
            .collect();
        let via_seq = net.fire_sequence(&ts, &m0);
        let mut acc: Option<Marking> = Some(m0);
        for &t in &ts {
            acc = acc.and_then(|m| net.try_fire(t, &m));
        }
        prop_assert_eq!(via_seq, acc);
    }
}

/// A random marked graph: superposed token-carrying cycles over a shared
/// transition set. Every place has exactly one producer and one consumer.
fn arb_marked_graph() -> impl Strategy<Value = PetriNet> {
    (2usize..6, proptest::collection::vec(proptest::collection::vec(0usize..6, 1..5), 1..4))
        .prop_map(|(nt, cycles)| {
            let mut net = PetriNet::new();
            let ts: Vec<TransId> = (0..nt).map(|i| net.add_transition(format!("t{i}"))).collect();
            for (c, cycle) in cycles.into_iter().enumerate() {
                let hops: Vec<TransId> = cycle.into_iter().map(|i| ts[i % nt]).collect();
                for (k, w) in hops.windows(2).enumerate() {
                    let p = net.add_place(format!("c{c}p{k}"), 0);
                    net.add_arc_tp(w[0], p, 1);
                    net.add_arc_pt(p, w[1], 1);
                }
                // Close the cycle with the token.
                let p = net.add_place(format!("c{c}tok"), 1);
                net.add_arc_tp(*hops.last().expect("non-empty"), p, 1);
                net.add_arc_pt(p, hops[0], 1);
            }
            net
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem (Murata [7], quoted by the paper in §5.2): marked graphs
    /// are persistent — firing one enabled transition never disables
    /// another.
    #[test]
    fn marked_graphs_are_persistent(net in arb_marked_graph()) {
        prop_assert!(net.is_marked_graph());
        let opts = ReachOptions { max_markings: 20_000, detect_unbounded: true };
        let Ok(g) = net.reachability_graph(opts) else {
            // Skip the rare monster; the property is about persistency,
            // not scale.
            return Ok(());
        };
        for v in 0..g.len() {
            let m = g.marking(v);
            let enabled: Vec<TransId> =
                net.transitions().filter(|&t| net.is_enabled(t, m)).collect();
            for &tj in &enabled {
                let after = net.fire(tj, m);
                for &ti in &enabled {
                    if ti == tj {
                        continue;
                    }
                    prop_assert!(
                        net.is_enabled(ti, &after),
                        "marked graph lost persistency"
                    );
                }
            }
        }
    }

    /// Marked graphs built from 1-token circuits are safe (the circuit
    /// token-count invariant pins every place to at most one token).
    #[test]
    fn cycle_built_marked_graphs_are_safe(net in arb_marked_graph()) {
        let opts = ReachOptions { max_markings: 20_000, detect_unbounded: true };
        if let Ok(bound) = net.bound(opts) {
            prop_assert!(bound <= 1, "each circuit carries one token, got bound {bound}");
        }
    }
}

#[test]
fn limit_error_is_deterministic() {
    let mut net = PetriNet::new();
    let a = net.add_place("a", 1);
    let b = net.add_place("b", 0);
    let t0 = net.add_transition("t0");
    let t1 = net.add_transition("t1");
    net.connect(&[a], t0, &[b]);
    net.connect(&[b], t1, &[a]);
    let err = net.reachability_graph(ReachOptions { max_markings: 1, detect_unbounded: true });
    assert_eq!(err.unwrap_err(), ReachError::LimitExceeded(1));
}
