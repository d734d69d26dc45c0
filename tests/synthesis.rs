//! Integration tests for the logic-derivation extension: derived
//! equations must agree between independently computed forms and be
//! consistent with the explicit state graph.

use stgcheck::core::{SymbolicStg, VarOrder};
use stgcheck::stg::gen;
use stgcheck::stg::{build_state_graph, SgOptions, SignalId, Stg};

fn functions_of(stg: &Stg) -> (SymbolicStg<'_>, Vec<stgcheck::core::SignalFunction>) {
    let mut sym = SymbolicStg::new(stg, VarOrder::Interleaved);
    let code = sym.effective_initial_code().unwrap();
    let t = sym.traverse(code);
    let fs = sym.derive_all_functions(t.reached).expect("CSC holds");
    (sym, fs)
}

/// For every reachable explicit state, the derived function of each
/// output evaluates to the signal's *next* stable value: 1 on rising
/// excitation and high quiescence, 0 otherwise.
#[test]
fn equations_match_explicit_regions() {
    for stg in [gen::muller_pipeline(4), gen::master_read(2), gen::ring(3)] {
        let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
        let (sym, fs) = functions_of(&stg);
        for f in &fs {
            for v in 0..sg.len() {
                let state = sg.state(v);
                let edges = sg.enabled_edges(&stg, v);
                let rising = edges.contains(&(f.signal, stgcheck::stg::Polarity::Rise));
                let falling = edges.contains(&(f.signal, stgcheck::stg::Polarity::Fall));
                let value = state.code.get(f.signal);
                let expected = rising || (value && !falling);
                // Evaluate the on-set BDD under this state's code.
                let mut assignment = vec![false; sym.manager().num_vars()];
                for s in stg.signals() {
                    assignment[sym.signal_var(s).index()] = state.code.get(s);
                }
                let got = sym.manager().eval(f.on, &assignment);
                assert_eq!(
                    got,
                    expected,
                    "{}: signal {} at state {}",
                    stg.name(),
                    stg.signal_name(f.signal),
                    state.code.to_bit_string(stg.num_signals())
                );
            }
        }
    }
}

/// The derived network, iterated as a closed system, must be stable
/// exactly in the quiescent states: a state is an equilibrium of all
/// non-input functions iff no non-input signal is excited.
#[test]
fn equilibria_are_quiescent_states() {
    let stg = gen::muller_pipeline(3);
    let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
    let (sym, fs) = functions_of(&stg);
    for v in 0..sg.len() {
        let state = sg.state(v);
        let mut assignment = vec![false; sym.manager().num_vars()];
        for s in stg.signals() {
            assignment[sym.signal_var(s).index()] = state.code.get(s);
        }
        let stable =
            fs.iter().all(|f| sym.manager().eval(f.on, &assignment) == state.code.get(f.signal));
        let excited: Vec<SignalId> = sg.enabled_noninput_signals(&stg, v);
        assert_eq!(
            stable,
            excited.is_empty(),
            "state {}",
            state.code.to_bit_string(stg.num_signals())
        );
    }
}

/// SOP rendering is parseable by the boolean-expression parser and
/// semantically equal to the on-set.
#[test]
fn sop_strings_round_trip_through_expression_parser() {
    use stgcheck::bdd::BoolExpr;
    let stg = gen::muller_pipeline(4);
    let (sym, fs) = functions_of(&stg);
    for f in &fs {
        let sop = sym.function_to_sop(f);
        let rhs = sop.split(" = ").nth(1).unwrap();
        // Our SOP dialect: `x'` is negation, juxtaposition is AND.
        let normalised = rhs
            .split(" + ")
            .map(|term| {
                let lits: Vec<String> = term
                    .split_whitespace()
                    .map(|l| match l.strip_suffix('\'') {
                        Some(base) => format!("!{base}"),
                        None => l.to_string(),
                    })
                    .collect();
                format!("({})", lits.join(" & "))
            })
            .collect::<Vec<_>>()
            .join(" | ");
        let expr =
            BoolExpr::parse(&normalised).unwrap_or_else(|e| panic!("{sop} -> {normalised}: {e}"));
        // Evaluate both on all signal codes.
        let n = stg.num_signals();
        for bits in 0..(1u32 << n) {
            let mut assignment = vec![false; sym.manager().num_vars()];
            for s in stg.signals() {
                assignment[sym.signal_var(s).index()] = bits & (1 << s.index()) != 0;
            }
            let lookup = |name: &str| -> Option<bool> {
                let s = stg.signal_by_name(name)?;
                Some(bits & (1 << s.index()) != 0)
            };
            assert_eq!(
                sym.manager().eval(f.on, &assignment),
                expr.eval(&lookup),
                "{sop} differs at {bits:b}"
            );
        }
    }
}
