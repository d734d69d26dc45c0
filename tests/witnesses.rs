//! Witness quality: every violated property must come with a decoded
//! counter-example that actually exhibits the violation, and a trace to
//! it must replay on the explicit token game.

use std::collections::{HashSet, VecDeque};

use stgcheck::bdd::{Bdd, BddOps, Literal};
use stgcheck::core::{
    verify, EngineKind, EngineOptions, ReorderMode, SymbolicStg, VarOrder, VerifyOptions,
};
use stgcheck::petri::{Marking, TransId};
use stgcheck::stg::{gen, Code, Polarity, SignalId, Stg, StgBuilder};

#[test]
fn consistency_witness_is_a_real_state() {
    let stg = gen::inconsistent_stg();
    let report = verify(&stg, VerifyOptions::default()).unwrap();
    assert!(!report.consistent());
    let v = &report.consistency[0];
    // The witness enables the violating edge at the wrong value.
    let bit = v.witness.code.as_bytes()[v.signal.index()] as char;
    match v.polarity {
        Polarity::Rise => assert_eq!(bit, '1'),
        Polarity::Fall => assert_eq!(bit, '0'),
    }
    assert!(!v.witness.marked_places.is_empty());
}

#[test]
fn persistency_witness_enables_both_sides() {
    let stg = gen::nonpersistent_stg();
    let report = verify(&stg, VerifyOptions::default()).unwrap();
    assert!(!report.persistent());
    let net = stg.net();
    for v in &report.persistency {
        // Reconstruct the witness marking and check the disabled signal
        // really is enabled there and disabled after firing.
        let mut marking = net.initial_marking();
        for p in net.places() {
            marking.set_tokens(p, 0);
        }
        for name in &v.witness.marked_places {
            let p = net.place_by_name(name).expect("witness names real places");
            marking.set_tokens(p, 1);
        }
        let enabled_signal = |m: &stgcheck::petri::Marking, s: SignalId| {
            stg.transitions_of_signal(s).iter().any(|&t| net.is_enabled(t, m))
        };
        assert!(enabled_signal(&marking, v.disabled), "before firing");
        assert!(net.is_enabled(v.fired, &marking), "disabler enabled");
        let after = net.fire(v.fired, &marking);
        assert!(!enabled_signal(&after, v.disabled), "after firing");
    }
}

#[test]
fn csc_witness_code_is_contradictory() {
    let stg = gen::vme_read();
    let report = verify(&stg, VerifyOptions::default()).unwrap();
    assert!(!report.csc_holds());
    let analysis = report.csc.iter().find(|a| !a.holds).expect("a violation exists");
    let w = analysis.witness.as_ref().expect("witness attached");
    // The witness is a pure code (places abstracted): every signal bit is
    // assigned, no place is mentioned.
    assert!(w.marked_places.is_empty());
    assert_eq!(w.code.len(), stg.num_signals());
    assert!(w.code.chars().all(|c| c == '0' || c == '1' || c == '-'));
}

#[test]
fn safety_witness_marks_the_offending_place() {
    let stg = gen::unsafe_stg();
    let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
    let code = sym.effective_initial_code().unwrap();
    let t = sym.traverse(code);
    let violations = sym.check_safeness(t.reached);
    assert!(!violations.is_empty());
    for v in &violations {
        let place_name = stg.net().place_name(v.place).to_string();
        assert!(
            v.witness.marked_places.contains(&place_name),
            "witness must show `{place_name}` already marked"
        );
    }
}

#[test]
fn transition_persistency_witness_round_trips() {
    let stg = gen::mutex_element();
    let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
    let code = sym.effective_initial_code().unwrap();
    let t = sym.traverse(code);
    let r_n = sym.project_markings(t.reached);
    let tv = sym.check_transition_persistency(r_n);
    assert_eq!(tv.len(), 2);
    let net = stg.net();
    for v in &tv {
        let mut marking = net.initial_marking();
        for p in net.places() {
            marking.set_tokens(p, 0);
        }
        for name in &v.witness.marked_places {
            marking.set_tokens(net.place_by_name(name).unwrap(), 1);
        }
        assert!(net.is_enabled(v.disabled, &marking));
        assert!(net.is_enabled(v.fired, &marking));
        let after = net.fire(v.fired, &marking);
        assert!(!net.is_enabled(v.disabled, &after));
    }
}

/// The full state `(m, code)` as a minterm over `sym`'s variables.
fn state_cube(sym: &mut SymbolicStg<'_>, m: &Marking, code: Code) -> Bdd {
    let stg = sym.stg();
    let mut lits: Vec<Literal> =
        stg.net().places().map(|p| Literal::new(sym.place_var(p), m.tokens(p) > 0)).collect();
    lits.extend(stg.signals().map(|s| Literal::new(sym.signal_var(s), code.get(s))));
    sym.manager_mut().cube(&lits)
}

/// One step of the explicit token game: `t` fires when its preset is
/// marked and, if labelled, its signal holds the pre-firing value — the
/// firing rule of the symbolic δ.
fn fire(stg: &Stg, t: TransId, m: &Marking, code: Code) -> Option<(Marking, Code)> {
    let next = stg.net().try_fire(t, m)?;
    match stg.label(t) {
        None => Some((next, code)),
        Some(l) if code.get(l.signal) == l.polarity.value_before() => {
            Some((next, code.with(l.signal, l.polarity.value_after())))
        }
        Some(_) => None,
    }
}

/// Breadth-first distance on the explicit token game from `(m₀, code)`
/// to the nearest state of `target`, or `None` when no reachable state
/// lies in it. On a consistent STG this walks `build_state_graph`'s
/// graph; unlike it, it also walks an inconsistent one.
fn explicit_distance(sym: &mut SymbolicStg<'_>, code: Code, target: Bdd) -> Option<usize> {
    let stg = sym.stg();
    let start = (stg.net().initial_marking(), code);
    let mut seen = HashSet::from([start.clone()]);
    let mut queue = VecDeque::from([(start, 0)]);
    while let Some(((m, c), d)) = queue.pop_front() {
        let cube = state_cube(sym, &m, c);
        if sym.manager_mut().is_subset(cube, target) {
            return Some(d);
        }
        for t in stg.net().transitions() {
            if let Some(next) = fire(stg, t, &m, c) {
                if seen.insert(next.clone()) {
                    queue.push_back((next, d + 1));
                }
            }
        }
    }
    None
}

/// Replays `trace` from `(m₀, code)`, asserting every firing is legal,
/// and returns the state it ends in.
fn replay(stg: &Stg, code: Code, trace: &[TransId]) -> (Marking, Code) {
    let mut state = (stg.net().initial_marking(), code);
    for &t in trace {
        state = fire(stg, t, &state.0, state.1)
            .unwrap_or_else(|| panic!("`{}` cannot fire", stg.label_string(t)));
    }
    state
}

/// A one-shot specification: `r+` then `a+`, then nothing — a deadlock.
fn oneshot() -> Stg {
    let mut b = StgBuilder::new("oneshot");
    b.input("r");
    b.output("a");
    let p = b.place("p", 1);
    b.pt(p, "r+");
    b.arc("r+", "a+");
    b.initial_code_str("00");
    b.build().unwrap()
}

/// Builds a target set once the traversal has produced `reached`.
type Target = fn(&mut SymbolicStg<'_>, Bdd) -> Bdd;

/// The code region where every named signal is high.
fn all_high(sym: &mut SymbolicStg<'_>, names: &[&str]) -> Bdd {
    let lits: Vec<Literal> = names
        .iter()
        .map(|n| Literal::new(sym.signal_var(sym.stg().signal_by_name(n).unwrap()), true))
        .collect();
    sym.manager_mut().cube(&lits)
}

/// Traces work after every engine, with and without sifting: each one
/// replays on the explicit token game into its target, is as short as
/// the explicit breadth-first distance, and an unreachable target gives
/// none.
#[test]
fn traces_from_every_engine_replay_into_the_target_and_are_shortest() {
    let cases: [(&str, Stg, Target, bool); 4] = [
        (
            "inconsistent b+",
            gen::inconsistent_stg(),
            |sym, _| {
                let b = sym.stg().signal_by_name("b").unwrap();
                sym.inconsistent_set(b, Polarity::Rise)
            },
            true,
        ),
        ("oneshot deadlock", oneshot(), |sym, reached| sym.deadlock_set(reached), true),
        ("mutex a1 with r2", gen::mutex_element(), |sym, _| all_high(sym, &["a1", "r2"]), true),
        ("mutex both grants", gen::mutex_element(), |sym, _| all_high(sym, &["a1", "a2"]), false),
    ];
    for kind in [EngineKind::PerTransition, EngineKind::ParallelSharded, EngineKind::Saturation] {
        for reorder in [ReorderMode::None, ReorderMode::Sift] {
            let opts = EngineOptions { kind, jobs: 2, reorder };
            for (name, stg, make_target, reachable) in &cases {
                let cell = format!("{name}, {kind}, reorder {reorder}");
                let mut sym = SymbolicStg::new(stg, VarOrder::Interleaved);
                sym.set_engine(opts);
                let code = sym.effective_initial_code().unwrap();
                let reached = sym.traverse(code).reached;
                let target = make_target(&mut sym, reached);
                let trace = sym.extract_trace(code, reached, target);
                let distance = explicit_distance(&mut sym, code, target);
                assert_eq!(distance.is_some(), *reachable, "{cell}");
                assert_eq!(trace.as_ref().map(Vec::len), distance, "{cell}: {trace:?}");
                if let Some(trace) = trace {
                    let (m, c) = replay(stg, code, &trace);
                    let end = state_cube(&mut sym, &m, c);
                    assert!(sym.manager_mut().is_subset(end, target), "{cell}: {trace:?}");
                }
            }
        }
    }
}
