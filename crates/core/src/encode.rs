//! Symbolic encoding of an STG: boolean variables for places and signals,
//! variable-ordering strategies, and the per-transition characteristic
//! cubes of Section 4 of the paper.
//!
//! A *full state* `(m, s)` is a valuation of one boolean variable per place
//! (safe nets) plus one per signal. The paper defines the transition
//! function by the cubes `E(t)`, `NPM(t)`, `NSM(t)` and `ASM(t)` (see
//! `image.rs`); this module keeps, for every transition `t`:
//!
//! * `E(t) = ∧_{p∈•t} p` — `t` enabled;
//! * `L(t) = ∧_{p∈•t∩t•} p` — every self-loop place marked;
//! * `c(t)` — the pre-firing value of every variable the firing changes:
//!   `p` for `p ∈ •t∖t•`, `p′` for `p ∈ t•∖•t`, and `a′` (`a`) for a
//!   transition labelled `a+` (`a−`).

use stgcheck_bdd::{Bdd, BddCheckpoint, BddManager, BddOps, Literal, Var};
use stgcheck_petri::{PlaceId, TransId};
use stgcheck_stg::{Code, Polarity, SignalId, Stg};

use crate::engine::EngineOptions;

/// Static variable-ordering strategies for the place/signal variables.
///
/// The paper (Section 6) observes that "BDDs may have an exponential size
/// if appropriate heuristics for variable ordering are not used"; the
/// ordering ablation benchmark sweeps these strategies.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum VarOrder {
    /// Depth-first net traversal from the initially marked places, each
    /// signal variable interleaved right after the first place adjacent to
    /// one of its transitions. Depth first keeps independent components'
    /// variables adjacent — the strategy that keeps the scalable examples
    /// polynomial. The default.
    #[default]
    Interleaved,
    /// All place variables (in declaration order), then all signals.
    PlacesThenSignals,
    /// All signal variables, then all places.
    SignalsThenPlaces,
    /// Declaration order of places and signals, un-interleaved and
    /// deliberately naive — the "bad" baseline for the ablation.
    Declaration,
}

impl std::fmt::Display for VarOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VarOrder::Interleaved => "interleaved",
            VarOrder::PlacesThenSignals => "places",
            VarOrder::SignalsThenPlaces => "signals",
            VarOrder::Declaration => "declaration",
        })
    }
}

impl std::str::FromStr for VarOrder {
    type Err = String;

    fn from_str(s: &str) -> Result<VarOrder, String> {
        match s {
            "interleaved" => Ok(VarOrder::Interleaved),
            "places" => Ok(VarOrder::PlacesThenSignals),
            "signals" => Ok(VarOrder::SignalsThenPlaces),
            "declaration" => Ok(VarOrder::Declaration),
            other => Err(format!(
                "unknown order `{other}` (expected interleaved, places, signals or declaration)"
            )),
        }
    }
}

/// Per-transition characteristic cubes (Section 4).
#[derive(Copy, Clone, Debug)]
pub struct TransCubes {
    /// `E(t)`: all predecessor places marked.
    pub enabled: Bdd,
    /// `L(t)`: all self-loop places (`•t ∩ t•`) marked; `TRUE` when
    /// there are none.
    pub loops: Bdd,
    /// `c(t)` on the place variables: predecessor places marked and
    /// successor places empty, self-loop places left out.
    pub flip_m: Bdd,
    /// `c(t)`: `flip_m` plus the signal at its pre-firing value (`a′`
    /// for `a+`, `a` for `a−`); equal to `flip_m` for a dummy.
    pub flip: Bdd,
}

/// The symbolic context for one STG: a BDD manager populated with place
/// and signal variables, the per-transition cubes, and the quantification
/// prefixes used by the verification algorithms.
#[derive(Debug)]
pub struct SymbolicStg<'a> {
    stg: &'a Stg,
    mgr: BddManager,
    order: VarOrder,
    engine: EngineOptions,
    place_vars: Vec<Var>,
    signal_vars: Vec<Var>,
    trans_cubes: Vec<TransCubes>,
    /// Positive cube of every place variable (for `∃ places`).
    places_cube: Bdd,
    /// Positive cube of every signal variable (for `∃ signals`).
    signals_cube: Bdd,
}

impl<'a> SymbolicStg<'a> {
    /// Builds the symbolic context under the given ordering strategy.
    ///
    /// # Panics
    ///
    /// Panics if the net is not ordinary (weighted arcs have no safe-net
    /// encoding; the paper's construction targets safe nets).
    pub fn new(stg: &'a Stg, order: VarOrder) -> SymbolicStg<'a> {
        assert!(
            stg.net().is_ordinary(),
            "symbolic encoding requires an ordinary (unit-weight) net"
        );
        let mut mgr = BddManager::new();
        let net = stg.net();
        let np = net.num_places();
        let ns = stg.num_signals();
        let mut place_vars: Vec<Option<Var>> = vec![None; np];
        let mut signal_vars: Vec<Option<Var>> = vec![None; ns];
        // Sifting groups: blocks of variables that dynamic reordering
        // must keep adjacent and move as one (see docs/reordering.md).
        // Only the interleaved order produces meaningful blocks — each
        // signal with the places slotted right behind it.
        let mut groups: Vec<Vec<Var>> = Vec::new();

        let declare_place = |mgr: &mut BddManager, vars: &mut Vec<Option<Var>>, p: PlaceId| {
            if vars[p.index()].is_none() {
                vars[p.index()] = Some(mgr.new_var(format!("p:{}", net.place_name(p))));
            }
        };
        let declare_signal = |mgr: &mut BddManager, vars: &mut Vec<Option<Var>>, s: SignalId| {
            if vars[s.index()].is_none() {
                vars[s.index()] = Some(mgr.new_var(format!("s:{}", stg.signal_name(s))));
            }
        };

        match order {
            VarOrder::Interleaved => {
                // Marking invariants of the common net shapes tie each
                // place to the *signals* of the transitions it connects
                // (e.g. in a marked-graph pipeline the token position of a
                // stage is a function of the two neighbouring signals). So:
                // order the signals by a depth-first walk of their
                // adjacency (two signals are adjacent when a place joins
                // their transitions), and slot every place immediately
                // after the last of its adjacent signals. Each local
                // invariant then spans a short window of the order and the
                // reachable-set BDD stays linear in the net size.
                let sig_of_trans = |t: TransId| stg.label(t).map(|l| l.signal);
                let place_signals: Vec<Vec<SignalId>> = net
                    .places()
                    .map(|p| {
                        let mut sigs: Vec<SignalId> = net
                            .place_preset(p)
                            .iter()
                            .chain(net.place_postset(p))
                            .filter_map(|&t| sig_of_trans(t))
                            .collect();
                        sigs.sort();
                        sigs.dedup();
                        sigs
                    })
                    .collect();
                // Signal adjacency graph.
                let mut adj: Vec<Vec<SignalId>> = vec![Vec::new(); ns];
                for sigs in &place_signals {
                    for (i, &a) in sigs.iter().enumerate() {
                        for &b in &sigs[i + 1..] {
                            adj[a.index()].push(b);
                            adj[b.index()].push(a);
                        }
                    }
                }
                // DFS over signals, seeded by the initially enabled
                // transitions so the walk follows the causal flow.
                let m0 = net.initial_marking();
                let mut seed: Vec<SignalId> = net
                    .transitions()
                    .filter(|&t| net.is_enabled(t, &m0))
                    .filter_map(sig_of_trans)
                    .collect();
                seed.extend(stg.signals()); // fall-back for dead parts
                let mut sig_order: Vec<SignalId> = Vec::new();
                let mut seen_s = vec![false; ns];
                let mut stack: Vec<SignalId> = Vec::new();
                for s in seed {
                    if seen_s[s.index()] {
                        continue;
                    }
                    seen_s[s.index()] = true;
                    stack.push(s);
                    while let Some(x) = stack.pop() {
                        sig_order.push(x);
                        for &y in adj[x.index()].iter().rev() {
                            if !seen_s[y.index()] {
                                seen_s[y.index()] = true;
                                stack.push(y);
                            }
                        }
                    }
                }
                // Emit: each signal, then every place whose adjacent
                // signals are now all declared.
                let mut declared_s = vec![false; ns];
                let mut remaining: Vec<usize> = place_signals.iter().map(Vec::len).collect();
                for s in sig_order {
                    declare_signal(&mut mgr, &mut signal_vars, s);
                    declared_s[s.index()] = true;
                    let mut block = vec![signal_vars[s.index()].expect("just declared")];
                    for p in net.places() {
                        if place_vars[p.index()].is_some() {
                            continue;
                        }
                        if remaining[p.index()] > 0
                            && place_signals[p.index()].iter().all(|sig| declared_s[sig.index()])
                        {
                            remaining[p.index()] = 0;
                            declare_place(&mut mgr, &mut place_vars, p);
                            block.push(place_vars[p.index()].expect("just declared"));
                        }
                    }
                    groups.push(block);
                }
                // Leftovers: places touching only dummies or nothing.
                for p in net.places() {
                    declare_place(&mut mgr, &mut place_vars, p);
                }
            }
            VarOrder::PlacesThenSignals => {
                for p in net.places() {
                    declare_place(&mut mgr, &mut place_vars, p);
                }
                for s in stg.signals() {
                    declare_signal(&mut mgr, &mut signal_vars, s);
                }
            }
            VarOrder::SignalsThenPlaces => {
                for s in stg.signals() {
                    declare_signal(&mut mgr, &mut signal_vars, s);
                }
                for p in net.places() {
                    declare_place(&mut mgr, &mut place_vars, p);
                }
            }
            VarOrder::Declaration => {
                // Alternate blocks in declaration order without any net
                // awareness: places then signals, but in reverse order to
                // be deliberately unhelpful on pipeline-shaped nets.
                for p in net.places().collect::<Vec<_>>().into_iter().rev() {
                    declare_place(&mut mgr, &mut place_vars, p);
                }
                for s in stg.signals() {
                    declare_signal(&mut mgr, &mut signal_vars, s);
                }
            }
        }

        let place_vars: Vec<Var> = place_vars.into_iter().map(Option::unwrap).collect();
        let signal_vars: Vec<Var> = signal_vars.into_iter().map(Option::unwrap).collect();
        mgr.set_var_groups(groups);

        let mut trans_cubes = Vec::with_capacity(net.num_transitions());
        for t in net.transitions() {
            let pre: Vec<Var> = net.preset(t).iter().map(|&(p, _)| place_vars[p.index()]).collect();
            let post: Vec<Var> =
                net.postset(t).iter().map(|&(p, _)| place_vars[p.index()]).collect();
            let enabled: Vec<Literal> = pre.iter().map(|&v| Literal::positive(v)).collect();
            let loops: Vec<Literal> =
                pre.iter().filter(|v| post.contains(v)).map(|&v| Literal::positive(v)).collect();
            let mut flip: Vec<Literal> = pre
                .iter()
                .filter(|v| !post.contains(v))
                .map(|&v| Literal::positive(v))
                .chain(post.iter().filter(|v| !pre.contains(v)).map(|&v| Literal::negative(v)))
                .collect();
            let flip_m = mgr.cube(&flip);
            if let Some(l) = stg.label(t) {
                flip.push(Literal::new(signal_vars[l.signal.index()], l.polarity.value_before()));
            }
            trans_cubes.push(TransCubes {
                enabled: mgr.cube(&enabled),
                loops: mgr.cube(&loops),
                flip_m,
                flip: mgr.cube(&flip),
            });
        }
        let places_cube = mgr.vars_cube(&place_vars);
        let signals_cube = mgr.vars_cube(&signal_vars);
        SymbolicStg {
            stg,
            mgr,
            order,
            engine: EngineOptions::default(),
            place_vars,
            signal_vars,
            trans_cubes,
            places_cube,
            signals_cube,
        }
    }

    /// The STG being analysed.
    pub fn stg(&self) -> &'a Stg {
        self.stg
    }

    /// The ordering strategy this context was built under. The parallel
    /// engine uses it to build level-compatible worker contexts.
    pub fn order(&self) -> VarOrder {
        self.order
    }

    /// The image-engine configuration driving every fixed-point loop
    /// (traversal, frozen-marking inference, frozen-input CSC checks).
    pub fn engine(&self) -> &EngineOptions {
        &self.engine
    }

    /// Selects the image engine for subsequent fixed-point loops.
    pub fn set_engine(&mut self, engine: EngineOptions) {
        self.engine = engine;
    }

    /// Shared access to the underlying manager (for stats and decoding).
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// Mutable access to the underlying manager.
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.mgr
    }

    /// The BDD variable of place `p`.
    pub fn place_var(&self, p: PlaceId) -> Var {
        self.place_vars[p.index()]
    }

    /// The BDD variable of signal `s`.
    pub fn signal_var(&self, s: SignalId) -> Var {
        self.signal_vars[s.index()]
    }

    /// The sifting groups this context declared on its manager: under
    /// [`VarOrder::Interleaved`], one block per signal holding the signal
    /// variable and the places slotted right behind it (the window of the
    /// local marking invariant); empty for the other static orders.
    pub fn var_groups(&self) -> &[Vec<Var>] {
        self.mgr.var_groups()
    }

    /// Exports named roots as a durable v3 checkpoint artifact stamped
    /// with `net_hash` (see `docs/persistent-store.md`).
    pub fn export_checkpoint(
        &self,
        net_hash: u128,
        roots: &[(&str, Bdd)],
        meta: &[(String, u64)],
    ) -> BddCheckpoint {
        self.mgr.export_checkpoint(net_hash, roots, meta)
    }

    /// Imports a v3 checkpoint into this context by *name*: every
    /// checkpoint variable must exist here (place/signal variables are
    /// named `p:…`/`s:…`, so names are stable across runs), and the
    /// manager's levels are permuted in place
    /// ([`stgcheck_bdd::BddManager::permute_levels`]) so its top levels
    /// line up with the checkpoint's level semantics before the one-pass
    /// bulk load. Variables of this context that the checkpoint does not
    /// mention (a monotone edit's new places) keep their relative order
    /// below the imported block.
    ///
    /// Every handle stays valid across the permutation, but the swaps
    /// cost time in proportion to the nodes they pass, so call this on a
    /// fresh context, before computing anything else against it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first name mismatch; the context is
    /// untouched in that case.
    pub fn import_checkpoint(&mut self, ck: &BddCheckpoint) -> Result<Vec<(String, Bdd)>, String> {
        let by_name: std::collections::HashMap<&str, Var> = (0..self.mgr.num_vars())
            .map(|lvl| {
                let v = self.mgr.var_at(lvl);
                (self.mgr.var_name(v), v)
            })
            .collect();
        let mut order: Vec<Var> = Vec::with_capacity(self.mgr.num_vars());
        for name in &ck.var_names {
            match by_name.get(name.as_str()) {
                Some(&v) => order.push(v),
                None => {
                    return Err(format!(
                        "checkpoint variable `{name}` does not exist in this net's encoding"
                    ))
                }
            }
        }
        let in_ck: std::collections::HashSet<Var> = order.iter().copied().collect();
        order.extend(self.mgr.order().into_iter().filter(|v| !in_ck.contains(v)));
        if order != self.mgr.order() {
            self.mgr.permute_levels(&order);
        }
        self.mgr.bulk_import_checkpoint(ck)
    }

    /// The characteristic cubes of transition `t`.
    pub fn cubes(&self, t: TransId) -> &TransCubes {
        &self.trans_cubes[t.index()]
    }

    /// Positive cube over all place variables (the `∃p` prefix of Section
    /// 5.3).
    pub fn places_cube(&self) -> Bdd {
        self.places_cube
    }

    /// Positive cube over all signal variables.
    pub fn signals_cube(&self) -> Bdd {
        self.signals_cube
    }

    /// `E(a*)`: some transition labelled with the given signal edge is
    /// enabled (Section 5.1).
    pub fn edge_enabled(&mut self, s: SignalId, polarity: Polarity) -> Bdd {
        let ts = self.stg.transitions_of_edge(s, polarity);
        let cubes: Vec<Bdd> = ts.iter().map(|&t| self.trans_cubes[t.index()].enabled).collect();
        self.mgr.or_many(&cubes)
    }

    /// The characteristic function of the single full state `(m₀, code)`.
    pub fn initial_state(&mut self, code: Code) -> Bdd {
        let net = self.stg.net();
        let m0 = net.initial_marking();
        let mut lits = Vec::with_capacity(self.place_vars.len() + self.signal_vars.len());
        for p in net.places() {
            lits.push(Literal::new(self.place_vars[p.index()], m0.tokens(p) > 0));
        }
        for s in self.stg.signals() {
            lits.push(Literal::new(self.signal_vars[s.index()], code.get(s)));
        }
        self.mgr.cube(&lits)
    }

    /// All roots that must survive garbage collection regardless of the
    /// caller's own live functions.
    pub fn permanent_roots(&self) -> Vec<Bdd> {
        let mut roots = vec![self.places_cube, self.signals_cube];
        for c in &self.trans_cubes {
            roots.extend([c.enabled, c.loops, c.flip_m, c.flip]);
        }
        roots
    }

    /// Decodes one satisfying assignment of `set` into a human-readable
    /// witness (marked places and signal values). Returns `None` when
    /// `set` is empty.
    pub fn decode_witness(&self, set: Bdd) -> Option<StateWitness> {
        let cube = self.mgr.pick_cube(set)?;
        let net = self.stg.net();
        let mut marked = Vec::new();
        let mut code = Code::ZERO;
        let mut known_signals = Vec::new();
        for lit in cube {
            if let Some(p) = self.place_vars.iter().position(|&v| v == lit.var()) {
                if lit.is_positive() {
                    marked.push(net.place_name(PlaceId::from_index(p)).to_string());
                }
            } else if let Some(s) = self.signal_vars.iter().position(|&v| v == lit.var()) {
                let sid = SignalId::from_index(s);
                code = code.with(sid, lit.is_positive());
                known_signals.push(sid);
            }
        }
        Some(StateWitness {
            marked_places: marked,
            code: (0..self.stg.num_signals())
                .map(|i| {
                    let sid = SignalId::from_index(i);
                    if known_signals.contains(&sid) {
                        if code.get(sid) {
                            '1'
                        } else {
                            '0'
                        }
                    } else {
                        '-'
                    }
                })
                .collect(),
        })
    }
}

/// A decoded counter-example state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StateWitness {
    /// Names of the marked places (don't-care places omitted).
    pub marked_places: Vec<String>,
    /// Signal values as a 0/1/- string in signal declaration order
    /// (`-` = don't care in the witness cube).
    pub code: String,
}

impl std::fmt::Display for StateWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "code {} marking {{{}}}", self.code, self.marked_places.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgcheck_stg::gen;

    #[test]
    fn var_order_parses_and_displays() {
        for (s, o) in [
            ("interleaved", VarOrder::Interleaved),
            ("places", VarOrder::PlacesThenSignals),
            ("signals", VarOrder::SignalsThenPlaces),
            ("declaration", VarOrder::Declaration),
        ] {
            assert_eq!(s.parse::<VarOrder>().unwrap(), o);
            assert_eq!(o.to_string(), s);
        }
        assert!("bogus".parse::<VarOrder>().unwrap_err().contains("unknown order `bogus`"));
    }

    #[test]
    fn encodes_all_variables() {
        let stg = gen::mutex_element();
        for order in [
            VarOrder::Interleaved,
            VarOrder::PlacesThenSignals,
            VarOrder::SignalsThenPlaces,
            VarOrder::Declaration,
        ] {
            let sym = SymbolicStg::new(&stg, order);
            assert_eq!(
                sym.manager().num_vars(),
                stg.net().num_places() + stg.num_signals(),
                "{order:?}"
            );
        }
    }

    #[test]
    fn transition_cubes_shape() {
        let stg = gen::mutex_element();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let net = stg.net();
        let a1p = net.trans_by_name("a1+").unwrap();
        let c = *sym.cubes(a1p);
        // a1+ consumes req1 and the mutex place: E(t) is a 2-literal cube.
        assert!(sym.manager().is_cube(c.enabled));
        assert_eq!(sym.manager().cube_literals(c.enabled).len(), 2);
        assert!(sym.manager().cube_literals(c.enabled).iter().all(|l| l.is_positive()));
        // No self-loops, and the firing flips the two predecessors, the
        // successor and the signal.
        assert!(c.loops.is_true());
        assert_eq!(sym.manager().cube_literals(c.flip_m).len(), 3);
        assert_eq!(sym.manager().cube_literals(c.flip).len(), 4);
        // E(a1*) covers exactly the one grant transition.
        let a1 = stg.signal_by_name("a1").unwrap();
        let e = sym.edge_enabled(a1, Polarity::Rise);
        assert_eq!(e, c.enabled);
    }

    #[test]
    fn initial_state_is_a_full_minterm() {
        let stg = gen::mutex_element();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let init = sym.initial_state(Code::ZERO);
        let m = sym.manager();
        assert!(m.is_cube(init));
        assert_eq!(m.cube_literals(init).len(), stg.net().num_places() + stg.num_signals());
        assert_eq!(m.sat_count(init), 1);
    }

    #[test]
    fn witness_decoding_round_trips() {
        let stg = gen::mutex_element();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let init = sym.initial_state(Code::ZERO);
        let w = sym.decode_witness(init).unwrap();
        assert_eq!(w.code, "0000");
        let mut marked = w.marked_places.clone();
        marked.sort();
        assert_eq!(marked, vec!["idle1", "idle2", "m"]);
        assert!(w.to_string().contains("code 0000"));
        assert_eq!(sym.decode_witness(Bdd::FALSE), None);
    }
}
