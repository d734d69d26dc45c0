//! The symbolic transition function δ and its inverse (Section 4).
//!
//! The paper defines, for a set of full states `M` and transition `t`:
//!
//! ```text
//! δN(M,t) = ((M_{E(t)} · NPM(t))_{NSM(t)}) · ASM(t)          (markings)
//! δD(M,t) = (δN(M,t))_{a′} · a    if λ(t) = a+               (code update)
//!           (δN(M,t))_{a}  · a′   if λ(t) = a−
//! ```
//!
//! where `f_c` is the generalised cofactor by cube `c`. The cofactor both
//! *selects* the states where the cube holds and *removes* its variables,
//! so the subsequent product re-imposes the post-firing values. The same
//! four steps mirrored give the exact pre-image.
//!
//! In a safe net every cofactor/product pair re-imposes the negation of
//! the literals it removed, except on the self-loop places `•t ∩ t•`,
//! which must be marked before and stay marked. So, with `L(t)` the cube
//! of the self-loop places and `c(t)` the pre-firing values of every
//! variable the firing changes (see `encode.rs`),
//!
//! ```text
//! δ(M,t)   = flip(M ∧ L(t), c(t))
//! δ⁻¹(M,t) = flip⁻¹(M ∧ L(t), c(t))
//! ```
//!
//! where `flip` keeps the states in which `c(t)` holds and negates its
//! literals ([`BddOps::flip_cube`]), and `flip⁻¹` is its mirror. This is
//! one memoised recursion per image and no intermediate BDD; a unit test
//! below checks it against the four-step formula on every transition.
//!
//! Note the complete absence of next-state variables: this is the paper's
//! key encoding trick, and the ablation benchmarks measure what it buys.
//!
//! The image is written once, in [`TransCubes::fire`], generic over the
//! manager borrow ([`BddOps`]): the parallel engine's workers run it on a
//! shared `&BddManager`, everything else on `&mut BddManager`.

use stgcheck_bdd::{Bdd, BddOps};
use stgcheck_petri::TransId;

use crate::encode::{SymbolicStg, TransCubes};
use crate::engine::StepDirection;

impl TransCubes {
    /// Fires the transition on `set`: `δD` forward, its exact inverse
    /// backward, or the marking-only `δN` (and inverse) when
    /// `marking_only` — the identity of the module docs.
    pub(crate) fn fire<M: BddOps>(
        &self,
        mgr: &mut M,
        set: Bdd,
        direction: StepDirection,
        marking_only: bool,
    ) -> Bdd {
        let flip = if marking_only { self.flip_m } else { self.flip };
        let kept = mgr.and(set, self.loops);
        mgr.flip_cube(kept, flip, direction == StepDirection::Backward)
    }
}

impl SymbolicStg<'_> {
    /// Forward image on the marking variables only: `δN(M, t)`.
    ///
    /// States where `t` is not enabled contribute nothing; states where a
    /// successor place (other than a self-loop) is already marked are
    /// dropped, as by the paper's `NSM` cofactor — the safeness check
    /// reports those separately.
    pub fn image_marking(&mut self, m: Bdd, t: TransId) -> Bdd {
        let c = *self.cubes(t);
        c.fire(self.manager_mut(), m, StepDirection::Forward, true)
    }

    /// Full forward image `δD(M, t)`: marking update plus the signal-code
    /// update for labelled transitions.
    ///
    /// States whose code is inconsistent with the label (e.g. `a+` fired
    /// with `a = 1`) are silently dropped, as by the code cofactor; the
    /// consistency check detects them before they would matter.
    pub fn image(&mut self, m: Bdd, t: TransId) -> Bdd {
        let c = *self.cubes(t);
        c.fire(self.manager_mut(), m, StepDirection::Forward, false)
    }

    /// Backward image on the marking variables only: all markings from
    /// which firing `t` lands in `M`.
    pub fn preimage_marking(&mut self, m: Bdd, t: TransId) -> Bdd {
        let c = *self.cubes(t);
        c.fire(self.manager_mut(), m, StepDirection::Backward, true)
    }

    /// Full backward image: all full states from which firing `t` lands in
    /// `M`.
    pub fn preimage(&mut self, m: Bdd, t: TransId) -> Bdd {
        let c = *self.cubes(t);
        c.fire(self.manager_mut(), m, StepDirection::Backward, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use stgcheck_bdd::Literal;
    use stgcheck_petri::PlaceId;
    use stgcheck_stg::{gen, Code, StgBuilder};

    #[test]
    fn image_follows_token_game() {
        let stg = gen::mutex_element();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let net = stg.net();
        let init = sym.initial_state(Code::ZERO);

        let r1p = net.trans_by_name("r1+").unwrap();
        let next = sym.image(init, r1p);
        assert_eq!(sym.manager().sat_count(next), 1);
        let w = sym.decode_witness(next).unwrap();
        assert_eq!(w.code, "1000"); // r1 rose
        assert!(w.marked_places.contains(&"req1".to_string()));
        assert!(!w.marked_places.contains(&"idle1".to_string()));

        // a1+ is not enabled before r1+: empty image from the initial state.
        let a1p = net.trans_by_name("a1+").unwrap();
        assert!(sym.image(init, a1p).is_false());
    }

    #[test]
    fn image_and_preimage_are_adjoint() {
        // img(S,t) ∩ T ≠ ∅  ⇔  S ∩ pre(T,t) ≠ ∅, here with S,T = whole
        // reachable space slices of the mutex element.
        let stg = gen::mutex_element();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let init = sym.initial_state(Code::ZERO);
        let net = stg.net();
        for t in net.transitions() {
            let fwd = sym.image(init, t);
            if fwd.is_false() {
                continue;
            }
            let back = sym.preimage(fwd, t);
            // The pre-image of the image contains the source state.
            let mgr = sym.manager_mut();
            assert!(mgr.is_subset(init, back), "t = {}", net.trans_name(t));
        }
    }

    #[test]
    fn preimage_inverts_image_exactly_on_singletons() {
        let stg = gen::muller_pipeline(3);
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let init = sym.initial_state(Code::ZERO);
        let net = stg.net();
        let c0p = net.trans_by_name("c0+").unwrap();
        let next = sym.image(init, c0p);
        assert_eq!(sym.manager().sat_count(next), 1);
        let back = sym.preimage(next, c0p);
        assert_eq!(back, init);
    }

    #[test]
    fn self_loop_place_is_preserved() {
        // Transition with a self-loop on place `l`: the token must remain.
        let mut b = StgBuilder::new("selfloop");
        b.input("x");
        let l = b.place("l", 1);
        let src = b.place("src", 1);
        let dst = b.place("dst", 0);
        b.pt(l, "x+");
        b.tp("x+", l);
        b.pt(src, "x+");
        b.tp("x+", dst);
        b.initial_code_str("0");
        let stg = b.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::PlacesThenSignals);
        let init = sym.initial_state(Code::ZERO);
        let xp = stg.net().trans_by_name("x+").unwrap();
        let next = sym.image(init, xp);
        let w = sym.decode_witness(next).unwrap();
        assert!(w.marked_places.contains(&"l".to_string()));
        assert!(w.marked_places.contains(&"dst".to_string()));
        assert!(!w.marked_places.contains(&"src".to_string()));
        // And backward returns exactly the initial state.
        let back = sym.preimage(next, xp);
        assert_eq!(back, init);
    }

    #[test]
    fn inconsistent_firing_is_dropped_by_code_cofactor() {
        // Firing a+ from a state where a=1 yields the empty set.
        let mut b = StgBuilder::new("m");
        b.input("a");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.pt(p, "a+");
        b.tp("a+", q);
        b.initial_code_str("1"); // a already high!
        let stg = b.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let init = sym.initial_state(Code::from_bit_string("1").unwrap());
        let ap = stg.net().trans_by_name("a+").unwrap();
        assert!(sym.image(init, ap).is_false());
        // The marking-only image ignores codes and does fire.
        assert!(!sym.image_marking(init, ap).is_false());
    }

    #[test]
    fn dummy_transitions_change_no_signal() {
        let mut b = StgBuilder::new("m");
        b.input("a");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.dummy("eps");
        b.pt(p, "eps");
        b.tp("eps", q);
        b.initial_code_str("0");
        let stg = b.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let init = sym.initial_state(Code::ZERO);
        let eps = stg.net().trans_by_name("eps").unwrap();
        let next = sym.image(init, eps);
        let w = sym.decode_witness(next).unwrap();
        assert_eq!(w.code, "0");
        assert_eq!(w.marked_places, vec!["q".to_string()]);
    }

    /// The paper's four-step pipeline, rebuilt from `cofactor_cube` and
    /// `and` over the `E`/`NPM`/`NSM`/`ASM` cubes of the module docs.
    fn paper_image(
        sym: &mut SymbolicStg<'_>,
        t: TransId,
        set: Bdd,
        direction: StepDirection,
        marking_only: bool,
    ) -> Bdd {
        let stg = sym.stg();
        let net = stg.net();
        let cube = |sym: &mut SymbolicStg<'_>, places: &[(PlaceId, u32)], value: bool| {
            let lits: Vec<Literal> =
                places.iter().map(|&(p, _)| Literal::new(sym.place_var(p), value)).collect();
            sym.manager_mut().cube(&lits)
        };
        let e = cube(sym, net.preset(t), true);
        let npm = cube(sym, net.preset(t), false);
        let nsm = cube(sym, net.postset(t), false);
        let asm = cube(sym, net.postset(t), true);
        let [select, clear, vacate, mark] = match direction {
            StepDirection::Forward => [e, npm, nsm, asm],
            StepDirection::Backward => [asm, nsm, npm, e],
        };
        let mgr = sym.manager_mut();
        let r = mgr.cofactor_cube(set, select);
        let r = mgr.and(r, clear);
        let r = mgr.cofactor_cube(r, vacate);
        let moved = mgr.and(r, mark);
        let Some(label) = stg.label(t).filter(|_| !marking_only) else { return moved };
        let after = Literal::new(sym.signal_var(label.signal), label.polarity.value_after());
        let after = sym.manager().literal(after);
        let (sel, put) = match direction {
            StepDirection::Forward => (after.complement(), after),
            StepDirection::Backward => (after, after.complement()),
        };
        let mgr = sym.manager_mut();
        let r = mgr.cofactor_cube(moved, sel);
        mgr.and(r, put)
    }

    /// The flip kernel computes exactly the paper's δ: every transition
    /// of each net, forward and backward, full-state and marking-only,
    /// on the reachable set, its complement and the whole state space
    /// (where unsafe successor markings must be dropped).
    #[test]
    fn image_matches_the_paper_pipeline() {
        let mut self_loop = StgBuilder::new("selfloop");
        self_loop.input("x");
        let l = self_loop.place("l", 1);
        let src = self_loop.place("src", 1);
        let dst = self_loop.place("dst", 0);
        self_loop.pt(l, "x+");
        self_loop.tp("x+", l);
        self_loop.pt(src, "x+");
        self_loop.tp("x+", dst);
        self_loop.pt(dst, "x-");
        self_loop.tp("x-", src);
        self_loop.initial_code_str("0");
        let mut dummy = StgBuilder::new("dummy");
        dummy.input("a");
        let p = dummy.place("p", 1);
        let q = dummy.place("q", 0);
        let r = dummy.place("r", 0);
        dummy.dummy("eps");
        dummy.pt(p, "eps");
        dummy.tp("eps", q);
        dummy.pt(q, "a+");
        dummy.tp("a+", r);
        dummy.initial_code_str("0");
        let nets = [
            gen::mutex_element(),
            gen::muller_pipeline(4),
            gen::master_read(2),
            self_loop.build().unwrap(),
            dummy.build().unwrap(),
        ];
        for stg in &nets {
            let mut sym = SymbolicStg::new(stg, VarOrder::Interleaved);
            let code = sym.effective_initial_code().unwrap();
            let reached = sym.traverse(code).reached;
            for set in [reached, reached.complement(), Bdd::TRUE] {
                for t in stg.net().transitions() {
                    let name = stg.net().trans_name(t);
                    for marking_only in [false, true] {
                        for direction in [StepDirection::Forward, StepDirection::Backward] {
                            let expected = paper_image(&mut sym, t, set, direction, marking_only);
                            let got = match (direction, marking_only) {
                                (StepDirection::Forward, false) => sym.image(set, t),
                                (StepDirection::Forward, true) => sym.image_marking(set, t),
                                (StepDirection::Backward, false) => sym.preimage(set, t),
                                (StepDirection::Backward, true) => sym.preimage_marking(set, t),
                            };
                            assert_eq!(
                                got,
                                expected,
                                "{} t={name} {direction:?} marking_only={marking_only}",
                                stg.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
