//! Quantification and cofactors: the workhorses of symbolic traversal.
//!
//! The paper's transition function (Section 4) is defined by *cube
//! cofactors* (`f_c`: restrict `f` by the literals of a cube `c` and drop
//! those variables) and products. For a safe net the cofactor/product
//! pair always re-imposes the negation of the literals it removed, so the
//! image is computed by one memoised recursion, [`BddOps::flip_cube`].
//! The verification algorithms additionally need existential abstraction
//! `∃x.f`.
//!
//! Complement edges shape this module twice over: the cube cofactor
//! commutes with negation (`(¬f)_c = ¬(f_c)`), so its cache is keyed on
//! regular handles only, and universal abstraction is the free dual
//! `∀c.f = ¬∃c.¬f` — one recursion serves both quantifiers through one
//! cache.
//!
//! The recursions below are generic over [`BddOps`], like the connectives
//! in `ops.rs`: each has one body, compiled once for the exclusive and
//! once for the shared manager borrow. The public entry points are the
//! [`BddOps`] methods that call them.

use crate::manager::{BddManager, BinOp};
use crate::node::{Bdd, Level, Literal, Node, TERMINAL_LEVEL};
use crate::ops::BddOps;

impl BddManager {
    /// Returns `true` if `f` is a cube: a single path to `TRUE`.
    pub fn is_cube(&self, f: Bdd) -> bool {
        let mut g = f;
        if g.is_false() {
            return false;
        }
        while !g.is_terminal() {
            let (lo, hi) = self.children(g);
            match (lo.is_false(), hi.is_false()) {
                (true, false) => g = hi,
                (false, true) => g = lo,
                _ => return false,
            }
        }
        g.is_true()
    }

    /// Decomposes a cube into its literals.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a cube (see [`BddManager::is_cube`]).
    pub fn cube_literals(&self, f: Bdd) -> Vec<Literal> {
        assert!(self.is_cube(f), "cube_literals called on a non-cube");
        let mut lits = Vec::new();
        let mut g = f;
        while !g.is_terminal() {
            let v = self.var_at(self.node(g).level as usize);
            let (lo, hi) = self.children(g);
            if lo.is_false() {
                lits.push(Literal::positive(v));
                g = hi;
            } else {
                lits.push(Literal::negative(v));
                g = lo;
            }
        }
        lits
    }

    /// Top level of a cube plus its tail (the cube minus its top
    /// literal), in one arena read; `TRUE` reports [`TERMINAL_LEVEL`]
    /// and itself. The shared skip-step of every quantifier recursion.
    #[inline]
    fn cube_peek(&self, c: Bdd) -> (Level, Bdd) {
        if c.is_terminal() {
            return (TERMINAL_LEVEL, c);
        }
        let (cl, clo, chi) = self.peek(c);
        (cl, if clo.is_false() { chi } else { clo })
    }
}

/// Recursive cofactor over a *regular* `f` (see [`BddOps::cofactor_cube`]).
pub(crate) fn cofactor_rec<M: BddOps>(m: &mut M, f: Bdd, c: Bdd) -> Bdd {
    debug_assert!(!f.is_complemented());
    if c.is_true() || f.is_terminal() {
        return f;
    }
    let mgr = m.manager();
    if let Some(r) = mgr.caches.bin_get(BinOp::CofactorCube, f, c) {
        return r;
    }
    if mgr.inert() {
        return Bdd::FALSE;
    }
    let (fl, flo, fhi) = mgr.peek(f);
    let (cl, clo, chi) = mgr.peek(c);
    // `c` is a cube: its tail is whichever child is not FALSE, and
    // `clo` doubles as the polarity of the top literal.
    let next = if clo.is_false() { chi } else { clo };
    let r = if cl < fl {
        // `f` does not depend on the cube's top variable: skip it.
        cofactor_rec(m, f, next)
    } else if cl == fl {
        let branch = if clo.is_false() { fhi } else { flo };
        let tag = branch.is_complemented();
        cofactor_rec(m, branch.regular(), next).complement_if(tag)
    } else {
        let hi_tag = fhi.is_complemented();
        let lo = cofactor_rec(m, flo, c);
        let hi = cofactor_rec(m, fhi.regular(), c).complement_if(hi_tag);
        m.mk(Node { level: fl, lo, hi })
    };
    // Budget trip below this frame → sub-results may be inert
    // garbage: never publish them to the memo table.
    if m.manager().inert() {
        return Bdd::FALSE;
    }
    m.memo(BinOp::CofactorCube, f, c, r);
    r
}

/// Recursive existential abstraction (see [`BddOps::exists`]).
pub(crate) fn exists_rec<M: BddOps>(m: &mut M, f: Bdd, mut c: Bdd) -> Bdd {
    if f.is_terminal() {
        return f;
    }
    let mgr = m.manager();
    let (fl, flo, fhi) = mgr.peek(f);
    // Skip cube variables above the root of f.
    let (cl, ctail) = loop {
        let (cl, tail) = mgr.cube_peek(c);
        if cl >= fl {
            break (cl, tail);
        }
        c = tail;
    };
    if c.is_true() {
        return f;
    }
    if let Some(r) = mgr.caches.bin_get(BinOp::Exists, f, c) {
        return r;
    }
    if mgr.inert() {
        return Bdd::FALSE;
    }
    let r = if cl == fl {
        let lo = exists_rec(m, flo, ctail);
        if lo.is_true() {
            // Early termination: the disjunction is already TRUE.
            Bdd::TRUE
        } else {
            let hi = exists_rec(m, fhi, ctail);
            m.or(lo, hi)
        }
    } else {
        let lo = exists_rec(m, flo, c);
        let hi = exists_rec(m, fhi, c);
        m.mk(Node { level: fl, lo, hi })
    };
    if m.manager().inert() {
        return Bdd::FALSE;
    }
    m.memo(BinOp::Exists, f, c, r);
    r
}

/// Recursive literal flip (see [`BddOps::flip_cube`]).
///
/// Above the cube's top level the result keeps `f`'s shape; at a cube
/// variable it takes the branch of `f` where the variable holds its
/// source value and hangs it on the opposite branch. Flipping does not
/// commute with negation (both `f` and `¬f` lose the assignments where
/// a source value fails), so the memo key is the tagged `f`.
pub(crate) fn flip_rec<M: BddOps>(m: &mut M, f: Bdd, c: Bdd, back: bool) -> Bdd {
    if f.is_false() || c.is_false() {
        return Bdd::FALSE;
    }
    if c.is_true() {
        return f;
    }
    let op = if back { BinOp::FlipCubeBack } else { BinOp::FlipCube };
    let mgr = m.manager();
    if let Some(r) = mgr.caches.bin_get(op, f, c) {
        return r;
    }
    if mgr.inert() {
        return Bdd::FALSE;
    }
    let (fl, flo, fhi) = mgr.peek(f);
    let (cl, clo, chi) = mgr.peek(c);
    let r = if fl < cl {
        let lo = flip_rec(m, flo, c, back);
        let hi = flip_rec(m, fhi, c, back);
        m.mk(Node { level: fl, lo, hi })
    } else {
        // The top literal is positive when `clo` is FALSE; the source
        // value is the literal's, or its opposite when `back`.
        let from_hi = clo.is_false() != back;
        let next = if clo.is_false() { chi } else { clo };
        let (f0, f1) = if fl == cl { (flo, fhi) } else { (f, f) };
        let moved = flip_rec(m, if from_hi { f1 } else { f0 }, next, back);
        let (lo, hi) = if from_hi { (moved, Bdd::FALSE) } else { (Bdd::FALSE, moved) };
        m.mk(Node { level: cl, lo, hi })
    };
    if m.manager().inert() {
        return Bdd::FALSE;
    }
    m.memo(op, f, c, r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Var;

    fn setup3() -> (BddManager, Var, Var, Var) {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let z = m.new_var("z");
        (m, x, y, z)
    }

    #[test]
    fn cube_building_and_decomposition() {
        let (mut m, x, y, z) = setup3();
        let lits = vec![Literal::positive(x), Literal::negative(y), Literal::positive(z)];
        let c = m.cube(&lits);
        assert!(m.is_cube(c));
        let mut back = m.cube_literals(c);
        back.sort();
        let mut expect = lits.clone();
        expect.sort();
        assert_eq!(back, expect);
    }

    #[test]
    fn contradictory_cube_is_false() {
        let (mut m, x, _, _) = setup3();
        let c = m.cube(&[Literal::positive(x), Literal::negative(x)]);
        assert!(c.is_false());
        assert!(!m.is_cube(c));
    }

    #[test]
    fn non_cube_detection() {
        let (mut m, x, y, _) = setup3();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.or(vx, vy);
        assert!(!m.is_cube(f));
        assert!(m.is_cube(m.one()));
        // A complemented cube is generally not a cube.
        let c = m.cube(&[Literal::positive(x), Literal::positive(y)]);
        assert!(m.is_cube(c));
        let nc = m.not(c);
        assert!(!m.is_cube(nc));
    }

    #[test]
    fn restrict_single_literal() {
        let (mut m, x, y, _) = setup3();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.xor(vx, vy);
        let f_x1 = m.restrict(f, x, true);
        let ny = m.nvar(y);
        assert_eq!(f_x1, ny);
        let f_x0 = m.restrict(f, x, false);
        assert_eq!(f_x0, vy);
    }

    #[test]
    fn cofactor_commutes_with_negation() {
        let (mut m, x, y, z) = setup3();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let xy = m.and(vx, vy);
        let f = m.or(xy, vz);
        let c = m.cube(&[Literal::positive(x), Literal::negative(z)]);
        let pos = m.cofactor_cube(f, c);
        let nf = m.not(f);
        let neg = m.cofactor_cube(nf, c);
        assert_eq!(neg, m.not(pos));
    }

    #[test]
    fn cofactor_cube_matches_sequential_restrict() {
        let (mut m, x, y, z) = setup3();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let xy = m.and(vx, vy);
        let f = m.or(xy, vz);
        let c = m.cube(&[Literal::positive(x), Literal::negative(z)]);
        let via_cube = m.cofactor_cube(f, c);
        let step1 = m.restrict(f, x, true);
        let step2 = m.restrict(step1, z, false);
        assert_eq!(via_cube, step2);
        assert_eq!(via_cube, vy); // (1∧y)∨0 = y
    }

    #[test]
    fn exists_removes_variable() {
        let (mut m, x, y, _) = setup3();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.and(vx, vy);
        let cx = m.vars_cube(&[x]);
        let g = m.exists(f, cx);
        assert_eq!(g, vy);
        assert!(m.support(g).iter().all(|&v| v != x));
    }

    #[test]
    fn exists_is_disjunction_of_cofactors() {
        let (mut m, x, y, z) = setup3();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let t0 = m.and(vx, vy);
        let nz = m.not(vz);
        let t1 = m.xor(vy, nz);
        let f = m.or(t0, t1);
        for v in [x, y, z] {
            let c = m.vars_cube(&[v]);
            let q = m.exists(f, c);
            let f0 = m.restrict(f, v, false);
            let f1 = m.restrict(f, v, true);
            let expected = m.or(f0, f1);
            assert_eq!(q, expected);
        }
    }

    #[test]
    fn forall_is_dual_of_exists() {
        let (mut m, x, y, z) = setup3();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let t0 = m.or(vx, vy);
        let f = m.and(t0, vz);
        let c = m.vars_cube(&[x, z]);
        let all = m.forall(f, c);
        let nf = m.not(f);
        let ex = m.exists(nf, c);
        let dual = m.not(ex);
        assert_eq!(all, dual);
        // And the Shannon law directly.
        let f0 = m.restrict(f, x, false);
        let f1 = m.restrict(f, x, true);
        let cx = m.vars_cube(&[x]);
        let fa = m.forall(f, cx);
        let expected = m.and(f0, f1);
        assert_eq!(fa, expected);
    }

    #[test]
    fn quantifying_irrelevant_vars_is_identity() {
        let (mut m, x, y, z) = setup3();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.and(vx, vy);
        let cz = m.vars_cube(&[z]);
        assert_eq!(m.exists(f, cz), f);
        assert_eq!(m.forall(f, cz), f);
    }

    #[test]
    fn exists_over_whole_support_gives_constant() {
        let (mut m, x, y, _) = setup3();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.and(vx, vy);
        let c = m.vars_cube(&[x, y]);
        assert!(m.exists(f, c).is_true());
        assert!(m.forall(f, c).is_false());
        let zero = m.zero();
        assert!(m.exists(zero, c).is_false());
    }
}
