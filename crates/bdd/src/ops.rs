//! Boolean operations on BDDs: negation, the binary connectives, and the
//! [`BddOps`] trait that every node-creating operation lives on.
//!
//! With complement edges, negation is a tag flip — no traversal, no cache,
//! no arena growth — and the connectives collapse onto a small core:
//! `or` is De Morgan over `and`, `implies`/`diff` are `and` with one
//! negated operand, `iff` is a negated `xor`. The core operations memoise
//! complement-*normalized* keys (operand order for the symmetric ops,
//! tags stripped where the operation commutes with negation), so `f∧g`,
//! `g∧f`, `¬f∨¬g` and `¬(f∧g)` all resolve through a single cache line.
//!
//! The recursions are written once each, as provided methods of
//! [`BddOps`]; see its docs for the two instantiations.

use crate::manager::{BddManager, BinOp};
use crate::node::{Bdd, Literal, Node, Var};

impl BddManager {
    /// Logical negation `¬f` — O(1): flips the complement tag of the
    /// handle, touching neither the arena nor any cache.
    ///
    /// # Examples
    ///
    /// ```
    /// use stgcheck_bdd::BddManager;
    /// let mut m = BddManager::new();
    /// let x = m.new_var("x");
    /// let f = m.var(x);
    /// let nf = m.not(f);
    /// assert_eq!(nf, m.nvar(x));
    /// assert_eq!(m.not(nf), f);
    /// ```
    #[inline]
    pub fn not(&self, f: Bdd) -> Bdd {
        f.complement()
    }
}

mod sealed {
    use super::{Bdd, BinOp, Node};

    /// The two steps of a recursion that differ between a shared and an
    /// exclusive manager borrow. Their argument types are private to the
    /// crate, so code outside it can call neither, and the trait cannot be
    /// implemented outside it either.
    pub trait Access {
        /// Hash-conses `node` (`lo` may be complemented; see
        /// `BddManager::mk`).
        fn mk(&mut self, node: Node) -> Bdd;
        /// Publishes `r` as the result memoised under the key `(op, f,
        /// g)`, taken after complement normalization.
        fn memo(&mut self, op: BinOp, f: Bdd, g: Bdd, r: Bdd);
    }
}

// `inline(always)` on both implementations: the recursions are
// instantiated in the calling crate, where plain `#[inline]` left `memo`
// out of line, so every memo publication paid a call instead of one
// direct cache insert.
impl sealed::Access for BddManager {
    #[inline(always)]
    fn mk(&mut self, n: Node) -> Bdd {
        self.mk_mut(n.level, n.lo, n.hi)
    }

    #[inline(always)]
    fn memo(&mut self, op: BinOp, f: Bdd, g: Bdd, r: Bdd) {
        self.caches.bin_insert_mut(op, f, g, r);
    }
}

impl sealed::Access for &BddManager {
    #[inline(always)]
    fn mk(&mut self, n: Node) -> Bdd {
        BddManager::mk(self, n.level, n.lo, n.hi)
    }

    #[inline(always)]
    fn memo(&mut self, op: BinOp, f: Bdd, g: Bdd, r: Bdd) {
        self.caches.bin_insert(op, f, g, r);
    }
}

impl BddOps for BddManager {
    #[inline]
    fn manager(&self) -> &BddManager {
        self
    }
}

impl BddOps for &BddManager {
    #[inline]
    fn manager(&self) -> &BddManager {
        self
    }
}

/// Every operation that may create nodes: the connectives, cubes,
/// cofactors and quantifiers.
///
/// # One body, two instantiations
///
/// The manager is `Sync`: parallel workers share it through
/// `&BddManager`, so creating a node takes a unique-table shard lock and
/// memo entries are published with release/acquire atomics. A thread
/// holding `&mut BddManager` has nobody to race, and plain stores do the
/// same job faster. Every recursion is therefore written once, here,
/// over the only two steps that differ: hash-consing a node and
/// publishing a memo entry. The trait is implemented for `BddManager`
/// (reached through `&mut`: plain stores, `Mutex::get_mut`) and for
/// `&BddManager` (atomic publication), and monomorphisation compiles
/// each body once per implementation. The borrow picks the path:
/// `m.and(f, g)` runs the plain-store copy when `m: &mut BddManager` and
/// the atomic one when `m: &BddManager`. Both return identical handles
/// and fill the same memo tables. Generic code takes `&mut impl BddOps`
/// and serves both.
///
/// # Examples
///
/// ```
/// use stgcheck_bdd::{BddManager, BddOps};
/// let mut m = BddManager::new();
/// let x = m.new_var("x");
/// let y = m.new_var("y");
/// let (vx, vy) = (m.var(x), m.var(y));
/// let f = m.and(vx, vy); // `&mut BddManager`: plain stores
/// let mut shared = &m;
/// assert_eq!(shared.and(vy, vx), f); // `&BddManager`: atomic, same handle
/// ```
pub trait BddOps: sealed::Access + Sized {
    /// The manager behind this borrow, for the read-only queries.
    fn manager(&self) -> &BddManager;

    /// Conjunction `f ∧ g`.
    fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        // Terminal and trivial cases.
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() {
            return g;
        }
        if g.is_true() || f == g {
            return f;
        }
        if f == g.complement() {
            return Bdd::FALSE;
        }
        let (a, b) = (f.min(g), f.max(g));
        let m = self.manager();
        if let Some(r) = m.caches.bin_get(BinOp::And, a, b) {
            return r;
        }
        if m.inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = m.peek(f);
        let (lg, ge0, ge1) = m.peek(g);
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let lo = self.and(f0, g0);
        let hi = self.and(f1, g1);
        let r = self.mk(Node { level: top, lo, hi });
        // A trip below this frame means `lo`/`hi` may be inert garbage:
        // never publish such a result to the memo table.
        if self.manager().inert() {
            return Bdd::FALSE;
        }
        self.memo(BinOp::And, a, b, r);
        r
    }

    /// Disjunction `f ∨ g`, by De Morgan through the `and` cache:
    /// `f ∨ g = ¬(¬f ∧ ¬g)`.
    fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and(f.complement(), g.complement()).complement()
    }

    /// Exclusive or `f ⊕ g`.
    ///
    /// Complement-normalized: `¬f ⊕ g = f ⊕ ¬g = ¬(f ⊕ g)`, so both
    /// operands are stripped to their regular handles before the cache is
    /// consulted and the combined tag parity is re-applied to the result.
    fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let parity = f.is_complemented() ^ g.is_complemented();
        let (f, g) = (f.regular(), g.regular());
        if f == g {
            return Bdd::TRUE.complement_if(!parity);
        }
        // After regularization the only reachable terminal is TRUE.
        if f.is_true() {
            return g.complement_if(!parity);
        }
        if g.is_true() {
            return f.complement_if(!parity);
        }
        let (a, b) = (f.min(g), f.max(g));
        let m = self.manager();
        if let Some(r) = m.caches.bin_get(BinOp::Xor, a, b) {
            return r.complement_if(parity);
        }
        if m.inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = m.peek(f);
        let (lg, ge0, ge1) = m.peek(g);
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let lo = self.xor(f0, g0);
        let hi = self.xor(f1, g1);
        let r = self.mk(Node { level: top, lo, hi });
        if self.manager().inert() {
            return Bdd::FALSE;
        }
        self.memo(BinOp::Xor, a, b, r);
        r.complement_if(parity)
    }

    /// Set difference `f ∧ ¬g` — the idiom used throughout the traversal
    /// algorithms (`New = From − Reached`). The negation is free, so this
    /// is exactly one `and`.
    fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and(f, g.complement())
    }

    /// Implication `f → g = ¬(f ∧ ¬g)`.
    fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and(f, g.complement()).complement()
    }

    /// Biconditional `f ↔ g = ¬(f ⊕ g)`.
    fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.xor(f, g).complement()
    }

    /// Conjunction of many functions. Returns `TRUE` for an empty slice.
    fn and_many(&mut self, fs: &[Bdd]) -> Bdd {
        let mut acc = Bdd::TRUE;
        for &f in fs {
            acc = self.and(acc, f);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction of many functions. Returns `FALSE` for an empty slice.
    fn or_many(&mut self, fs: &[Bdd]) -> Bdd {
        let mut acc = Bdd::FALSE;
        for &f in fs {
            acc = self.or(acc, f);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// Tests whether `f ∧ g` is satisfiable without necessarily building the
    /// full conjunction (set-intersection emptiness test).
    fn intersects(&mut self, f: Bdd, g: Bdd) -> bool {
        // The conjunction is memoised anyway; building it is the simplest
        // correct implementation and the caches keep it cheap.
        !self.and(f, g).is_false()
    }

    /// Tests language inclusion `f ⊆ g` (i.e. `f → g` is a tautology).
    fn is_subset(&mut self, f: Bdd, g: Bdd) -> bool {
        self.diff(f, g).is_false()
    }

    /// Builds the cube (conjunction of literals) `∧ lits`.
    ///
    /// Duplicate literals are allowed; contradictory literals yield `FALSE`.
    ///
    /// # Examples
    ///
    /// ```
    /// use stgcheck_bdd::{BddManager, BddOps, Literal};
    /// let mut m = BddManager::new();
    /// let x = m.new_var("x");
    /// let y = m.new_var("y");
    /// let c = m.cube(&[Literal::positive(x), Literal::negative(y)]);
    /// let vx = m.var(x);
    /// let ny = m.nvar(y);
    /// assert_eq!(c, m.and(vx, ny));
    /// ```
    fn cube(&mut self, lits: &[Literal]) -> Bdd {
        let mut acc = Bdd::TRUE;
        // Conjoin bottom-up (deepest level first) so each `and` is O(1)-ish.
        let mut sorted: Vec<Literal> = lits.to_vec();
        sorted.sort_by_key(|l| std::cmp::Reverse(self.manager().level_of(l.var())));
        for l in sorted {
            let lit = self.manager().literal(l);
            acc = self.and(lit, acc);
        }
        acc
    }

    /// Builds the positive cube `∧ vars`, the usual quantification prefix.
    fn vars_cube(&mut self, vars: &[Var]) -> Bdd {
        let lits: Vec<Literal> = vars.iter().map(|&v| Literal::positive(v)).collect();
        self.cube(&lits)
    }

    /// The support of `f` as a positive cube — the quantification prefix
    /// that abstracts exactly the variables `f` depends on.
    fn support_cube(&mut self, f: Bdd) -> Bdd {
        let vars = self.manager().support(f);
        self.vars_cube(&vars)
    }

    /// Restricts `f` by `v = value` (Shannon cofactor w.r.t. one literal).
    fn restrict(&mut self, f: Bdd, v: Var, value: bool) -> Bdd {
        let c = self.manager().literal(Literal::new(v, value));
        self.cofactor_cube(f, c)
    }

    /// Generalised cofactor `f_c` of `f` with respect to a cube `c`
    /// (Section 4 of the paper): every variable of `c` is fixed to its
    /// polarity in `c` and *removed* from the function.
    ///
    /// Commutes with complementation, so the memo table is keyed on the
    /// regular handle of `f` and serves `f_c` and `(¬f)_c` alike.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `c` is not a cube.
    fn cofactor_cube(&mut self, f: Bdd, c: Bdd) -> Bdd {
        // A tripped manager may be handed garbage built by inert ops; the
        // recursion bails out inert before touching it.
        debug_assert!(
            self.manager().inert() || self.manager().is_cube(c),
            "cofactor requires a cube"
        );
        let tag = f.is_complemented();
        crate::quant::cofactor_rec(self, f.regular(), c).complement_if(tag)
    }

    /// Flips the literals of cube `c` in `f`: keeps the assignments of
    /// `f` in which every variable of `c` holds its literal's value (the
    /// opposite value when `back`) and gives each of those variables the
    /// other value. No other variable changes.
    ///
    /// This is `cofactor_cube(f, src) ∧ dst`, where `src` is `c` (its
    /// literal-wise negation when `back`) and `dst` is the other of the
    /// two, computed in one memoised pass without the intermediate
    /// cofactor. With `c` the pre-firing values of the places and the
    /// signal a safe-net transition changes, it is the image δ (and
    /// δ⁻¹ when `back`) once self-loop places are filtered out.
    ///
    /// # Examples
    ///
    /// ```
    /// use stgcheck_bdd::{BddManager, BddOps, Literal};
    /// let mut m = BddManager::new();
    /// let p = m.new_var("p");
    /// let q = m.new_var("q");
    /// // A token moves from p to q: p ∧ ¬q becomes ¬p ∧ q.
    /// let c = m.cube(&[Literal::positive(p), Literal::negative(q)]);
    /// let moved = m.cube(&[Literal::negative(p), Literal::positive(q)]);
    /// assert_eq!(m.flip_cube(c, c, false), moved);
    /// assert_eq!(m.flip_cube(moved, c, true), c);
    /// assert!(m.flip_cube(moved, c, false).is_false());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `c` is not a cube.
    fn flip_cube(&mut self, f: Bdd, c: Bdd, back: bool) -> Bdd {
        debug_assert!(
            self.manager().inert() || self.manager().is_cube(c),
            "flip_cube requires a cube"
        );
        crate::quant::flip_rec(self, f, c, back)
    }

    /// Existential abstraction `∃ vars(c) . f` where `c` is a (positive)
    /// cube listing the variables to abstract.
    ///
    /// # Examples
    ///
    /// ```
    /// use stgcheck_bdd::{BddManager, BddOps};
    /// let mut m = BddManager::new();
    /// let x = m.new_var("x");
    /// let y = m.new_var("y");
    /// let (vx, vy) = (m.var(x), m.var(y));
    /// let f = m.and(vx, vy);
    /// let cube = m.vars_cube(&[x]);
    /// assert_eq!(m.exists(f, cube), vy); // ∃x. x∧y = y
    /// ```
    fn exists(&mut self, f: Bdd, c: Bdd) -> Bdd {
        debug_assert!(
            self.manager().inert() || self.manager().is_cube(c),
            "quantification prefix must be a cube"
        );
        crate::quant::exists_rec(self, f, c)
    }

    /// Universal abstraction `∀ vars(c) . f`, as the free complement dual
    /// `¬∃ vars(c) . ¬f` — no recursion or cache of its own.
    fn forall(&mut self, f: Bdd, c: Bdd) -> Bdd {
        self.exists(f.complement(), c).complement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (BddManager, Bdd, Bdd, Bdd) {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let z = m.new_var("z");
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        (m, vx, vy, vz)
    }

    #[test]
    fn de_morgan() {
        let (mut m, x, y, _) = setup();
        let lhs0 = m.and(x, y);
        let lhs = m.not(lhs0);
        let (nx, ny) = (m.not(x), m.not(y));
        let rhs = m.or(nx, ny);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn double_negation_is_free() {
        let (mut m, x, y, _) = setup();
        let f = m.xor(x, y);
        let live = m.live_nodes();
        let nodes = m.nodes.len();
        let nf = m.not(f);
        assert_eq!(m.not(nf), f);
        // O(1) negation: no node was created or even looked up.
        assert_eq!(m.live_nodes(), live);
        assert_eq!(m.nodes.len(), nodes);
    }

    #[test]
    fn and_or_absorption() {
        let (mut m, x, y, _) = setup();
        let xy = m.and(x, y);
        assert_eq!(m.or(x, xy), x);
        let x_or_y = m.or(x, y);
        assert_eq!(m.and(x, x_or_y), x);
    }

    #[test]
    fn contradiction_and_excluded_middle() {
        let (mut m, x, y, _) = setup();
        let f = m.xor(x, y);
        let nf = m.not(f);
        assert_eq!(m.and(f, nf), Bdd::FALSE);
        assert_eq!(m.or(f, nf), Bdd::TRUE);
    }

    #[test]
    fn xor_properties() {
        let (mut m, x, y, _) = setup();
        assert_eq!(m.xor(x, x), Bdd::FALSE);
        let t = m.one();
        let nx = m.not(x);
        assert_eq!(m.xor(x, t), nx);
        let a = m.xor(x, y);
        let b = m.xor(y, x);
        assert_eq!(a, b);
        // Complement normalization: ¬x ⊕ y = ¬(x ⊕ y).
        let c = m.xor(nx, y);
        assert_eq!(c, a.complement());
        let ny = m.not(y);
        assert_eq!(m.xor(nx, ny), a);
    }

    #[test]
    fn implies_and_iff() {
        let (mut m, x, y, _) = setup();
        let imp = m.implies(x, y);
        let nx = m.not(x);
        let expected = m.or(nx, y);
        assert_eq!(imp, expected);
        let iff = m.iff(x, x);
        assert!(iff.is_true());
        let iff_xy = m.iff(x, y);
        let xnor0 = m.xor(x, y);
        let xnor = m.not(xnor0);
        assert_eq!(iff_xy, xnor);
    }

    #[test]
    fn diff_is_relative_complement() {
        let (mut m, x, y, _) = setup();
        let d = m.diff(x, y);
        let ny = m.not(y);
        let expected = m.and(x, ny);
        assert_eq!(d, expected);
        assert!(m.is_subset(d, x));
        assert!(!m.intersects(d, y));
    }

    #[test]
    fn many_variants() {
        let (mut m, x, y, z) = setup();
        let all = m.and_many(&[x, y, z]);
        let xy = m.and(x, y);
        let expected = m.and(xy, z);
        assert_eq!(all, expected);
        assert_eq!(m.and_many(&[]), Bdd::TRUE);
        let any = m.or_many(&[x, y, z]);
        let xoy = m.or(x, y);
        let expected = m.or(xoy, z);
        assert_eq!(any, expected);
        assert_eq!(m.or_many(&[]), Bdd::FALSE);
    }

    #[test]
    fn subset_and_intersection() {
        let (mut m, x, y, _) = setup();
        let xy = m.and(x, y);
        assert!(m.is_subset(xy, x));
        assert!(m.is_subset(xy, y));
        assert!(!m.is_subset(x, xy));
        assert!(m.intersects(x, y));
        let nx = m.not(x);
        assert!(!m.intersects(x, nx));
    }
}
