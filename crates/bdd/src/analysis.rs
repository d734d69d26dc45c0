//! Function analysis: evaluation, satisfying-assignment counting and
//! picking one satisfying cube.
//!
//! `sat_count` is what turns the `Reached` BDD of the symbolic traversal into
//! the "# of states" column of the paper's Table 1.

use std::collections::HashMap;

use crate::manager::BddManager;
use crate::node::{Bdd, Literal};

impl BddManager {
    /// Evaluates `f` under a total assignment, indexed by variable
    /// creation order ([`crate::Var::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the number of declared
    /// variables that `f` depends on.
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut g = f;
        while !g.is_terminal() {
            let v = self.var_at(self.node(g).level as usize);
            let (lo, hi) = self.children(g);
            g = if assignment[v.index()] { hi } else { lo };
        }
        g.is_true()
    }

    /// Number of satisfying assignments of `f` over all declared variables.
    ///
    /// Saturates at `u128::MAX` (relevant only beyond 2¹²⁸ states).
    ///
    /// # Examples
    ///
    /// ```
    /// use stgcheck_bdd::{BddManager, BddOps};
    /// let mut m = BddManager::new();
    /// let x = m.new_var("x");
    /// let y = m.new_var("y");
    /// let (vx, vy) = (m.var(x), m.var(y));
    /// let f = m.or(vx, vy);
    /// assert_eq!(m.sat_count(f), 3);
    /// ```
    pub fn sat_count(&self, f: Bdd) -> u128 {
        let nvars = self.num_vars() as u32;
        let mut memo: HashMap<Bdd, u128> = HashMap::new();
        let top_gap = self.level_norm(f, nvars);
        let c = self.sat_count_rec(f, nvars, &mut memo);
        c.saturating_mul(pow2(top_gap))
    }

    /// Level of `f` clamped so terminals sit just below the last counted
    /// variable.
    fn level_norm(&self, f: Bdd, nvars: u32) -> u32 {
        if f.is_terminal() {
            nvars
        } else {
            self.node(f).level.min(nvars)
        }
    }

    /// Complement-aware counting: the memo is keyed on the *tagged*
    /// handle, so `f` and `¬f` each get their own exact count without any
    /// subtraction (which would interact badly with saturation).
    fn sat_count_rec(&self, f: Bdd, nvars: u32, memo: &mut HashMap<Bdd, u128>) -> u128 {
        if f.is_false() {
            return 0;
        }
        if f.is_true() {
            return 1;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let level = self.node(f).level;
        let (lo_edge, hi_edge) = self.children(f);
        let lo_gap = self.level_norm(lo_edge, nvars) - level - 1;
        let hi_gap = self.level_norm(hi_edge, nvars) - level - 1;
        let lo = self.sat_count_rec(lo_edge, nvars, memo).saturating_mul(pow2(lo_gap));
        let hi = self.sat_count_rec(hi_edge, nvars, memo).saturating_mul(pow2(hi_gap));
        let c = lo.saturating_add(hi);
        memo.insert(f, c);
        c
    }

    /// One satisfying partial assignment (a cube), or `None` if `f` is
    /// unsatisfiable. Variables not mentioned are "don't care".
    pub fn pick_cube(&self, f: Bdd) -> Option<Vec<Literal>> {
        if f.is_false() {
            return None;
        }
        let mut lits = Vec::new();
        let mut g = f;
        while !g.is_terminal() {
            let v = self.var_at(self.node(g).level as usize);
            let (lo, hi) = self.children(g);
            // Prefer the low branch when both lead to TRUE-reachable parts;
            // any non-FALSE branch works because the BDD is reduced.
            if !lo.is_false() {
                lits.push(Literal::negative(v));
                g = lo;
            } else {
                lits.push(Literal::positive(v));
                g = hi;
            }
        }
        Some(lits)
    }
}

#[inline]
fn pow2(e: u32) -> u128 {
    if e >= 128 {
        u128::MAX
    } else {
        1u128 << e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BddOps;

    #[test]
    fn eval_matches_semantics() {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.xor(vx, vy);
        assert!(!m.eval(f, &[false, false]));
        assert!(m.eval(f, &[true, false]));
        assert!(m.eval(f, &[false, true]));
        assert!(!m.eval(f, &[true, true]));
    }

    #[test]
    fn sat_count_basics() {
        let mut m = BddManager::new();
        let _x = m.new_var("x");
        let _y = m.new_var("y");
        let _z = m.new_var("z");
        assert_eq!(m.sat_count(m.one()), 8);
        assert_eq!(m.sat_count(m.zero()), 0);
        let vx = m.var(Literal::positive(crate::Var::from_index(0)).var());
        assert_eq!(m.sat_count(vx), 4);
    }

    #[test]
    fn sat_count_xor_chain() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 10);
        let mut f = m.zero();
        for &v in &vars {
            let lv = m.var(v);
            f = m.xor(f, lv);
        }
        // Odd parity: exactly half of 2^10 assignments.
        assert_eq!(m.sat_count(f), 512);
    }

    #[test]
    fn pick_cube_satisfies() {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let z = m.new_var("z");
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let xy = m.and(vx, vy);
        let nz = m.not(vz);
        let f = m.or(xy, nz);
        let cube = m.pick_cube(f).expect("satisfiable");
        let mut assignment = vec![false; 3];
        for l in &cube {
            assignment[l.var().index()] = l.is_positive();
        }
        assert!(m.eval(f, &assignment));
        assert_eq!(m.pick_cube(m.zero()), None);
        assert_eq!(m.pick_cube(m.one()), Some(vec![]));
    }
}
