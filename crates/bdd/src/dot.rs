//! Graphviz DOT export for debugging and documentation figures.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::manager::BddManager;
use crate::node::Bdd;

impl BddManager {
    /// Renders the subgraphs rooted at `roots` as a Graphviz `digraph`.
    ///
    /// Nodes are identified by their arena slot ([`Bdd::index`], which
    /// never leaks the complement tag), so `f` and `¬f` render as one
    /// shared subgraph. Edge styles:
    ///
    /// * solid — regular `then` (high) branch;
    /// * dotted — `else` (low) branch (never complemented, by the
    ///   canonical form);
    /// * **dashed** — complement edges: a complemented `then` branch or a
    ///   complemented root arc.
    ///
    /// The single terminal is drawn as a box labelled `1`; `FALSE` is the
    /// dashed (complemented) arc into it.
    ///
    /// # Examples
    ///
    /// ```
    /// use stgcheck_bdd::BddManager;
    /// let mut m = BddManager::new();
    /// let x = m.new_var("x");
    /// let f = m.var(x);
    /// let dot = m.to_dot(&[("f", f)]);
    /// assert!(dot.contains("digraph"));
    /// assert!(dot.contains("\"x\""));
    /// ```
    pub fn to_dot(&self, roots: &[(&str, Bdd)]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph bdd {{");
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node0 [label=\"1\", shape=box];");
        let edge = |out: &mut String, from: String, to: Bdd, dotted: bool| {
            let style = match (dotted, to.is_complemented()) {
                (true, _) => " [style=dotted]",
                (false, true) => " [style=dashed]",
                (false, false) => "",
            };
            let _ = writeln!(out, "  {from} -> node{}{style};", to.index());
        };
        let mut seen: HashSet<Bdd> = HashSet::new();
        let mut stack = Vec::new();
        for (name, root) in roots {
            let _ = writeln!(out, "  root_{name} [label=\"{name}\", shape=plaintext];");
            edge(&mut out, format!("root_{name}"), *root, false);
            stack.push(root.regular());
        }
        while let Some(f) = stack.pop() {
            if f.is_terminal() || !seen.insert(f) {
                continue;
            }
            let n = self.node(f);
            let var = self.var_at(n.level as usize);
            let _ = writeln!(
                out,
                "  node{} [label=\"{}\", shape=circle];",
                f.index(),
                self.var_name(var)
            );
            edge(&mut out, format!("node{}", f.index()), n.lo, true);
            edge(&mut out, format!("node{}", f.index()), n.hi, false);
            stack.push(n.lo);
            stack.push(n.hi.regular());
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BddOps;

    #[test]
    fn dot_mentions_every_node() {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.xor(vx, vy);
        let dot = m.to_dot(&[("f", f)]);
        assert!(dot.starts_with("digraph"));
        assert_eq!(dot.matches("shape=circle").count(), m.size(f));
        assert!(dot.contains("style=dotted"));
        assert!(dot.contains("root_f"));
        // f and ¬f share one drawing; only the root arc differs.
        let nf = m.not(f);
        let ndot = m.to_dot(&[("f", nf)]);
        assert_eq!(ndot.matches("shape=circle").count(), m.size(f));
    }

    #[test]
    fn complement_arcs_are_dashed() {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let f = m.var(x); // positive literal = complemented handle
        let dot = m.to_dot(&[("f", f)]);
        assert!(dot.contains("style=dashed"), "complemented root arc must be dashed:\n{dot}");
        // The node ids never leak the tag bit: the only circle is slot 1.
        assert!(dot.contains("node1 [label=\"x\""), "{dot}");
    }

    #[test]
    fn terminal_root_is_legal() {
        let m = BddManager::new();
        let dot = m.to_dot(&[("t", Bdd::TRUE)]);
        assert!(dot.contains("root_t -> node0"));
        let dot = m.to_dot(&[("z", Bdd::FALSE)]);
        assert!(dot.contains("root_z -> node0 [style=dashed]"));
    }
}
