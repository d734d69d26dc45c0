//! Node-level types for the BDD manager.
//!
//! A BDD is a directed acyclic graph of decision [`Node`]s plus a single
//! terminal node. Nodes are stored in a single arena inside
//! [`crate::BddManager`] and referenced by [`Bdd`] handles — *tagged*
//! references whose low bit marks **complement edges** (see
//! `docs/bdd-internals.md`): the handle `¬f` is the handle `f` with the
//! tag bit flipped, so negation never touches the arena. A [`Var`] names a
//! boolean variable independently of its current position (level) in the
//! variable order.

use std::fmt;

/// Handle to a BDD node (a boolean function rooted at that node).
///
/// `Bdd` values pack an arena slot and a **complement tag** into one
/// word: bit 0 is the tag, the remaining bits are the slot index into the
/// owning [`crate::BddManager`]'s node arena. A set tag denotes the
/// *negation* of the function stored at the slot, which is what makes
/// [`crate::BddManager::not`] O(1). Handles stay canonical — for a given
/// variable order, equal functions always receive the same handle, so
/// equality of functions is `==` on handles. Handles are only meaningful
/// together with the manager that created them.
///
/// The single terminal node lives at slot 0: [`Bdd::TRUE`] is its regular
/// handle and [`Bdd::FALSE`] its complement (`FALSE ≡ ¬TRUE`).
///
/// # Examples
///
/// ```
/// use stgcheck_bdd::BddManager;
/// let mut m = BddManager::new();
/// let x = m.new_var("x");
/// let f = m.var(x);
/// assert!(f != m.zero() && f != m.one());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-false terminal: the complement edge to the terminal.
    pub const FALSE: Bdd = Bdd(1);
    /// The constant-true terminal: the regular edge to the terminal.
    pub const TRUE: Bdd = Bdd(0);

    /// Builds the regular (uncomplemented) handle for an arena slot.
    #[inline]
    pub(crate) fn from_slot(slot: u32) -> Bdd {
        Bdd(slot << 1)
    }

    /// Returns `true` if this handle points at the terminal node.
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Returns `true` if this handle is the constant-false terminal.
    #[inline]
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Returns `true` if this handle is the constant-true terminal.
    #[inline]
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Returns `true` if the complement tag is set.
    #[inline]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 != 0
    }

    /// The same node with the complement tag flipped: `¬f`, in O(1).
    #[inline]
    pub fn complement(self) -> Bdd {
        Bdd(self.0 ^ 1)
    }

    /// The regular (tag-cleared) handle of the same node.
    #[inline]
    pub fn regular(self) -> Bdd {
        Bdd(self.0 & !1)
    }

    /// Flips the complement tag iff `flip` is true.
    #[inline]
    pub(crate) fn complement_if(self, flip: bool) -> Bdd {
        Bdd(self.0 ^ flip as u32)
    }

    /// Arena slot of this node, with the complement tag stripped — `f` and
    /// `¬f` share one slot and report the same index. Exposed for
    /// diagnostics and serialization; never a raw tagged word.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 >> 1) as usize
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bdd::FALSE => write!(f, "Bdd(FALSE)"),
            Bdd::TRUE => write!(f, "Bdd(TRUE)"),
            b if b.is_complemented() => write!(f, "Bdd(!{})", b.index()),
            b => write!(f, "Bdd({})", b.index()),
        }
    }
}

/// A boolean variable, identified independently of its level in the order.
///
/// Variables are created with [`crate::BddManager::new_var`] and keep their
/// identity when the manager is rebuilt under a different order.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Zero-based index of the variable in creation order.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a variable from a raw creation-order index.
    ///
    /// Only meaningful for indices previously returned by
    /// [`crate::BddManager::new_var`] on the same manager.
    #[inline]
    pub fn from_index(i: usize) -> Var {
        Var(i as u32)
    }
}

/// Level of a node in the variable order: `0` is the topmost level.
pub(crate) type Level = u32;

/// Sentinel level for the terminal node (below every variable).
pub(crate) const TERMINAL_LEVEL: Level = u32::MAX;

/// Sentinel level marking a node slot as dead (on the free list).
pub(crate) const DEAD_LEVEL: Level = u32::MAX - 1;

/// Internal decision node: "if `var(level)` then `hi` else `lo`".
///
/// Canonical-form invariant: the stored `lo` (else) edge is **never**
/// complemented; a function whose else-cofactor would need a complement
/// edge is stored negated and referenced through a complemented handle.
/// The `hi` (then) edge may carry a complement tag freely.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Node {
    pub level: Level,
    pub lo: Bdd,
    pub hi: Bdd,
}

impl Node {
    pub(crate) const fn terminal() -> Node {
        Node { level: TERMINAL_LEVEL, lo: Bdd::TRUE, hi: Bdd::TRUE }
    }

    #[inline]
    pub(crate) fn is_dead(&self) -> bool {
        self.level == DEAD_LEVEL
    }
}

/// A literal: a variable together with a polarity.
///
/// Used to build cubes and to report satisfying assignments.
///
/// # Examples
///
/// ```
/// use stgcheck_bdd::{BddManager, Literal};
/// let mut m = BddManager::new();
/// let x = m.new_var("x");
/// let lit = Literal::positive(x);
/// assert_eq!(lit.var(), x);
/// assert!(lit.is_positive());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Literal {
    var: Var,
    positive: bool,
}

impl Literal {
    /// Creates the positive literal `v`.
    pub fn positive(var: Var) -> Literal {
        Literal { var, positive: true }
    }

    /// Creates the negative literal `¬v`.
    pub fn negative(var: Var) -> Literal {
        Literal { var, positive: false }
    }

    /// Creates a literal with an explicit polarity.
    pub fn new(var: Var, positive: bool) -> Literal {
        Literal { var, positive }
    }

    /// The literal's variable.
    pub fn var(self) -> Var {
        self.var
    }

    /// `true` for `v`, `false` for `¬v`.
    pub fn is_positive(self) -> bool {
        self.positive
    }

    /// The same variable with the opposite polarity.
    pub fn negated(self) -> Literal {
        Literal { var: self.var, positive: !self.positive }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_predicates() {
        assert!(Bdd::FALSE.is_terminal());
        assert!(Bdd::TRUE.is_terminal());
        assert!(Bdd::FALSE.is_false());
        assert!(Bdd::TRUE.is_true());
        assert!(!Bdd::from_slot(5).is_terminal());
    }

    #[test]
    fn complement_tags() {
        assert_eq!(Bdd::TRUE.complement(), Bdd::FALSE);
        assert_eq!(Bdd::FALSE.complement(), Bdd::TRUE);
        let f = Bdd::from_slot(5);
        assert!(!f.is_complemented());
        assert!(f.complement().is_complemented());
        assert_eq!(f.complement().complement(), f);
        assert_eq!(f.complement().regular(), f);
        // f and ¬f share the arena slot and never leak the tag via index().
        assert_eq!(f.index(), 5);
        assert_eq!(f.complement().index(), 5);
        assert_eq!(f.complement_if(false), f);
        assert_eq!(f.complement_if(true), f.complement());
    }

    #[test]
    fn literal_roundtrip() {
        let v = Var(3);
        let l = Literal::negative(v);
        assert_eq!(l.var(), v);
        assert!(!l.is_positive());
        assert_eq!(l.negated(), Literal::positive(v));
        assert_eq!(l.negated().negated(), l);
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Bdd::FALSE), "Bdd(FALSE)");
        assert_eq!(format!("{:?}", Bdd::TRUE), "Bdd(TRUE)");
        assert_eq!(format!("{:?}", Bdd::from_slot(7)), "Bdd(7)");
        assert_eq!(format!("{:?}", Bdd::from_slot(7).complement()), "Bdd(!7)");
    }
}
