//! A small boolean-expression AST: the crate's reference semantics.
//!
//! An expression can be evaluated directly (truth-table style) or
//! compiled into a BDD, and the two must agree. The property tests in
//! `tests/props.rs` build random expressions and lean on that agreement.

use crate::manager::BddManager;
use crate::node::{Bdd, Var};
use crate::ops::BddOps;

/// Boolean expression tree over named variables.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BoolExpr {
    /// A constant.
    Const(bool),
    /// A named variable.
    Var(String),
    /// Negation.
    Not(Box<BoolExpr>),
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Exclusive or.
    Xor(Box<BoolExpr>, Box<BoolExpr>),
    /// Implication.
    Imp(Box<BoolExpr>, Box<BoolExpr>),
    /// Biconditional.
    Iff(Box<BoolExpr>, Box<BoolExpr>),
}

impl BoolExpr {
    /// Evaluates the expression under `lookup`.
    ///
    /// # Panics
    ///
    /// Panics if `lookup` returns `None` for a variable in the expression.
    pub fn eval(&self, lookup: &dyn Fn(&str) -> Option<bool>) -> bool {
        match self {
            BoolExpr::Const(b) => *b,
            BoolExpr::Var(name) => {
                lookup(name).unwrap_or_else(|| panic!("unbound variable `{name}`"))
            }
            BoolExpr::Not(a) => !a.eval(lookup),
            BoolExpr::And(a, b) => a.eval(lookup) && b.eval(lookup),
            BoolExpr::Or(a, b) => a.eval(lookup) || b.eval(lookup),
            BoolExpr::Xor(a, b) => a.eval(lookup) ^ b.eval(lookup),
            BoolExpr::Imp(a, b) => !a.eval(lookup) || b.eval(lookup),
            BoolExpr::Iff(a, b) => a.eval(lookup) == b.eval(lookup),
        }
    }

    /// Compiles the expression into `manager`, resolving variables by name
    /// with `resolve`.
    ///
    /// # Panics
    ///
    /// Panics if `resolve` returns `None` for a variable in the expression.
    pub fn to_bdd(&self, manager: &mut BddManager, resolve: &dyn Fn(&str) -> Option<Var>) -> Bdd {
        match self {
            BoolExpr::Const(false) => manager.zero(),
            BoolExpr::Const(true) => manager.one(),
            BoolExpr::Var(name) => {
                let v = resolve(name).unwrap_or_else(|| panic!("unbound variable `{name}`"));
                manager.var(v)
            }
            BoolExpr::Not(a) => {
                let fa = a.to_bdd(manager, resolve);
                manager.not(fa)
            }
            BoolExpr::And(a, b) => {
                let fa = a.to_bdd(manager, resolve);
                let fb = b.to_bdd(manager, resolve);
                manager.and(fa, fb)
            }
            BoolExpr::Or(a, b) => {
                let fa = a.to_bdd(manager, resolve);
                let fb = b.to_bdd(manager, resolve);
                manager.or(fa, fb)
            }
            BoolExpr::Xor(a, b) => {
                let fa = a.to_bdd(manager, resolve);
                let fb = b.to_bdd(manager, resolve);
                manager.xor(fa, fb)
            }
            BoolExpr::Imp(a, b) => {
                let fa = a.to_bdd(manager, resolve);
                let fb = b.to_bdd(manager, resolve);
                manager.implies(fa, fb)
            }
            BoolExpr::Iff(a, b) => {
                let fa = a.to_bdd(manager, resolve);
                let fb = b.to_bdd(manager, resolve);
                manager.iff(fa, fb)
            }
        }
    }
}
