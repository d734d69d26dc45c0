//! A small boolean-expression AST with a parser.
//!
//! This is the crate's reference semantics: an expression can be evaluated
//! directly (truth-table style) or compiled into a BDD, and the two must
//! agree. The property tests in this crate and the differential tests in
//! `stgcheck-core` lean on that agreement.
//!
//! Grammar (precedence from loose to tight):
//!
//! ```text
//! expr   := iff
//! iff    := imp ( "<->" imp )*
//! imp    := or ( "->" or )*          (right-associative)
//! or     := xor ( "|" xor )*
//! xor    := and ( "^" and )*
//! and    := unary ( "&" unary )*
//! unary  := "!" unary | atom
//! atom   := ident | "0" | "1" | "(" expr ")"
//! ```

use std::collections::BTreeSet;
use std::fmt;

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

/// Error returned by [`BoolExpr::parse`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseExprError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseExprError {}

impl BoolExpr {
    /// Parses an expression; see the module docs for the grammar.
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] on malformed input.
    ///
    /// # Examples
    ///
    /// ```
    /// use stgcheck_bdd::BoolExpr;
    /// let e = BoolExpr::parse("a & !(b | c)")?;
    /// assert_eq!(e.variables(), vec!["a", "b", "c"]);
    /// # Ok::<(), stgcheck_bdd::ParseExprError>(())
    /// ```
    pub fn parse(input: &str) -> Result<BoolExpr, ParseExprError> {
        let mut p = Parser { input: input.as_bytes(), pos: 0 };
        let e = p.parse_iff()?;
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(p.error("trailing input"));
        }
        Ok(e)
    }

    /// Sorted list of distinct variable names appearing in the expression.
    pub fn variables(&self) -> Vec<&str> {
        let mut set = BTreeSet::new();
        self.collect_vars(&mut set);
        set.into_iter().collect()
    }

    fn collect_vars<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            BoolExpr::Const(_) => {}
            BoolExpr::Var(name) => {
                out.insert(name);
            }
            BoolExpr::Not(a) => a.collect_vars(out),
            BoolExpr::And(a, b)
            | BoolExpr::Or(a, b)
            | BoolExpr::Xor(a, b)
            | BoolExpr::Imp(a, b)
            | BoolExpr::Iff(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

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

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Const(b) => write!(f, "{}", if *b { "1" } else { "0" }),
            BoolExpr::Var(name) => write!(f, "{name}"),
            BoolExpr::Not(a) => write!(f, "!({a})"),
            BoolExpr::And(a, b) => write!(f, "({a} & {b})"),
            BoolExpr::Or(a, b) => write!(f, "({a} | {b})"),
            BoolExpr::Xor(a, b) => write!(f, "({a} ^ {b})"),
            BoolExpr::Imp(a, b) => write!(f, "({a} -> {b})"),
            BoolExpr::Iff(a, b) => write!(f, "({a} <-> {b})"),
        }
    }
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseExprError {
        ParseExprError { position: self.pos, message: message.to_string() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn parse_iff(&mut self) -> Result<BoolExpr, ParseExprError> {
        let mut lhs = self.parse_imp()?;
        while self.eat("<->") {
            let rhs = self.parse_imp()?;
            lhs = BoolExpr::Iff(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_imp(&mut self) -> Result<BoolExpr, ParseExprError> {
        let lhs = self.parse_or()?;
        if self.eat("->") {
            let rhs = self.parse_imp()?; // right-associative
            return Ok(BoolExpr::Imp(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn parse_or(&mut self) -> Result<BoolExpr, ParseExprError> {
        let mut lhs = self.parse_xor()?;
        loop {
            self.skip_ws();
            // Don't confuse `|` with nothing else here; `||` is accepted too.
            if self.eat("||") || self.eat("|") {
                let rhs = self.parse_xor()?;
                lhs = BoolExpr::Or(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_xor(&mut self) -> Result<BoolExpr, ParseExprError> {
        let mut lhs = self.parse_and()?;
        while self.eat("^") {
            let rhs = self.parse_and()?;
            lhs = BoolExpr::Xor(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<BoolExpr, ParseExprError> {
        let mut lhs = self.parse_unary()?;
        loop {
            self.skip_ws();
            if self.eat("&&") || self.eat("&") {
                let rhs = self.parse_unary()?;
                lhs = BoolExpr::And(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_unary(&mut self) -> Result<BoolExpr, ParseExprError> {
        if self.eat("!") {
            let inner = self.parse_unary()?;
            return Ok(BoolExpr::Not(Box::new(inner)));
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<BoolExpr, ParseExprError> {
        self.skip_ws();
        if self.eat("(") {
            let inner = self.parse_iff()?;
            if !self.eat(")") {
                return Err(self.error("expected `)`"));
            }
            return Ok(inner);
        }
        if self.pos >= self.input.len() {
            return Err(self.error("unexpected end of input"));
        }
        let c = self.input[self.pos];
        if c == b'0' {
            self.pos += 1;
            return Ok(BoolExpr::Const(false));
        }
        if c == b'1' {
            self.pos += 1;
            return Ok(BoolExpr::Const(true));
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = self.pos;
            while self.pos < self.input.len()
                && (self.input[self.pos].is_ascii_alphanumeric() || self.input[self.pos] == b'_')
            {
                self.pos += 1;
            }
            let name = std::str::from_utf8(&self.input[start..self.pos])
                .expect("identifier bytes are ASCII");
            return Ok(BoolExpr::Var(name.to_string()));
        }
        Err(self.error("expected an atom"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn check_against_table(src: &str) {
        let e = BoolExpr::parse(src).unwrap_or_else(|err| panic!("{src}: {err}"));
        let names: Vec<String> = e.variables().iter().map(|s| s.to_string()).collect();
        let mut m = BddManager::new();
        let mut vars: HashMap<String, Var> = HashMap::new();
        for n in &names {
            vars.insert(n.clone(), m.new_var(n.clone()));
        }
        let f = e.to_bdd(&mut m, &|n| vars.get(n).copied());
        for bits in 0..(1u32 << names.len()) {
            let env: HashMap<&str, bool> =
                names.iter().enumerate().map(|(i, n)| (n.as_str(), bits & (1 << i) != 0)).collect();
            let expected = e.eval(&|n| env.get(n).copied());
            let mut assignment = vec![false; m.num_vars()];
            for (n, v) in &vars {
                assignment[v.index()] = env[n.as_str()];
            }
            assert_eq!(m.eval(f, &assignment), expected, "{src} differs at {env:?}");
        }
    }

    #[test]
    fn parser_and_bdd_agree_on_fixed_corpus() {
        for src in [
            "a",
            "!a",
            "a & b",
            "a | b",
            "a ^ b",
            "a -> b",
            "a <-> b",
            "a & b | c",
            "a | b & c",
            "!(a | b) & c",
            "a -> b -> c",
            "(a <-> b) ^ (c <-> d)",
            "1 & a | 0",
            "a && b || !c",
            "_x1 & x_2",
        ] {
            check_against_table(src);
        }
    }

    #[test]
    fn precedence_and_over_or() {
        let e = BoolExpr::parse("a | b & c").unwrap();
        assert_eq!(
            e,
            BoolExpr::Or(
                Box::new(BoolExpr::Var("a".into())),
                Box::new(BoolExpr::And(
                    Box::new(BoolExpr::Var("b".into())),
                    Box::new(BoolExpr::Var("c".into()))
                ))
            )
        );
    }

    #[test]
    fn implication_is_right_associative() {
        let e = BoolExpr::parse("a -> b -> c").unwrap();
        assert_eq!(
            e,
            BoolExpr::Imp(
                Box::new(BoolExpr::Var("a".into())),
                Box::new(BoolExpr::Imp(
                    Box::new(BoolExpr::Var("b".into())),
                    Box::new(BoolExpr::Var("c".into()))
                ))
            )
        );
    }

    #[test]
    fn parse_errors() {
        assert!(BoolExpr::parse("").is_err());
        assert!(BoolExpr::parse("a &").is_err());
        assert!(BoolExpr::parse("(a").is_err());
        assert!(BoolExpr::parse("a b").is_err());
        assert!(BoolExpr::parse("&a").is_err());
        let err = BoolExpr::parse("a @ b").unwrap_err();
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn display_round_trips() {
        let e = BoolExpr::parse("!(a & b) -> (c ^ 1)").unwrap();
        let printed = e.to_string();
        let e2 = BoolExpr::parse(&printed).unwrap();
        assert_eq!(e, e2);
    }

    #[test]
    fn variables_sorted_distinct() {
        let e = BoolExpr::parse("b & a | b & c").unwrap();
        assert_eq!(e.variables(), vec!["a", "b", "c"]);
    }
}
