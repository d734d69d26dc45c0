//! The Signal Transition Graph model and its builder.

use std::collections::HashMap;
use std::fmt;

use stgcheck_petri::{PetriNet, PlaceId, TransId};

use crate::signal::{Polarity, SignalId, SignalKind, TransLabel};

/// Maximum number of signals an STG may declare (codes are 64-bit masks).
pub const MAX_SIGNALS: usize = 64;

/// A binary state code: the value vector `s = (s₁,…,sₙ)` of all signals.
///
/// Bit `i` holds the current value of the signal with index `i`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Code(pub u64);

impl Code {
    /// The all-zeros code.
    pub const ZERO: Code = Code(0);

    /// Value of signal `s`.
    pub fn get(self, s: SignalId) -> bool {
        self.0 & (1 << s.index()) != 0
    }

    /// Returns a copy with signal `s` set to `value`.
    pub fn with(self, s: SignalId, value: bool) -> Code {
        if value {
            Code(self.0 | (1 << s.index()))
        } else {
            Code(self.0 & !(1 << s.index()))
        }
    }

    /// Returns a copy with signal `s` toggled.
    pub fn toggled(self, s: SignalId) -> Code {
        Code(self.0 ^ (1 << s.index()))
    }

    /// Renders the code as a 0/1 string over the first `n` signals
    /// (signal 0 first).
    pub fn to_bit_string(self, n: usize) -> String {
        (0..n).map(|i| if self.get(SignalId::from_index(i)) { '1' } else { '0' }).collect()
    }

    /// Parses a 0/1 string (signal 0 first).
    ///
    /// Returns `None` on any character other than `0`/`1` or if the string
    /// is longer than [`MAX_SIGNALS`].
    pub fn from_bit_string(s: &str) -> Option<Code> {
        if s.len() > MAX_SIGNALS {
            return None;
        }
        let mut code = Code::ZERO;
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => {}
                '1' => code = code.with(SignalId::from_index(i), true),
                _ => return None,
            }
        }
        Some(code)
    }
}

#[derive(Clone, Debug)]
struct SignalData {
    name: String,
    kind: SignalKind,
}

/// Errors from STG construction and label parsing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StgError {
    /// A label referenced a signal that was never declared.
    UnknownSignal(String),
    /// A transition label could not be parsed (expected `sig+`, `sig-`,
    /// optionally `/instance`).
    BadLabel(String),
    /// The same signal edge instance was declared twice.
    DuplicateLabel(String),
    /// More than [`MAX_SIGNALS`] signals were declared.
    TooManySignals,
    /// A duplicate signal name was declared.
    DuplicateSignal(String),
    /// Referenced an undeclared transition or place by name.
    UnknownNode(String),
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::UnknownSignal(s) => write!(f, "unknown signal `{s}`"),
            StgError::BadLabel(s) => write!(f, "malformed transition label `{s}`"),
            StgError::DuplicateLabel(s) => write!(f, "duplicate transition label `{s}`"),
            StgError::TooManySignals => write!(f, "more than {MAX_SIGNALS} signals"),
            StgError::DuplicateSignal(s) => write!(f, "duplicate signal `{s}`"),
            StgError::UnknownNode(s) => write!(f, "unknown place or transition `{s}`"),
        }
    }
}

impl std::error::Error for StgError {}

/// A Signal Transition Graph `D = (N, S_A, λ)` (Def. 2.1 of the paper):
/// a Petri net whose transitions are labelled with signal edges, plus a
/// partition of the signals into inputs, outputs and internal signals.
///
/// Transitions without a label are *dummies* (allowed by the `.g` format;
/// they change no signal).
///
/// Construct via [`StgBuilder`] or the `.g` parser in [`crate::parse_g`].
#[derive(Clone, Debug)]
pub struct Stg {
    net: PetriNet,
    signals: Vec<SignalData>,
    labels: Vec<Option<TransLabel>>,
    name_to_signal: HashMap<String, SignalId>,
    initial_code: Option<Code>,
    name: String,
}

impl Stg {
    /// The underlying Petri net.
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// Model name (from the builder or the `.model` line of a `.g` file).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of declared signals.
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// Iterator over all signal ids.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> {
        (0..self.signals.len()).map(|i| SignalId(i as u32))
    }

    /// Name of signal `s`.
    pub fn signal_name(&self, s: SignalId) -> &str {
        &self.signals[s.index()].name
    }

    /// Interface kind of signal `s`.
    pub fn signal_kind(&self, s: SignalId) -> SignalKind {
        self.signals[s.index()].kind
    }

    /// Looks up a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.name_to_signal.get(name).copied()
    }

    /// All non-input (output and internal) signals.
    pub fn noninput_signals(&self) -> Vec<SignalId> {
        self.signals().filter(|&s| self.signal_kind(s).is_noninput()).collect()
    }

    /// All input signals.
    pub fn input_signals(&self) -> Vec<SignalId> {
        self.signals().filter(|&s| !self.signal_kind(s).is_noninput()).collect()
    }

    /// Label of transition `t`, or `None` for a dummy transition.
    pub fn label(&self, t: TransId) -> Option<TransLabel> {
        self.labels[t.index()]
    }

    /// `true` if `t` is a dummy (unlabelled) transition.
    pub fn is_dummy(&self, t: TransId) -> bool {
        self.labels[t.index()].is_none()
    }

    /// All transitions labelled with an edge of signal `s`.
    pub fn transitions_of_signal(&self, s: SignalId) -> Vec<TransId> {
        self.net
            .transitions()
            .filter(|&t| self.labels[t.index()].is_some_and(|l| l.signal == s))
            .collect()
    }

    /// All transitions labelled `s, polarity` (any instance): the set the
    /// paper writes `{t : λ(t) = a*}`.
    pub fn transitions_of_edge(&self, s: SignalId, polarity: Polarity) -> Vec<TransId> {
        self.net
            .transitions()
            .filter(|&t| {
                self.labels[t.index()].is_some_and(|l| l.signal == s && l.polarity == polarity)
            })
            .collect()
    }

    /// The initial state code, if one was supplied.
    ///
    /// When absent, the explicit layer infers it with
    /// [`crate::infer_initial_code`] and the symbolic layer with its frozen
    /// traversal (paper Section 5.1, "don't care" initial values).
    pub fn initial_code(&self) -> Option<Code> {
        self.initial_code
    }

    /// Sets (or clears) the initial state code.
    pub fn set_initial_code(&mut self, code: Option<Code>) {
        self.initial_code = code;
    }

    /// Human-readable label of `t`: `sig+`, `sig-/3`, or the transition
    /// name for dummies.
    pub fn label_string(&self, t: TransId) -> String {
        match self.labels[t.index()] {
            None => self.net.trans_name(t).to_string(),
            Some(l) => {
                let base = format!("{}{}", self.signal_name(l.signal), l.polarity);
                if l.instance > 1 {
                    format!("{base}/{}", l.instance)
                } else {
                    base
                }
            }
        }
    }

    /// Parses a label string (`sig+`, `sig-`, optional `/instance`) against
    /// this STG's signal table.
    ///
    /// # Errors
    ///
    /// [`StgError::BadLabel`] on syntax errors, [`StgError::UnknownSignal`]
    /// if the signal is not declared.
    pub fn parse_label(&self, text: &str) -> Result<TransLabel, StgError> {
        parse_label_with(text, &self.name_to_signal)
    }

    /// Content-addressed identity of the net: a 128-bit hash over a
    /// canonical description of its structure — signals (name + kind,
    /// sorted by name), the initial code (as per-signal bits in that
    /// sorted order), transitions (by canonical label), and the places
    /// as an anonymous multiset of `(tokens, producers, consumers)`
    /// records with arc weights.
    ///
    /// The hash is computed from the *parsed* structure, so it is stable
    /// under whitespace, comments, and declaration reordering of the `.g`
    /// source. The model name and place names are deliberately excluded:
    /// they carry no behaviour (implicit places are anonymous routing
    /// nodes, and verdicts don't depend on what a place is called). Equal
    /// hashes mean structurally identical nets (modulo the 128-bit
    /// collision bound) — the contract the result cache in
    /// `stgcheck-core` relies on.
    pub fn content_hash(&self) -> u128 {
        let desc = self.canonical_descriptor();
        // Two FNV-1a-64 passes with independent offset bases give the
        // 128-bit key without pulling in a hashing dependency.
        let lo = fnv1a64(0xcbf2_9ce4_8422_2325, desc.as_bytes());
        let hi = fnv1a64(0x9e37_79b9_7f4a_7c15 ^ desc.len() as u64, desc.as_bytes());
        ((hi as u128) << 64) | lo as u128
    }

    /// The canonical structural description hashed by
    /// [`Stg::content_hash`]. Names are length-prefixed so that no
    /// concatenation of fields can collide with another net's fields.
    fn canonical_descriptor(&self) -> String {
        use std::fmt::Write as _;
        fn canon(s: &str) -> String {
            format!("{}:{s}", s.len())
        }
        let mut out = String::from("stg-v1;");
        let mut sigs: Vec<SignalId> = self.signals().collect();
        sigs.sort_by(|a, b| self.signal_name(*a).cmp(self.signal_name(*b)));
        out.push_str("signals;");
        for &s in &sigs {
            let kind = match self.signal_kind(s) {
                SignalKind::Input => 'i',
                SignalKind::Output => 'o',
                SignalKind::Internal => 'n',
            };
            let _ = write!(out, "{}{kind};", canon(self.signal_name(s)));
        }
        out.push_str("init;");
        match self.initial_code {
            None => out.push_str("absent;"),
            Some(c) => {
                for &s in &sigs {
                    out.push(if c.get(s) { '1' } else { '0' });
                }
                out.push(';');
            }
        }
        let mut trans: Vec<String> = self.net.transitions().map(|t| self.label_string(t)).collect();
        trans.sort();
        out.push_str("transitions;");
        for t in &trans {
            let _ = write!(out, "{};", canon(t));
        }
        // Places are identified purely by their arc structure; the record
        // multiset is order-insensitive by sorting.
        let mut recs: Vec<String> = Vec::new();
        for p in self.net.places() {
            let weight_in = |t: TransId| {
                self.net.postset(t).iter().find(|&&(q, _)| q == p).map_or(0, |&(_, w)| w)
            };
            let weight_out = |t: TransId| {
                self.net.preset(t).iter().find(|&&(q, _)| q == p).map_or(0, |&(_, w)| w)
            };
            let mut producers: Vec<String> = self
                .net
                .place_preset(p)
                .iter()
                .map(|&t| format!("{}*{}", canon(&self.label_string(t)), weight_in(t)))
                .collect();
            producers.sort();
            let mut consumers: Vec<String> = self
                .net
                .place_postset(p)
                .iter()
                .map(|&t| format!("{}*{}", canon(&self.label_string(t)), weight_out(t)))
                .collect();
            consumers.sort();
            recs.push(format!(
                "{}<{}>[{}]",
                self.net.initial_tokens(p),
                producers.join(","),
                consumers.join(",")
            ));
        }
        recs.sort();
        out.push_str("places;");
        for r in &recs {
            let _ = write!(out, "{};", canon(r));
        }
        out
    }
}

/// FNV-1a over `bytes` starting from the given offset basis.
fn fnv1a64(offset: u64, bytes: &[u8]) -> u64 {
    let mut h = offset;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Splits `sig+/2` into `(signal name, polarity, instance)`.
pub(crate) fn split_label(text: &str) -> Result<(&str, Polarity, u32), StgError> {
    let (body, instance) = match text.split_once('/') {
        None => (text, 1u32),
        Some((body, inst)) => {
            let n: u32 = inst.parse().map_err(|_| StgError::BadLabel(text.to_string()))?;
            if n == 0 {
                return Err(StgError::BadLabel(text.to_string()));
            }
            (body, n)
        }
    };
    let (name, polarity) = if let Some(name) = body.strip_suffix('+') {
        (name, Polarity::Rise)
    } else if let Some(name) = body.strip_suffix('-') {
        (name, Polarity::Fall)
    } else {
        return Err(StgError::BadLabel(text.to_string()));
    };
    if name.is_empty() {
        return Err(StgError::BadLabel(text.to_string()));
    }
    Ok((name, polarity, instance))
}

fn parse_label_with(
    text: &str,
    signals: &HashMap<String, SignalId>,
) -> Result<TransLabel, StgError> {
    let (name, polarity, instance) = split_label(text)?;
    let signal = *signals.get(name).ok_or_else(|| StgError::UnknownSignal(name.to_string()))?;
    Ok(TransLabel::with_instance(signal, polarity, instance))
}

/// Incremental builder for [`Stg`]s.
///
/// Transitions are created on demand from label strings; arcs between
/// transitions insert implicit places, mirroring the shorthand STG notation
/// used in the paper's figures.
///
/// # Examples
///
/// ```
/// use stgcheck_stg::{Code, StgBuilder};
///
/// // A simple handshake: r (input) and a (output).
/// let mut b = StgBuilder::new("handshake");
/// b.input("r");
/// b.output("a");
/// b.seq(&["r+", "a+", "r-", "a-"]);
/// b.marked_arc("a-", "r+"); // close the cycle; token here initially
/// b.initial_code_str("00");
/// let stg = b.build()?;
/// assert_eq!(stg.num_signals(), 2);
/// assert_eq!(stg.net().num_transitions(), 4);
/// # Ok::<(), stgcheck_stg::StgError>(())
/// ```
#[derive(Debug, Default)]
pub struct StgBuilder {
    net: PetriNet,
    signals: Vec<SignalData>,
    labels: Vec<Option<TransLabel>>,
    name_to_signal: HashMap<String, SignalId>,
    label_to_trans: HashMap<String, TransId>,
    initial_code: Option<Code>,
    name: String,
    error: Option<StgError>,
}

impl StgBuilder {
    /// Starts building an STG with the given model name.
    pub fn new(name: impl Into<String>) -> StgBuilder {
        StgBuilder { name: name.into(), ..StgBuilder::default() }
    }

    fn fail(&mut self, e: StgError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn add_signal(&mut self, name: &str, kind: SignalKind) -> SignalId {
        if self.signals.len() >= MAX_SIGNALS {
            self.fail(StgError::TooManySignals);
            return SignalId(0);
        }
        if self.name_to_signal.contains_key(name) {
            self.fail(StgError::DuplicateSignal(name.to_string()));
            return self.name_to_signal[name];
        }
        let id = SignalId(self.signals.len() as u32);
        self.signals.push(SignalData { name: name.to_string(), kind });
        self.name_to_signal.insert(name.to_string(), id);
        id
    }

    /// Declares an input signal.
    pub fn input(&mut self, name: &str) -> SignalId {
        self.add_signal(name, SignalKind::Input)
    }

    /// Declares an output signal.
    pub fn output(&mut self, name: &str) -> SignalId {
        self.add_signal(name, SignalKind::Output)
    }

    /// Declares an internal (hidden) signal.
    pub fn internal(&mut self, name: &str) -> SignalId {
        self.add_signal(name, SignalKind::Internal)
    }

    /// Returns the transition for `label`, creating it on first use.
    ///
    /// `label` is `sig+`, `sig-`, optionally suffixed `/instance`; the
    /// signal must already be declared. Any error is deferred to
    /// [`StgBuilder::build`].
    pub fn trans(&mut self, label: &str) -> TransId {
        if let Some(&t) = self.label_to_trans.get(label) {
            return t;
        }
        match parse_label_with(label, &self.name_to_signal) {
            Err(e) => {
                self.fail(e);
                // Keep indices valid with an unlabelled placeholder;
                // build() will fail with the recorded error. The space
                // keeps its name apart from every `.g` dummy name.
                let t = self.net.add_transition(format!("<invalid {label}>"));
                self.labels.push(None);
                self.label_to_trans.insert(label.to_string(), t);
                t
            }
            Ok(l) => {
                let t = self.net.add_transition(label);
                self.labels.push(Some(l));
                self.label_to_trans.insert(label.to_string(), t);
                t
            }
        }
    }

    /// Creates a dummy (unlabelled) transition with the given name.
    pub fn dummy(&mut self, name: &str) -> TransId {
        if let Some(&t) = self.label_to_trans.get(name) {
            return t;
        }
        let t = self.net.add_transition(name);
        self.labels.push(None);
        self.label_to_trans.insert(name.to_string(), t);
        t
    }

    /// Replaces the model name (used by the `.g` parser).
    pub fn with_name(mut self, name: impl Into<String>) -> StgBuilder {
        self.name = name.into();
        self
    }

    /// Adds an explicit place with `tokens` initial tokens.
    pub fn place(&mut self, name: &str, tokens: u32) -> PlaceId {
        self.net.add_place(name, tokens)
    }

    /// Looks up a place created so far (explicit or implicit).
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.net.place_by_name(name)
    }

    /// The net built so far.
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// Overwrites the initial token count of a place.
    pub fn set_place_tokens(&mut self, p: PlaceId, tokens: u32) {
        self.net.set_initial_tokens(p, tokens);
    }

    /// Arc place → transition (by label).
    pub fn pt(&mut self, p: PlaceId, label: &str) {
        let t = self.trans(label);
        self.net.add_arc_pt(p, t, 1);
    }

    /// Arc transition (by label) → place.
    pub fn tp(&mut self, label: &str, p: PlaceId) {
        let t = self.trans(label);
        self.net.add_arc_tp(t, p, 1);
    }

    /// Arc between two transitions through a fresh implicit place
    /// (shorthand STG edge), holding `tokens` initial tokens.
    pub fn arc_with_tokens(&mut self, from: &str, to: &str, tokens: u32) {
        let tf = self.trans(from);
        let tt = self.trans(to);
        let pname = format!("<{from},{to}>");
        let p = match self.net.place_by_name(&pname) {
            Some(p) => p,
            None => self.net.add_place(pname, tokens),
        };
        self.net.add_arc_tp(tf, p, 1);
        self.net.add_arc_pt(p, tt, 1);
    }

    /// Unmarked implicit arc between two transitions.
    pub fn arc(&mut self, from: &str, to: &str) {
        self.arc_with_tokens(from, to, 0);
    }

    /// Implicit arc holding one initial token.
    pub fn marked_arc(&mut self, from: &str, to: &str) {
        self.arc_with_tokens(from, to, 1);
    }

    /// Chains `labels` with unmarked implicit arcs:
    /// `l0 → l1 → … → ln`.
    pub fn seq(&mut self, labels: &[&str]) {
        for w in labels.windows(2) {
            self.arc(w[0], w[1]);
        }
    }

    /// Chains `labels` into a cycle, with the single token on the closing
    /// edge `ln → l0` (a common STG idiom: the cycle starts at `l0`).
    pub fn cycle(&mut self, labels: &[&str]) {
        self.seq(labels);
        if labels.len() >= 2 {
            self.marked_arc(labels[labels.len() - 1], labels[0]);
        }
    }

    /// Sets the initial code from a 0/1 string in signal declaration order.
    pub fn initial_code_str(&mut self, bits: &str) {
        match Code::from_bit_string(bits) {
            Some(c) => self.initial_code = Some(c),
            None => self.fail(StgError::BadLabel(format!("initial code `{bits}`"))),
        }
    }

    /// Sets the initial code directly.
    pub fn initial_code(&mut self, code: Code) {
        self.initial_code = Some(code);
    }

    /// Finalises the STG.
    ///
    /// # Errors
    ///
    /// Returns the first construction error encountered (unknown signals,
    /// malformed labels, duplicate declarations, …).
    pub fn build(self) -> Result<Stg, StgError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(Stg {
            net: self.net,
            signals: self.signals,
            labels: self.labels,
            name_to_signal: self.name_to_signal,
            initial_code: self.initial_code,
            name: self.name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_bit_operations() {
        let s0 = SignalId::from_index(0);
        let s2 = SignalId::from_index(2);
        let c = Code::ZERO.with(s2, true);
        assert!(!c.get(s0));
        assert!(c.get(s2));
        assert_eq!(c.toggled(s2), Code::ZERO);
        assert_eq!(c.with(s0, true).to_bit_string(3), "101");
        assert_eq!(Code::from_bit_string("101"), Some(Code(0b101)));
        assert_eq!(Code::from_bit_string("10x"), None);
    }

    #[test]
    fn label_splitting() {
        assert_eq!(split_label("a+").unwrap(), ("a", Polarity::Rise, 1));
        assert_eq!(split_label("req-").unwrap(), ("req", Polarity::Fall, 1));
        assert_eq!(split_label("a+/3").unwrap(), ("a", Polarity::Rise, 3));
        assert!(split_label("a").is_err());
        assert!(split_label("+").is_err());
        assert!(split_label("a+/0").is_err());
        assert!(split_label("a+/x").is_err());
    }

    #[test]
    fn builder_handshake() {
        let mut b = StgBuilder::new("hs");
        let r = b.input("r");
        let a = b.output("a");
        b.cycle(&["r+", "a+", "r-", "a-"]);
        b.initial_code_str("00");
        let stg = b.build().unwrap();
        assert_eq!(stg.name(), "hs");
        assert_eq!(stg.num_signals(), 2);
        assert_eq!(stg.signal_kind(r), SignalKind::Input);
        assert_eq!(stg.signal_kind(a), SignalKind::Output);
        assert_eq!(stg.net().num_transitions(), 4);
        assert_eq!(stg.net().num_places(), 4);
        assert_eq!(stg.initial_code(), Some(Code::ZERO));
        // The closing arc carries the token.
        let m0 = stg.net().initial_marking();
        assert_eq!(m0.marked_places().count(), 1);
        let rp = stg.net().trans_by_name("r+").unwrap();
        assert!(stg.net().is_enabled(rp, &m0));
        assert_eq!(stg.label_string(rp), "r+");
        assert_eq!(stg.label(rp).unwrap().polarity, Polarity::Rise);
        assert_eq!(stg.transitions_of_signal(r).len(), 2);
        assert_eq!(stg.transitions_of_edge(a, Polarity::Rise).len(), 1);
        assert_eq!(stg.noninput_signals(), vec![a]);
        assert_eq!(stg.input_signals(), vec![r]);
    }

    #[test]
    fn builder_instances_and_dummies() {
        let mut b = StgBuilder::new("m");
        b.output("x");
        b.seq(&["x+", "x-", "x+/2", "x-/2"]);
        b.dummy("eps");
        b.arc("x-/2", "eps");
        let stg = b.build().unwrap();
        assert_eq!(stg.net().num_transitions(), 5);
        let x2 = stg.net().trans_by_name("x+/2").unwrap();
        assert_eq!(stg.label(x2).unwrap().instance, 2);
        assert_eq!(stg.label_string(x2), "x+/2");
        let eps = stg.net().trans_by_name("eps").unwrap();
        assert!(stg.is_dummy(eps));
        assert_eq!(stg.label_string(eps), "eps");
    }

    #[test]
    fn builder_reports_unknown_signal() {
        let mut b = StgBuilder::new("bad");
        b.input("r");
        b.arc("r+", "nope+");
        assert_eq!(b.build().unwrap_err(), StgError::UnknownSignal("nope".to_string()));
    }

    #[test]
    fn builder_reports_duplicate_signal() {
        let mut b = StgBuilder::new("bad");
        b.input("r");
        b.output("r");
        assert_eq!(b.build().unwrap_err(), StgError::DuplicateSignal("r".to_string()));
    }

    #[test]
    fn parse_label_on_built_stg() {
        let mut b = StgBuilder::new("m");
        b.input("req");
        let stg = b.build().unwrap();
        let l = stg.parse_label("req-/2").unwrap();
        assert_eq!(l.polarity, Polarity::Fall);
        assert_eq!(l.instance, 2);
        assert!(stg.parse_label("ack+").is_err());
    }

    #[test]
    fn explicit_places() {
        let mut b = StgBuilder::new("m");
        b.output("x");
        b.output("y");
        let p = b.place("mutex", 1);
        b.pt(p, "x+");
        b.pt(p, "y+");
        b.tp("x-", p);
        let stg = b.build().unwrap();
        let mutex = stg.net().place_by_name("mutex").unwrap();
        assert_eq!(stg.net().place_postset(mutex).len(), 2);
        assert_eq!(stg.net().initial_tokens(mutex), 1);
    }

    const HASH_BASE: &str = "\
.model hs
.inputs r
.outputs a
.graph
r+ a+
a+ r-
r- a-
a- r+
.marking { <a-,r+> }
.end
";

    #[test]
    fn content_hash_ignores_whitespace_and_comments() {
        let noisy = "\
# a comment line
.model hs   # trailing comment

.inputs    r
.outputs a

.graph
r+     a+   # arc
a+ r-
r- a-
a- r+
.marking {   <a-,r+>   }
.end
";
        let a = crate::parse_g(HASH_BASE).unwrap();
        let b = crate::parse_g(noisy).unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn content_hash_ignores_declaration_order_and_model_name() {
        // Signals declared in the opposite order, graph lines shuffled,
        // different model name: same net, same hash.
        let reordered = "\
.model renamed
.outputs a
.inputs r
.graph
a- r+
r- a-
a+ r-
r+ a+
.marking { <a-,r+> }
.end
";
        let a = crate::parse_g(HASH_BASE).unwrap();
        let b = crate::parse_g(reordered).unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn content_hash_separates_different_nets() {
        let a = crate::parse_g(HASH_BASE).unwrap();
        // Different marking position.
        let moved_token = HASH_BASE.replace("<a-,r+>", "<r+,a+>");
        // Signal kind flipped.
        let flipped = HASH_BASE.replace(".inputs r", ".internal r");
        // An extra transition pair on a fresh signal.
        let wider = "\
.model hs
.inputs r b
.outputs a
.graph
r+ a+
a+ r-
r- a-
a- r+
b+ b-
b- b+
.marking { <a-,r+> <b-,b+> }
.end
";
        for other in [moved_token.as_str(), flipped.as_str(), wider] {
            let b = crate::parse_g(other).unwrap();
            assert_ne!(a.content_hash(), b.content_hash(), "variant:\n{other}");
        }
        // Initial code participates: same structure, explicit code differs.
        let mut with_code = crate::parse_g(HASH_BASE).unwrap();
        with_code.set_initial_code(Some(Code(0b01)));
        assert_ne!(a.content_hash(), with_code.content_hash());
    }

    #[test]
    fn content_hash_is_stable_under_signal_index_permutation() {
        // Initial codes are index-based bitmasks; the canonical hash must
        // compare values per *name*, not per index.
        let mut b1 = StgBuilder::new("m");
        b1.input("x");
        b1.input("y");
        b1.cycle(&["x+", "y+", "x-", "y-"]);
        b1.initial_code_str("01"); // x=0, y=1
        let s1 = b1.build().unwrap();

        let mut b2 = StgBuilder::new("m");
        b2.input("y");
        b2.input("x");
        b2.cycle(&["x+", "y+", "x-", "y-"]);
        b2.initial_code_str("10"); // y=1, x=0 — same values, new indices
        let s2 = b2.build().unwrap();

        assert_eq!(s1.content_hash(), s2.content_hash());
    }
}
