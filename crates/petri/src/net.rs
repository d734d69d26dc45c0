//! Place/transition nets: structure, markings and the token game.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a place within its [`PetriNet`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PlaceId(pub(crate) u32);

impl PlaceId {
    /// Zero-based index of the place in creation order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a place id from a raw index (must come from the same net).
    pub fn from_index(i: usize) -> PlaceId {
        PlaceId(i as u32)
    }
}

/// Identifier of a transition within its [`PetriNet`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TransId(pub(crate) u32);

impl TransId {
    /// Zero-based index of the transition in creation order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a transition id from a raw index (must come from the same net).
    pub fn from_index(i: usize) -> TransId {
        TransId(i as u32)
    }
}

/// A marking: tokens per place, indexed by [`PlaceId::index`].
///
/// # Examples
///
/// ```
/// use stgcheck_petri::{Marking, PetriNet};
/// let mut net = PetriNet::new();
/// let p = net.add_place("p", 1);
/// let q = net.add_place("q", 0);
/// let m = net.initial_marking();
/// assert_eq!(m.tokens(p), 1);
/// assert_eq!(m.tokens(q), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Marking(pub(crate) Vec<u32>);

impl Marking {
    /// A marking with `n` empty places.
    pub fn empty(n: usize) -> Marking {
        Marking(vec![0; n])
    }

    /// Builds a marking from explicit token counts.
    pub fn from_tokens(tokens: Vec<u32>) -> Marking {
        Marking(tokens)
    }

    /// Tokens currently on `p`.
    pub fn tokens(&self, p: PlaceId) -> u32 {
        self.0[p.index()]
    }

    /// Sets the token count of `p`.
    pub fn set_tokens(&mut self, p: PlaceId, tokens: u32) {
        self.0[p.index()] = tokens;
    }

    /// Number of places.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the marking has no places (degenerate nets only).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Largest token count on any place.
    pub fn max_tokens(&self) -> u32 {
        self.0.iter().copied().max().unwrap_or(0)
    }

    /// `true` if every place holds at most one token.
    pub fn is_safe(&self) -> bool {
        self.max_tokens() <= 1
    }

    /// Componentwise `self ≤ other`.
    pub fn is_covered_by(&self, other: &Marking) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Iterator over `(place, tokens)` pairs with non-zero tokens.
    pub fn marked_places(&self) -> impl Iterator<Item = (PlaceId, u32)> + '_ {
        self.0.iter().enumerate().filter(|(_, &t)| t > 0).map(|(i, &t)| (PlaceId(i as u32), t))
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

#[derive(Clone, Debug)]
struct PlaceData {
    name: String,
    initial: u32,
}

#[derive(Clone, Debug)]
struct TransData {
    name: String,
}

/// A weighted place/transition Petri net `N = (P, T, F, m₀)`.
///
/// Places and transitions are created incrementally; arcs carry positive
/// weights (weight 1 everywhere gives an ordinary net). The net keeps
/// presets and postsets for both node kinds, so structural queries are O(1)
/// amortised.
///
/// # Examples
///
/// ```
/// use stgcheck_petri::PetriNet;
/// let mut net = PetriNet::new();
/// let p0 = net.add_place("p0", 1);
/// let p1 = net.add_place("p1", 0);
/// let t = net.add_transition("t");
/// net.add_arc_pt(p0, t, 1);
/// net.add_arc_tp(t, p1, 1);
/// let m0 = net.initial_marking();
/// assert!(net.is_enabled(t, &m0));
/// let m1 = net.fire(t, &m0);
/// assert_eq!(m1.tokens(p1), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PetriNet {
    places: Vec<PlaceData>,
    transitions: Vec<TransData>,
    /// Input arcs per transition: `(place, weight)`.
    pre: Vec<Vec<(PlaceId, u32)>>,
    /// Output arcs per transition: `(place, weight)`.
    post: Vec<Vec<(PlaceId, u32)>>,
    /// `p•` per place.
    place_out: Vec<Vec<TransId>>,
    /// `•p` per place.
    place_in: Vec<Vec<TransId>>,
    name_to_place: HashMap<String, PlaceId>,
    name_to_trans: HashMap<String, TransId>,
}

impl PetriNet {
    /// Creates an empty net.
    pub fn new() -> PetriNet {
        PetriNet::default()
    }

    /// Adds a place with `initial` tokens.
    ///
    /// # Panics
    ///
    /// Panics if a place with the same name already exists.
    pub fn add_place(&mut self, name: impl Into<String>, initial: u32) -> PlaceId {
        let name = name.into();
        let id = PlaceId(self.places.len() as u32);
        let prev = self.name_to_place.insert(name.clone(), id);
        assert!(prev.is_none(), "duplicate place name `{name}`");
        self.places.push(PlaceData { name, initial });
        self.place_out.push(Vec::new());
        self.place_in.push(Vec::new());
        id
    }

    /// Adds a transition.
    ///
    /// # Panics
    ///
    /// Panics if a transition with the same name already exists.
    pub fn add_transition(&mut self, name: impl Into<String>) -> TransId {
        let name = name.into();
        let id = TransId(self.transitions.len() as u32);
        let prev = self.name_to_trans.insert(name.clone(), id);
        assert!(prev.is_none(), "duplicate transition name `{name}`");
        self.transitions.push(TransData { name });
        self.pre.push(Vec::new());
        self.post.push(Vec::new());
        id
    }

    /// Adds an arc from place `p` to transition `t` with the given weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero or the arc already exists.
    pub fn add_arc_pt(&mut self, p: PlaceId, t: TransId, weight: u32) {
        assert!(weight > 0, "arc weight must be positive");
        assert!(
            !self.has_arc_pt(p, t),
            "duplicate arc {} -> {}",
            self.place_name(p),
            self.trans_name(t)
        );
        self.pre[t.index()].push((p, weight));
        self.place_out[p.index()].push(t);
    }

    /// Adds an arc from transition `t` to place `p` with the given weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero or the arc already exists.
    pub fn add_arc_tp(&mut self, t: TransId, p: PlaceId, weight: u32) {
        assert!(weight > 0, "arc weight must be positive");
        assert!(
            !self.has_arc_tp(t, p),
            "duplicate arc {} -> {}",
            self.trans_name(t),
            self.place_name(p)
        );
        self.post[t.index()].push((p, weight));
        self.place_in[p.index()].push(t);
    }

    /// Whether the arc `p → t` exists.
    pub fn has_arc_pt(&self, p: PlaceId, t: TransId) -> bool {
        self.pre[t.index()].iter().any(|&(q, _)| q == p)
    }

    /// Whether the arc `t → p` exists.
    pub fn has_arc_tp(&self, t: TransId, p: PlaceId) -> bool {
        self.post[t.index()].iter().any(|&(q, _)| q == p)
    }

    /// Convenience: adds unit-weight arcs from every place in `inputs` to
    /// `t` and from `t` to every place in `outputs`.
    pub fn connect(&mut self, inputs: &[PlaceId], t: TransId, outputs: &[PlaceId]) {
        for &p in inputs {
            self.add_arc_pt(p, t, 1);
        }
        for &p in outputs {
            self.add_arc_tp(t, p, 1);
        }
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Iterator over all place ids.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.places.len()).map(|i| PlaceId(i as u32))
    }

    /// Iterator over all transition ids.
    pub fn transitions(&self) -> impl Iterator<Item = TransId> {
        (0..self.transitions.len()).map(|i| TransId(i as u32))
    }

    /// Name of place `p`.
    pub fn place_name(&self, p: PlaceId) -> &str {
        &self.places[p.index()].name
    }

    /// Name of transition `t`.
    pub fn trans_name(&self, t: TransId) -> &str {
        &self.transitions[t.index()].name
    }

    /// Looks a place up by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.name_to_place.get(name).copied()
    }

    /// Looks a transition up by name.
    pub fn trans_by_name(&self, name: &str) -> Option<TransId> {
        self.name_to_trans.get(name).copied()
    }

    /// The initial marking `m₀`.
    pub fn initial_marking(&self) -> Marking {
        Marking(self.places.iter().map(|p| p.initial).collect())
    }

    /// Initial tokens of place `p`.
    pub fn initial_tokens(&self, p: PlaceId) -> u32 {
        self.places[p.index()].initial
    }

    /// Overwrites the initial token count of `p`.
    pub fn set_initial_tokens(&mut self, p: PlaceId, tokens: u32) {
        self.places[p.index()].initial = tokens;
    }

    /// Input arcs of `t` as `(place, weight)` pairs (`•t`).
    pub fn preset(&self, t: TransId) -> &[(PlaceId, u32)] {
        &self.pre[t.index()]
    }

    /// Output arcs of `t` as `(place, weight)` pairs (`t•`).
    pub fn postset(&self, t: TransId) -> &[(PlaceId, u32)] {
        &self.post[t.index()]
    }

    /// Transitions consuming from `p` (`p•`).
    pub fn place_postset(&self, p: PlaceId) -> &[TransId] {
        &self.place_out[p.index()]
    }

    /// Transitions producing into `p` (`•p`).
    pub fn place_preset(&self, p: PlaceId) -> &[TransId] {
        &self.place_in[p.index()]
    }

    /// `true` if `t` is enabled at `m` (every input place holds at least
    /// the arc weight).
    pub fn is_enabled(&self, t: TransId, m: &Marking) -> bool {
        self.pre[t.index()].iter().all(|&(p, w)| m.tokens(p) >= w)
    }

    /// All transitions enabled at `m`.
    pub fn enabled_transitions(&self, m: &Marking) -> Vec<TransId> {
        self.transitions().filter(|&t| self.is_enabled(t, m)).collect()
    }

    /// Fires `t` at `m`, producing the successor marking.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not enabled at `m`; use [`PetriNet::try_fire`] for
    /// the checked variant.
    pub fn fire(&self, t: TransId, m: &Marking) -> Marking {
        self.try_fire(t, m)
            .unwrap_or_else(|| panic!("transition `{}` not enabled at {m}", self.trans_name(t)))
    }

    /// Fires `t` at `m` if enabled.
    pub fn try_fire(&self, t: TransId, m: &Marking) -> Option<Marking> {
        if !self.is_enabled(t, m) {
            return None;
        }
        let mut next = m.clone();
        for &(p, w) in &self.pre[t.index()] {
            next.0[p.index()] -= w;
        }
        for &(p, w) in &self.post[t.index()] {
            next.0[p.index()] += w;
        }
        Some(next)
    }

    /// Fires the sequence `ts` from `m`, returning `None` as soon as a
    /// transition is disabled.
    pub fn fire_sequence(&self, ts: &[TransId], m: &Marking) -> Option<Marking> {
        let mut cur = m.clone();
        for &t in ts {
            cur = self.try_fire(t, &cur)?;
        }
        Some(cur)
    }

    /// `true` if all arcs have weight one.
    pub fn is_ordinary(&self) -> bool {
        self.pre.iter().chain(&self.post).all(|arcs| arcs.iter().all(|&(_, w)| w == 1))
    }

    /// `true` if `t` has a self-loop on some place (`•t ∩ t• ≠ ∅`).
    pub fn has_self_loop(&self, t: TransId) -> bool {
        self.pre[t.index()].iter().any(|&(p, _)| self.post[t.index()].iter().any(|&(q, _)| p == q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `p0 --t0--> p1 --t1--> p0` (a 2-cycle).
    fn cycle() -> (PetriNet, PlaceId, PlaceId, TransId, TransId) {
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0", 1);
        let p1 = net.add_place("p1", 0);
        let t0 = net.add_transition("t0");
        let t1 = net.add_transition("t1");
        net.connect(&[p0], t0, &[p1]);
        net.connect(&[p1], t1, &[p0]);
        (net, p0, p1, t0, t1)
    }

    #[test]
    fn build_and_query() {
        let (net, p0, p1, t0, t1) = cycle();
        assert_eq!(net.num_places(), 2);
        assert_eq!(net.num_transitions(), 2);
        assert_eq!(net.place_name(p0), "p0");
        assert_eq!(net.trans_name(t1), "t1");
        assert_eq!(net.place_by_name("p1"), Some(p1));
        assert_eq!(net.trans_by_name("t0"), Some(t0));
        assert_eq!(net.place_by_name("nope"), None);
        assert_eq!(net.preset(t0), &[(p0, 1)]);
        assert_eq!(net.postset(t0), &[(p1, 1)]);
        assert_eq!(net.place_postset(p0), &[t0]);
        assert_eq!(net.place_preset(p0), &[t1]);
        assert!(net.is_ordinary());
    }

    #[test]
    fn token_game() {
        let (net, p0, p1, t0, t1) = cycle();
        let m0 = net.initial_marking();
        assert!(net.is_enabled(t0, &m0));
        assert!(!net.is_enabled(t1, &m0));
        assert_eq!(net.enabled_transitions(&m0), vec![t0]);
        let m1 = net.fire(t0, &m0);
        assert_eq!(m1.tokens(p0), 0);
        assert_eq!(m1.tokens(p1), 1);
        let m2 = net.fire(t1, &m1);
        assert_eq!(m2, m0);
        assert_eq!(net.try_fire(t1, &m0), None);
        assert_eq!(net.fire_sequence(&[t0, t1, t0], &m0), Some(m1));
        assert_eq!(net.fire_sequence(&[t1], &m0), None);
    }

    #[test]
    #[should_panic(expected = "not enabled")]
    fn fire_disabled_panics() {
        let (net, _, _, _, t1) = cycle();
        let m0 = net.initial_marking();
        let _ = net.fire(t1, &m0);
    }

    #[test]
    fn weighted_arcs() {
        let mut net = PetriNet::new();
        let p = net.add_place("p", 3);
        let q = net.add_place("q", 0);
        let t = net.add_transition("t");
        net.add_arc_pt(p, t, 2);
        net.add_arc_tp(t, q, 3);
        assert!(!net.is_ordinary());
        let m0 = net.initial_marking();
        let m1 = net.fire(t, &m0);
        assert_eq!(m1.tokens(p), 1);
        assert_eq!(m1.tokens(q), 3);
        assert!(!net.is_enabled(t, &m1));
    }

    #[test]
    fn self_loop_detection() {
        let mut net = PetriNet::new();
        let p = net.add_place("p", 1);
        let t = net.add_transition("t");
        net.add_arc_pt(p, t, 1);
        net.add_arc_tp(t, p, 1);
        assert!(net.has_self_loop(t));
        let m0 = net.initial_marking();
        assert_eq!(net.fire(t, &m0), m0);
    }

    #[test]
    #[should_panic(expected = "duplicate place name")]
    fn duplicate_place_name_panics() {
        let mut net = PetriNet::new();
        net.add_place("p", 0);
        net.add_place("p", 1);
    }

    #[test]
    #[should_panic(expected = "duplicate arc")]
    fn duplicate_arc_panics() {
        let mut net = PetriNet::new();
        let p = net.add_place("p", 0);
        let t = net.add_transition("t");
        net.add_arc_pt(p, t, 1);
        net.add_arc_pt(p, t, 1);
    }

    #[test]
    fn marking_utilities() {
        let m = Marking::from_tokens(vec![0, 2, 1]);
        assert_eq!(m.max_tokens(), 2);
        assert!(!m.is_safe());
        assert!(Marking::from_tokens(vec![1, 0]).is_safe());
        let bigger = Marking::from_tokens(vec![1, 2, 1]);
        assert!(m.is_covered_by(&bigger));
        assert!(!bigger.is_covered_by(&m));
        let marked: Vec<_> = m.marked_places().collect();
        assert_eq!(marked, vec![(PlaceId(1), 2), (PlaceId(2), 1)]);
        assert_eq!(m.to_string(), "[0 2 1]");
        assert_eq!(Marking::empty(2).to_string(), "[0 0]");
    }
}
