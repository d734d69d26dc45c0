//! Structural queries: conflict places and the marked-graph test.
//!
//! Persistency checking (paper Section 5.2) only needs to inspect
//! transitions that share an input place — a *conflict place*. Marked graphs
//! have none, which is why the paper reports negligible persistency time for
//! the master-read and Muller-pipeline examples.

use crate::net::{PetriNet, PlaceId, TransId};

impl PetriNet {
    /// Places with more than one consumer (`|p•| > 1`) — the only possible
    /// sources of transition non-persistency.
    pub fn conflict_places(&self) -> Vec<PlaceId> {
        self.places().filter(|&p| self.place_postset(p).len() > 1).collect()
    }

    /// Pairs of distinct transitions in *direct conflict*: sharing at least
    /// one input place (Def. 3.3 of the paper). Each unordered pair is
    /// reported once, ordered by id.
    pub fn direct_conflict_pairs(&self) -> Vec<(TransId, TransId)> {
        let mut pairs = Vec::new();
        for p in self.conflict_places() {
            let post = self.place_postset(p);
            for (i, &ti) in post.iter().enumerate() {
                for &tj in &post[i + 1..] {
                    let pair = if ti < tj { (ti, tj) } else { (tj, ti) };
                    if !pairs.contains(&pair) {
                        pairs.push(pair);
                    }
                }
            }
        }
        pairs.sort();
        pairs
    }

    /// `true` if every place has at most one input and one output
    /// transition (no choice, no merging): a marked graph.
    pub fn is_marked_graph(&self) -> bool {
        self.places().all(|p| self.place_postset(p).len() <= 1 && self.place_preset(p).len() <= 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> PetriNet {
        // p0 -> t0 -> p1 -> t1 -> p2 (a line: marked graph)
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0", 1);
        let p1 = net.add_place("p1", 0);
        let p2 = net.add_place("p2", 0);
        let t0 = net.add_transition("t0");
        let t1 = net.add_transition("t1");
        net.connect(&[p0], t0, &[p1]);
        net.connect(&[p1], t1, &[p2]);
        net
    }

    fn choice() -> PetriNet {
        // p -> {ta, tb}: a free-choice conflict.
        let mut net = PetriNet::new();
        let p = net.add_place("p", 1);
        let a = net.add_place("a", 0);
        let b = net.add_place("b", 0);
        let ta = net.add_transition("ta");
        let tb = net.add_transition("tb");
        net.connect(&[p], ta, &[a]);
        net.connect(&[p], tb, &[b]);
        net
    }

    #[test]
    fn marked_graph_classification() {
        let net = pipeline();
        assert!(net.is_marked_graph());
        assert!(net.conflict_places().is_empty());
        assert!(net.direct_conflict_pairs().is_empty());
    }

    #[test]
    fn choice_classification() {
        let net = choice();
        assert!(!net.is_marked_graph());
        let p = net.place_by_name("p").unwrap();
        assert_eq!(net.conflict_places(), vec![p]);
        let ta = net.trans_by_name("ta").unwrap();
        let tb = net.trans_by_name("tb").unwrap();
        assert_eq!(net.direct_conflict_pairs(), vec![(ta, tb)]);
    }
}
