//! Independent references for the correctness gate: closed-form state
//! counts of the scalable families, and the explicit state-graph checker
//! for nets small enough to enumerate. Neither touches the BDD engine.

use stgcheck_petri::ReachOptions;
use stgcheck_stg::{
    check_explicit, gen, is_fake_free, parse_g, write_g, Implementability, PersistencyPolicy,
    SgOptions, Stg,
};

/// The scalable benchmark families of the paper's Table 1.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Family {
    Muller,
    ParHs,
    MasterRead,
    Mutex,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Muller => "muller",
            Family::ParHs => "par-hs",
            Family::MasterRead => "master-read",
            Family::Mutex => "mutex",
        }
    }

    pub fn build(self, n: usize) -> Stg {
        match self {
            Family::Muller => gen::muller_pipeline(n),
            Family::ParHs => gen::par_handshakes(n),
            Family::MasterRead => gen::master_read(n),
            Family::Mutex => gen::mutex(n),
        }
    }

    /// Reachable full states in closed form: muller-n = 2ⁿ, par-hs-n = 4ⁿ,
    /// master-read-n = 2·3ⁿ + 2, mutex-n = (n+1)·2ⁿ.
    pub fn states(self, n: usize) -> u128 {
        let n32 = n as u32;
        match self {
            Family::Muller => 1u128 << n,
            Family::ParHs => 4u128.pow(n32),
            Family::MasterRead => 2 * 3u128.pow(n32) + 2,
            Family::Mutex => (n as u128 + 1) << n,
        }
    }

    /// Mutex grants are arbitration points: the family is only persistent
    /// (and then gate-implementable) under the arbitration policy.
    pub fn arbitration(self) -> bool {
        self == Family::Mutex
    }
}

/// What a correct verification of a net must report.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub verdict: Implementability,
    pub states: u128,
}

/// The reference for a family member: every family is gate-implementable
/// (the mutex under arbitration).
pub fn family_expected(f: Family, n: usize) -> Expected {
    Expected { verdict: Implementability::Gate, states: f.states(n) }
}

/// The explicit-enumeration reference for a small net as the program
/// receives it (`.g` text, so the initial code is inferred). `None` when
/// the net is outside the fragment on which the symbolic verdict must
/// equal the explicit one: inconsistent, unsafe, unbounded or not
/// fake-free (the symbolic commutativity check is the fake-freedom proxy).
pub fn explicit_expected(stg: &Stg, arbitration: bool) -> Option<Expected> {
    let policy = PersistencyPolicy { allow_arbitration: arbitration };
    let report = check_explicit(stg, SgOptions { max_states: 5_000 }, policy);
    if !report.consistent() || !report.safe || !report.bounded {
        return None;
    }
    let rg = stg.net().reachability_graph(ReachOptions::default()).ok()?;
    if !is_fake_free(stg, &rg) {
        return None;
    }
    Some(Expected { verdict: report.verdict, states: report.states as u128 })
}

/// `.g` text round trip, the form every workload feeds the program.
pub fn as_received(stg: &Stg) -> Stg {
    parse_g(&write_g(stg)).expect("write_g output parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed forms agree with explicit enumeration of the nets as the
    /// program receives them, with the initial code inferred from `.g`.
    #[test]
    fn closed_forms_match_explicit_enumeration() {
        let cases = [
            (Family::Muller, 2..=10),
            (Family::ParHs, 1..=5),
            (Family::MasterRead, 1..=6),
            (Family::Mutex, 2..=6),
        ];
        for (family, sizes) in cases {
            for n in sizes {
                let stg = as_received(&family.build(n));
                assert!(stg.initial_code().is_none(), "{} {n}: .g carries no code", family.name());
                let got = explicit_expected(&stg, family.arbitration());
                assert_eq!(got, Some(family_expected(family, n)), "{}-{n}", family.name());
            }
        }
    }

    #[test]
    fn closed_forms_at_benchmark_sizes() {
        assert_eq!(Family::Muller.states(40), 1 << 40);
        assert_eq!(Family::ParHs.states(8), 65_536);
        assert_eq!(Family::MasterRead.states(12), 1_062_884);
        assert_eq!(Family::Mutex.states(20), 22_020_096);
    }

    #[test]
    fn mutex_needs_arbitration() {
        let stg = as_received(&Family::Mutex.build(3));
        let strict = explicit_expected(&stg, false).expect("in the comparable fragment");
        assert_eq!(strict.verdict, Implementability::NotImplementable);
    }
}
