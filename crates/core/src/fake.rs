//! Symbolic fake-conflict detection (paper Section 5.4) — the cheap
//! substitute for the full commutativity check.
//!
//! For each structural conflict pair `(tᵢ, tⱼ)` the procedure starts from
//! `Enabled = R(N) ∩ E(tᵢ) ∩ E(tⱼ)` and asks whether firing `tⱼ` can lead
//! to a state where `tᵢ` is disabled but some other transition `tₖ` with
//! `λ(tₖ) = λ(tᵢ)` is enabled: then the conflict did not really disable
//! the *signal* — it is fake.

use stgcheck_bdd::{Bdd, BddOps};
use stgcheck_petri::TransId;
use stgcheck_stg::FakeConflict;

use crate::encode::SymbolicStg;

impl SymbolicStg<'_> {
    /// Analyses all labelled direct-conflict pairs over the reachable
    /// markings `r_n = ∃signals.Reached`, mirroring
    /// [`stgcheck_stg::fake_conflicts`] symbolically.
    pub fn check_fake_conflicts(&mut self, r_n: Bdd) -> Vec<FakeConflict> {
        let stg = self.stg();
        let net = stg.net();
        let mut out = Vec::new();
        for (t1, t2) in net.direct_conflict_pairs() {
            let (Some(l1), Some(l2)) = (stg.label(t1), stg.label(t2)) else { continue };
            let others = |this: TransId, that: TransId, lab: stgcheck_stg::TransLabel| {
                stg.transitions_of_edge(lab.signal, lab.polarity)
                    .into_iter()
                    .filter(|&t| t != this && t != that)
                    .collect::<Vec<_>>()
            };
            let others1 = others(t1, t2, l1);
            let others2 = others(t2, t1, l2);

            let e1 = self.cubes(t1).enabled;
            let e2 = self.cubes(t2).enabled;
            let both = {
                let mgr = self.manager_mut();
                let b = mgr.and(e1, e2);
                mgr.and(b, r_n)
            };
            let co_enabled = !both.is_false();
            let direction = |fired: TransId,
                             victim_e: Bdd,
                             rescuers: &[TransId],
                             sym: &mut SymbolicStg<'_>|
             -> bool {
                if rescuers.is_empty() || both.is_false() {
                    return false;
                }
                let after = sym.image_marking(both, fired);
                let disabled = sym.manager_mut().diff(after, victim_e);
                if disabled.is_false() {
                    return false;
                }
                rescuers.iter().any(|&tk| {
                    let ek = sym.cubes(tk).enabled;
                    sym.manager_mut().intersects(disabled, ek)
                })
            };
            let fake_1_by_2 = direction(t2, e1, &others1, self);
            let fake_2_by_1 = direction(t1, e2, &others2, self);
            out.push(FakeConflict { t1, t2, co_enabled, fake_1_by_2, fake_2_by_1 });
        }
        out
    }

    /// The fake conflicts that violate fake-freedom (Section 3.5):
    /// symmetric fakes and asymmetric fakes involving a non-input signal.
    pub fn check_fake_freedom(&mut self, r_n: Bdd) -> Vec<FakeConflict> {
        let conflicts = self.check_fake_conflicts(r_n);
        let stg = self.stg();
        conflicts
            .into_iter()
            .filter(|fc| {
                if fc.is_symmetric_fake() {
                    return true;
                }
                if fc.is_asymmetric_fake() {
                    let noninput = |t: TransId| {
                        stg.label(t).is_some_and(|l| stg.signal_kind(l.signal).is_noninput())
                    };
                    return noninput(fc.t1) || noninput(fc.t2);
                }
                false
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use stgcheck_stg::gen;

    fn markings_of(sym: &mut SymbolicStg<'_>) -> Bdd {
        let code = sym.effective_initial_code().unwrap();
        let t = sym.traverse(code);
        sym.project_markings(t.reached)
    }

    #[test]
    fn fig3_d1_symmetric_fake() {
        let stg = gen::fig3_d1();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let r_n = markings_of(&mut sym);
        let fcs = sym.check_fake_conflicts(r_n);
        assert_eq!(fcs.len(), 1);
        assert!(fcs[0].co_enabled);
        assert!(fcs[0].is_symmetric_fake());
        assert_eq!(sym.check_fake_freedom(r_n).len(), 1);
    }

    #[test]
    fn fig3_d2_has_no_conflicts() {
        let stg = gen::fig3_d2();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let r_n = markings_of(&mut sym);
        assert!(sym.check_fake_conflicts(r_n).is_empty());
        assert!(sym.check_fake_freedom(r_n).is_empty());
    }

    #[test]
    fn mutex_conflict_is_real_not_fake() {
        let stg = gen::mutex_element();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let r_n = markings_of(&mut sym);
        let fcs = sym.check_fake_conflicts(r_n);
        assert_eq!(fcs.len(), 1);
        assert!(fcs[0].co_enabled);
        assert!(!fcs[0].is_fake());
        assert!(sym.check_fake_freedom(r_n).is_empty());
    }

    #[test]
    fn agrees_with_explicit_fake_analysis() {
        use stgcheck_petri::ReachOptions;
        for stg in [
            gen::fig3_d1(),
            gen::fig3_d2(),
            gen::mutex_element(),
            gen::nonpersistent_stg(),
            gen::vme_read(),
        ] {
            let rg = stg.net().reachability_graph(ReachOptions::default()).unwrap();
            let explicit = stgcheck_stg::fake_conflicts(&stg, &rg);
            let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let r_n = markings_of(&mut sym);
            let mut symbolic = sym.check_fake_conflicts(r_n);
            symbolic.sort_by_key(|fc| (fc.t1, fc.t2));
            let mut explicit = explicit;
            explicit.sort_by_key(|fc| (fc.t1, fc.t2));
            assert_eq!(explicit, symbolic, "{}", stg.name());
        }
    }
}
