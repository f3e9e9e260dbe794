//! Fair CTL operators (Clarke–Emerson–Sistla Section 5 / Emerson–Lei
//! style).
//!
//! The paper's token ring needs no fairness (token transfers are forced),
//! but most request/grant protocols do: without it, `AF served` fails on
//! the path where the scheduler ignores a client forever. These operators
//! restrict path quantifiers to *fair* paths.
//!
//! A fairness constraint is a [`TransFairness`]: a conjunction of
//! [`FairReq`]s, each met by a path iff infinitely often it is in one of
//! the requirement's *states* **or** traverses one of its *edges*. With
//! no edges a requirement is classic state-set fairness ("visit this set
//! infinitely often"); the edges express **weak (action) fairness** —
//! "while a move group stays enabled, some move of the group is
//! eventually taken" — since "taken" is a property of a *transition*:
//! the states are where the group is released (no move of it enabled),
//! the edges the transitions taking one. The operators use the standard
//! fair-SCC construction:
//!
//! * [`eg_fair`] — `E_fair G f`: backward `f`-closure of the non-trivial
//!   SCCs of the `f`-restricted graph that, for every requirement,
//!   contain a released state or an internal requirement edge. With no
//!   requirements this is the linear-time `EG` of the CTL labeling
//!   algorithm;
//! * [`fair_states`] — states from which some fair path starts
//!   (`E_fair G true`; every state when there are no requirements);
//! * [`eu_fair`], [`ex_fair`] — reduce to the plain operators against
//!   `fair ∧ goal`;
//! * universal operators by duality (`AF_fair f = ¬E_fair G ¬f`).
//!
//! [`Checker::fair`](crate::Checker::fair) evaluates formulas over them.
//!
//! # Examples
//!
//! ```
//! use icstar_kripke::{Atom, KripkeBuilder};
//! use icstar_kripke::bits::BitSet;
//! use icstar_logic::parse_state;
//! use icstar_mc::fair::{FairReq, TransFairness};
//! use icstar_mc::Checker;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // idle -> idle (stutter), idle -> done -> done.
//! let mut b = KripkeBuilder::new();
//! let idle = b.state_labeled("idle", [Atom::plain("idle")]);
//! let done = b.state_labeled("done", [Atom::plain("done")]);
//! b.edge(idle, idle);
//! b.edge(idle, done);
//! b.edge(done, done);
//! let m = b.build(idle)?;
//!
//! // Weak fairness of the idle -> done move: released at `done` (the
//! // move is disabled there), taken on the idle -> done edge.
//! let req = FairReq::new(
//!     BitSet::from_iter_with_capacity(2, [done.idx()]),
//!     [(idle.0, done.0)],
//! );
//! let fair = TransFairness::new([req]);
//!
//! // Plain AF done fails (the idle stutter loop); fair AF done holds.
//! assert!(Checker::fair(&m, &fair).holds(&parse_state("AF done")?)?);
//! assert!(!Checker::new(&m).holds(&parse_state("AF done")?)?);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeSet;

use icstar_kripke::bits::BitSet;
use icstar_kripke::{Kripke, StateId};

use crate::ctl;
use crate::product::tarjan;

/// One transition-based fairness requirement: a path meets it iff
/// infinitely often it visits one of `states` **or** traverses one of
/// `edges`.
///
/// For weak (action) fairness of a move group, `states` is the set where
/// no move of the group is enabled (the requirement is *released* there)
/// and `edges` are the transitions realizing a move of the group.
///
/// `edges` must be edges of the structure the requirement is checked
/// against; pairs outside the transition relation would let the fair-SCC
/// test accept components no actual path can satisfy.
#[derive(Clone, Debug)]
pub struct FairReq {
    states: BitSet,
    edges: BTreeSet<(u32, u32)>,
}

impl FairReq {
    /// A requirement from its released-state set and its edge set.
    pub fn new(states: BitSet, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        FairReq {
            states,
            edges: edges.into_iter().collect(),
        }
    }

    /// The released states (visiting one infinitely often satisfies the
    /// requirement).
    pub fn states(&self) -> &BitSet {
        &self.states
    }

    /// The requirement edges (traversing one infinitely often satisfies
    /// the requirement).
    pub fn edges(&self) -> &BTreeSet<(u32, u32)> {
        &self.edges
    }
}

/// A conjunction of transition-based fairness requirements
/// ([`FairReq`]): a path is fair iff it meets **every** requirement.
#[derive(Clone, Debug, Default)]
pub struct TransFairness {
    reqs: Vec<FairReq>,
}

/// The constraint [`Checker::new`](crate::Checker::new) checks under.
pub(crate) static UNCONSTRAINED: TransFairness = TransFairness { reqs: Vec::new() };

impl TransFairness {
    /// No requirements: every path is fair.
    pub fn unconstrained() -> Self {
        TransFairness::default()
    }

    /// Builds a constraint from requirements.
    ///
    /// # Panics
    ///
    /// Panics if the requirements' state sets disagree on capacity.
    pub fn new(reqs: impl IntoIterator<Item = FairReq>) -> Self {
        let reqs: Vec<FairReq> = reqs.into_iter().collect();
        if let Some(first) = reqs.first() {
            assert!(
                reqs.iter()
                    .all(|r| r.states.capacity() == first.states.capacity()),
                "fairness requirements must share a capacity"
            );
        }
        TransFairness { reqs }
    }

    /// The requirements.
    pub fn reqs(&self) -> &[FairReq] {
        &self.reqs
    }

    /// Whether there are no requirements.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }
}

/// `E_fair G f`: states with a path staying in `f` forever that meets
/// every [`FairReq`] infinitely often.
///
/// Computation: restrict to `f`; an SCC of the restriction hosts a fair
/// cycle iff it has an internal edge and, for every requirement,
/// contains a released state or an internal requirement edge; take the
/// backward `f`-closure of those SCCs. One SCC pass suffices: every fair
/// SCC lies wholly inside its own closure, so the closure has the same
/// fair SCCs again.
pub fn eg_fair(m: &Kripke, f: &BitSet, fair: &TransFairness) -> BitSet {
    let succs = |u: u32| m.successors(StateId(u)).iter().map(|t| t.0);
    let (comp, count) = tarjan(m.num_states(), |u| f.contains(u as usize), succs);
    let mut fair_comp = vec![false; count];
    for s in f.iter() {
        if succs(s as u32).any(|t| comp[t as usize] == comp[s]) {
            fair_comp[comp[s] as usize] = true;
        }
    }
    for req in fair.reqs() {
        let mut hit = vec![false; count];
        for s in req.states().iter() {
            if f.contains(s) {
                hit[comp[s] as usize] = true;
            }
        }
        // An SCC-internal requirement edge can be traversed
        // infinitely often by a path cycling through the component.
        for &(u, v) in req.edges() {
            let c = comp[u as usize];
            if c != u32::MAX && c == comp[v as usize] {
                hit[c as usize] = true;
            }
        }
        for (fc, h) in fair_comp.iter_mut().zip(hit) {
            *fc &= h;
        }
    }
    let seeds = BitSet::from_iter_with_capacity(
        m.num_states(),
        f.iter().filter(|&s| fair_comp[comp[s] as usize]),
    );
    ctl::eu(m, f, &seeds)
}

/// The states from which some fair path starts (`E_fair G true`). With no
/// requirements every path is fair and, the transition relation being
/// total, every state starts one: the full set, at no SCC pass.
pub fn fair_states(m: &Kripke, fair: &TransFairness) -> BitSet {
    if fair.is_empty() {
        return ctl::full_set(m);
    }
    eg_fair(m, &ctl::full_set(m), fair)
}

/// `E_fair[f U g]`: a fair path satisfying the until. Equals
/// `E[f U (g ∧ fair)]` where `fair` marks fair-path starts.
pub fn eu_fair(m: &Kripke, f: &BitSet, g: &BitSet, fair: &TransFairness) -> BitSet {
    let mut target = g.clone();
    target.intersect_with(&fair_states(m, fair));
    ctl::eu(m, f, &target)
}

/// `EX_fair f`: some successor starting a fair path satisfies `f`.
pub fn ex_fair(m: &Kripke, f: &BitSet, fair: &TransFairness) -> BitSet {
    let mut target = f.clone();
    target.intersect_with(&fair_states(m, fair));
    ctl::pre_exists(m, &target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_kripke::{Atom, KripkeBuilder};

    /// A scheduler that may ignore client 2 forever:
    /// s0 (serve nobody) -> s1 (serve 1) -> s0, s0 -> s2 (serve 2) -> s0.
    fn scheduler() -> (Kripke, BitSet, BitSet) {
        let mut b = KripkeBuilder::new();
        let s0 = b.state_labeled("idle", [Atom::plain("idle")]);
        let s1 = b.state_labeled("serve1", [Atom::plain("g1")]);
        let s2 = b.state_labeled("serve2", [Atom::plain("g2")]);
        b.edge(s0, s1);
        b.edge(s1, s0);
        b.edge(s0, s2);
        b.edge(s2, s0);
        let m = b.build(s0).unwrap();
        let g1 = BitSet::from_iter_with_capacity(3, [1usize]);
        let g2 = BitSet::from_iter_with_capacity(3, [2usize]);
        (m, g1, g2)
    }

    /// The states satisfying `src` over the fair paths of `m`.
    fn sat(m: &Kripke, fair: &TransFairness, src: &str) -> BitSet {
        let f = icstar_logic::parse_state(src).unwrap();
        (*crate::Checker::fair(m, fair).sat(&f).unwrap()).clone()
    }

    #[test]
    fn unconstrained_fairness_is_plain_ctl() {
        let (m, g1, _) = scheduler();
        let fair = TransFairness::unconstrained();
        assert_eq!(sat(&m, &fair, "AF g1"), {
            let mut n = ctl::eg(&m, &{
                let mut c = g1.clone();
                c.complement();
                c
            });
            n.complement();
            n
        });
        assert_eq!(fair_states(&m, &fair), ctl::full_set(&m));
    }

    #[test]
    fn fairness_rescues_liveness() {
        let (m, _, g2) = scheduler();
        // Plain AF g2 fails at s0: the path (s0 s1)^ω never serves 2.
        let plain_af_g2 = {
            let mut n = g2.clone();
            n.complement();
            let mut bad = ctl::eg(&m, &n);
            bad.complement();
            bad
        };
        assert!(!plain_af_g2.contains(0));
        // Under the fairness constraint "serve 2 infinitely often", AF g2
        // holds everywhere.
        let fair = TransFairness::new([FairReq::new(g2.clone(), [])]);
        let fair_af = sat(&m, &fair, "AF g2");
        assert!(fair_af.contains(0));
        assert!(fair_af.contains(1));
        // And EG ¬g2 under that fairness is empty.
        let mut ng2 = g2.clone();
        ng2.complement();
        assert!(eg_fair(&m, &ng2, &fair).is_empty());
        // g1's liveness under g2-fairness: serving 1 infinitely often is
        // not required, so AF g1 still fails at s0 (fair path (s0 s2)^ω).
        let fair_af_g1 = sat(&m, &fair, "AF g1");
        assert!(!fair_af_g1.contains(0));
    }

    #[test]
    fn multiple_constraints_intersect() {
        let (m, g1, g2) = scheduler();
        // Fair = serve 1 AND serve 2 infinitely often: both livenesses.
        let fair = TransFairness::new([FairReq::new(g1.clone(), []), FairReq::new(g2.clone(), [])]);
        assert!(sat(&m, &fair, "AF g1").contains(0));
        assert!(sat(&m, &fair, "AF g2").contains(0));
        // Fair states: the whole (strongly connected) graph.
        assert_eq!(fair_states(&m, &fair).len(), 3);
    }

    #[test]
    fn unsatisfiable_fairness_empties_everything() {
        let (m, _, _) = scheduler();
        // Constraint set empty: no path can visit it infinitely often.
        let fair = TransFairness::new([FairReq::new(BitSet::new(3), [])]);
        assert!(fair_states(&m, &fair).is_empty());
        // The goal: state 0, `idle`.
        let goal = BitSet::from_iter_with_capacity(3, [0usize]);
        // E_fair[true U goal] is empty too (no fair continuation).
        assert!(eu_fair(&m, &ctl::full_set(&m), &goal, &fair).is_empty());
        // AF_fair trivially holds (no fair paths to violate it).
        assert_eq!(sat(&m, &fair, "AF idle").len(), 3);
    }

    #[test]
    fn eg_fair_requires_containment() {
        let (m, g1, g2) = scheduler();
        // E_fair G ¬g1 with fairness g2: loop s0 <-> s2 avoids g1 and
        // serves 2 infinitely often.
        let mut ng1 = g1.clone();
        ng1.complement();
        let fair = TransFairness::new([FairReq::new(g2, [])]);
        let r = eg_fair(&m, &ng1, &fair);
        assert!(r.contains(0));
        assert!(r.contains(2));
        assert!(!r.contains(1)); // s1 is a g1 state
    }

    #[test]
    fn ex_fair_filters_successors() {
        let (m, _, g2) = scheduler();
        // Make only s2's lineage fair.
        let fair = TransFairness::new([FairReq::new(g2.clone(), [])]);
        // EX_fair g2: a successor in g2 that starts a fair path: s0 -> s2.
        let r = ex_fair(&m, &g2, &fair);
        assert!(r.contains(0));
        assert!(!r.contains(1));
    }

    #[test]
    #[should_panic(expected = "share a capacity")]
    fn mismatched_capacities_rejected() {
        TransFairness::new([
            FairReq::new(BitSet::new(3), []),
            FairReq::new(BitSet::new(4), []),
        ]);
    }

    #[test]
    #[should_panic(expected = "share a capacity")]
    fn trans_mismatched_capacities_rejected() {
        TransFairness::new([
            FairReq::new(BitSet::new(3), [(0u32, 1u32)]),
            FairReq::new(BitSet::new(4), [(1u32, 0u32)]),
        ]);
    }

    /// idle -> idle (stutter), idle -> done -> done: weak fairness of the
    /// idle -> done move forbids stuttering forever.
    fn stutter_escape() -> (Kripke, BitSet, TransFairness) {
        let mut b = KripkeBuilder::new();
        let idle = b.state_labeled("idle", [Atom::plain("idle")]);
        let done = b.state_labeled("done", [Atom::plain("done")]);
        b.edge(idle, idle);
        b.edge(idle, done);
        b.edge(done, done);
        let m = b.build(idle).unwrap();
        let done_set = BitSet::from_iter_with_capacity(2, [1usize]);
        let fair = TransFairness::new([FairReq::new(done_set.clone(), [(0u32, 1u32)])]);
        (m, done_set, fair)
    }

    #[test]
    fn edge_fairness_rescues_stutter_liveness() {
        let (m, done, fair) = stutter_escape();
        // Plain AF done fails at idle (the stutter loop) ...
        let mut ndone = done.clone();
        ndone.complement();
        assert!(ctl::eg(&m, &ndone).contains(0));
        // ... but no fair path stutters forever: the idle self-loop SCC has
        // neither a released state nor the idle -> done edge internal.
        assert!(eg_fair(&m, &ndone, &fair).is_empty());
        let af = sat(&m, &fair, "AF done");
        assert!(af.contains(0) && af.contains(1));
        // Every state still starts a fair path.
        assert_eq!(fair_states(&m, &fair).len(), 2);
    }

    #[test]
    fn internal_edge_only_counts_inside_its_scc() {
        let (m, _, _) = scheduler();
        // Require the s1 -> s0 edge infinitely often: forces serving 1.
        let fair = TransFairness::new([FairReq::new(BitSet::new(3), [(1u32, 0u32)])]);
        let g1 = BitSet::from_iter_with_capacity(3, [1usize]);
        assert!(sat(&m, &fair, "AF g1").contains(0));
        // Restricted to ¬g1, the edge is not internal to any SCC: no fair
        // path avoids g1 forever.
        let mut ng1 = g1.clone();
        ng1.complement();
        assert!(eg_fair(&m, &ng1, &fair).is_empty());
        // Inside the s0 <-> s1 component the edge is internal, and it is
        // the only thing meeting the requirement there (no state is
        // released): every state starts a fair path, and (s0 s1)^ω
        // avoids g2 fairly.
        assert_eq!(fair_states(&m, &fair).len(), 3);
        assert!(sat(&m, &fair, "EG !g2").contains(0));
    }

    mod checker {
        use super::*;
        use crate::McError;
        use icstar_logic::parse_state;
        use std::rc::Rc;

        fn check(m: &Kripke, fair: &TransFairness, f: &str) -> bool {
            let parsed = parse_state(f).unwrap();
            crate::Checker::fair(m, fair).holds(&parsed).unwrap()
        }

        #[test]
        fn unconstrained_matches_plain_checker() {
            // A requirement every state meets constrains nothing, but its
            // answers still come through the fair-SCC computation.
            let (m, _, _) = scheduler();
            let fair = TransFairness::new([FairReq::new(ctl::full_set(&m), [])]);
            for f in [
                "AF g1",
                "AF g2",
                "AG (idle -> EX g1)",
                "E[idle U g2]",
                "A[idle U g2]",
                "EG !g2",
                "AG EF idle",
                "AG AF idle",
                "EX g1",
                "AX (g1 | g2)",
                "E[g1 R !g2]",
                "A[g2 R !g1]",
                "EF (g1 & EX idle)",
            ] {
                let parsed = parse_state(f).unwrap();
                let plain = crate::Checker::new(&m).holds(&parsed).unwrap();
                assert_eq!(check(&m, &fair, f), plain, "formula {f}");
            }
        }

        #[test]
        fn fair_liveness_through_formulas() {
            let (m, _, g2) = scheduler();
            let fair = TransFairness::new([FairReq::new(BitSet::new(3), [])]);
            // Unsatisfiable fairness (empty set, no edges): AF holds
            // vacuously, EF fails.
            assert!(check(&m, &fair, "AF g2"));
            assert!(!check(&m, &fair, "EF g2"));
            // Serve-2 fairness: AF g2 and AG AF g2 hold; EG !g2 fails.
            let fair = TransFairness::new([FairReq::new(g2, [])]);
            assert!(check(&m, &fair, "AF g2"));
            assert!(check(&m, &fair, "AG AF g2"));
            assert!(!check(&m, &fair, "EG !g2"));
            // But g1 can still starve on the fair path (s0 s2)^ω.
            assert!(!check(&m, &fair, "AF g1"));
        }

        #[test]
        fn edge_fairness_through_formulas() {
            let (m, _, fair) = stutter_escape();
            assert!(check(&m, &fair, "AF done"));
            assert!(check(&m, &fair, "AG AF done"));
            assert!(!check(&m, &fair, "EG idle"));
            // Safety is untouched by (machine-closed) weak fairness.
            assert!(check(&m, &fair, "EF done"));
            assert!(check(&m, &fair, "AG (idle | done)"));
            // A [idle U done]: every fair path eventually leaves idle.
            assert!(check(&m, &fair, "A[idle U done]"));
            // Duals.
            assert!(check(&m, &fair, "A[done R (idle | done)]"));
            assert!(check(&m, &fair, "E[done R (idle | done)]"));
            assert!(check(&m, &fair, "AX (idle | done)"));
        }

        #[test]
        fn non_ctl_rejected() {
            // Under requirements the Büchi route is closed; without them
            // it answers.
            let (m, _, g2) = scheduler();
            let fair = TransFairness::new([FairReq::new(g2, [])]);
            for f in ["E(F G g1)", "A(F g1 & F g2)", "E(g1 U (g2 U idle))"] {
                let parsed = parse_state(f).unwrap();
                assert!(crate::Checker::new(&m).holds(&parsed).is_ok());
                let err = crate::Checker::fair(&m, &fair).holds(&parsed).unwrap_err();
                assert!(
                    matches!(err, McError::NotCtl(_)),
                    "formula {f} gave {err:?}"
                );
            }
            let path = icstar_logic::parse_path("F g1").unwrap();
            assert!(matches!(
                crate::Checker::fair(&m, &fair).exists_witness(StateId(0), &path),
                Err(McError::NotCtl(_))
            ));
        }

        #[test]
        fn free_variables_and_quantifiers_rejected() {
            let (m, _, _) = scheduler();
            let fair = TransFairness::unconstrained();
            let free = parse_state("AF crit[i]").unwrap();
            assert!(matches!(
                crate::Checker::fair(&m, &fair).holds(&free),
                Err(McError::FreeIndexVariable(_))
            ));
            let quant = parse_state("forall i. AF crit[i]").unwrap();
            assert!(matches!(
                crate::Checker::fair(&m, &fair).holds(&quant),
                Err(McError::QuantifierWithoutIndexSet(_))
            ));
        }

        #[test]
        fn cache_is_shared_across_queries() {
            let (m, _, g2) = scheduler();
            let fair = TransFairness::new([FairReq::new(g2, [])]);
            let mut chk = crate::Checker::fair(&m, &fair);
            let f = parse_state("AF g2").unwrap();
            let a = chk.sat(&f).unwrap();
            let b = chk.sat(&f).unwrap();
            assert!(Rc::ptr_eq(&a, &b));
            assert!(chk.holds_at(StateId(2), &f).unwrap());
            assert_eq!(chk.structure().num_states(), 3);
        }
    }
}
