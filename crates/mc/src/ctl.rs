//! The CTL fixpoint primitives of the Clarke–Emerson–Sistla labeling
//! algorithm — the "temporal logic model checking algorithm" the paper
//! invokes for its case study (Clarke, Emerson & Sistla 1986).
//!
//! Each primitive maps state sets to state sets over a fixed structure:
//!
//! * [`pre_exists`] — `EX`: states with *some* successor in the set;
//! * [`pre_all`] — `AX`: states with *all* successors in the set;
//! * [`eu`] — `E[f U g]` as a least fixpoint, by a backward worklist in
//!   time linear in `|S| + |R|`;
//! * [`eg`] — `EG f` as a greatest fixpoint, one `|S| + |R|` round per
//!   state it drops. The checker computes `EG` in linear time by SCCs
//!   instead ([`crate::fair::eg_fair`]); this is the independent
//!   reference the tests compare that against.

use icstar_kripke::bits::BitSet;
use icstar_kripke::{Kripke, StateId};

/// States with at least one successor in `set` (the `EX` modality).
pub fn pre_exists(m: &Kripke, set: &BitSet) -> BitSet {
    let mut out = BitSet::new(m.num_states());
    for bit in set.iter() {
        for &p in m.predecessors(StateId(bit as u32)) {
            out.insert(p.idx());
        }
    }
    out
}

/// States all of whose successors are in `set` (the `AX` modality).
///
/// Since the transition relation is total, this is `¬EX¬set`.
pub fn pre_all(m: &Kripke, set: &BitSet) -> BitSet {
    let mut complement = set.clone();
    complement.complement();
    let mut out = pre_exists(m, &complement);
    out.complement();
    out
}

/// `E[f U g]`: states from which some path reaches a `g`-state passing
/// only through `f`-states. Least fixpoint `μZ. g ∨ (f ∧ EX Z)`,
/// computed with a backward worklist.
pub fn eu(m: &Kripke, f: &BitSet, g: &BitSet) -> BitSet {
    let mut out = g.clone();
    let mut work: Vec<StateId> = g.iter().map(|b| StateId(b as u32)).collect();
    while let Some(s) = work.pop() {
        for &p in m.predecessors(s) {
            if f.contains(p.idx()) && !out.contains(p.idx()) {
                out.insert(p.idx());
                work.push(p);
            }
        }
    }
    out
}

/// `EG f`: states with some path staying in `f` forever. Greatest
/// fixpoint `νZ. f ∧ EX Z`.
pub fn eg(m: &Kripke, f: &BitSet) -> BitSet {
    let mut z = f.clone();
    loop {
        let mut next = pre_exists(m, &z);
        next.intersect_with(f);
        if next == z {
            return z;
        }
        z = next;
    }
}

/// All states, as a set (`true`).
pub fn full_set(m: &Kripke) -> BitSet {
    let mut s = BitSet::new(m.num_states());
    s.complement();
    s
}

/// No states (`false`).
pub fn empty_set(m: &Kripke) -> BitSet {
    BitSet::new(m.num_states())
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_kripke::{Atom, KripkeBuilder};

    /// s0(p) -> s1(p) -> s2(q) -> s2 ; s1 -> s0, s0 -> s3(r) -> s3
    fn diamond() -> (Kripke, BitSet, BitSet, BitSet) {
        let mut b = KripkeBuilder::new();
        let s0 = b.state_labeled("s0", [Atom::plain("p")]);
        let s1 = b.state_labeled("s1", [Atom::plain("p")]);
        let s2 = b.state_labeled("s2", [Atom::plain("q")]);
        let s3 = b.state_labeled("s3", [Atom::plain("r")]);
        b.edge(s0, s1);
        b.edge(s1, s2);
        b.edge(s2, s2);
        b.edge(s1, s0);
        b.edge(s0, s3);
        b.edge(s3, s3);
        let m = b.build(s0).unwrap();
        let mk = |atoms: &[u32]| {
            BitSet::from_iter_with_capacity(m.num_states(), atoms.iter().map(|&x| x as usize))
        };
        let p = mk(&[0, 1]);
        let q = mk(&[2]);
        let r = mk(&[3]);
        (m, p, q, r)
    }

    #[test]
    fn pre_exists_basic() {
        let (m, _, q, _) = diamond();
        let ex_q = pre_exists(&m, &q);
        // predecessors of s2: s1 and s2 itself.
        assert_eq!(ex_q.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn pre_all_uses_totality() {
        let (m, p, ..) = diamond();
        // AX p: all successors labeled p. s0 -> {s1,s3}: no. s1 -> {s2,s0}: no.
        // s2 -> {s2}: no. s3 -> {s3}: no.
        let ax_p = pre_all(&m, &p);
        assert!(ax_p.is_empty());
        // AX (q|r|p on successors of s2) — s2's only successor is s2 (q).
        let (m, _, q, _) = diamond();
        let ax_q = pre_all(&m, &q);
        assert_eq!(ax_q.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn eu_reaches_through_f() {
        let (m, p, q, _) = diamond();
        // E[p U q]: s2 trivially; s1 (step to s2); s0 (s0->s1->s2).
        let r = eu(&m, &p, &q);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn eu_blocked_without_f() {
        let (m, _, q, _) = diamond();
        let none = empty_set(&m);
        let r = eu(&m, &none, &q);
        // only the q-states themselves.
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn eg_needs_a_cycle() {
        let (m, p, q, r) = diamond();
        // EG p: s0 <-> s1 cycle stays in p.
        let egp = eg(&m, &p);
        assert_eq!(egp.iter().collect::<Vec<_>>(), vec![0, 1]);
        // EG q: s2 self-loop.
        assert_eq!(eg(&m, &q).iter().collect::<Vec<_>>(), vec![2]);
        // EG r: s3 self-loop.
        assert_eq!(eg(&m, &r).iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn full_and_empty() {
        let (m, ..) = diamond();
        assert_eq!(full_set(&m).len(), 4);
        assert!(empty_set(&m).is_empty());
    }

    /// `EG f` as the checker computes it: by SCCs, with no fairness
    /// requirements.
    fn eg_by_sccs(m: &Kripke, f: &BitSet) -> BitSet {
        crate::fair::eg_fair(m, f, &crate::fair::TransFairness::unconstrained())
    }

    #[test]
    fn eg_by_sccs_agrees_with_fixpoint() {
        let (m, p, q, r) = diamond();
        for set in [&p, &q, &r, &full_set(&m), &empty_set(&m)] {
            assert_eq!(eg(&m, set), eg_by_sccs(&m, set));
        }
        // Union sets too.
        let mut pq = p.clone();
        pq.union_with(&q);
        assert_eq!(eg(&m, &pq), eg_by_sccs(&m, &pq));
    }

    #[test]
    fn eg_by_sccs_agrees_on_random_structures() {
        use icstar_kripke::gen::{random_kripke, RandomConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let m = random_kripke(
                &mut rng,
                &RandomConfig {
                    states: 3 + trial % 6,
                    ..RandomConfig::default()
                },
            );
            // Random subset as f.
            let mut f = BitSet::new(m.num_states());
            for s in m.states() {
                if !(s.0 as usize + trial).is_multiple_of(3) {
                    f.insert(s.idx());
                }
            }
            assert_eq!(eg(&m, &f), eg_by_sccs(&m, &f), "trial {trial}");
        }
    }
}
