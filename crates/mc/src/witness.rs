//! Witness and counterexample extraction for the CTL operators.
//!
//! When a property fails, a verifier is only as useful as its
//! counterexample. These helpers produce concrete evidence:
//!
//! * [`ef_witness`] — a finite path to a target state (`EF f`, or a
//!   counterexample to `AG ¬f`);
//! * [`eg_witness`] — a lasso staying inside a set forever (`EG f`, or a
//!   counterexample to `AF ¬f`).

use std::collections::VecDeque;

use icstar_kripke::bits::BitSet;
use icstar_kripke::path::Lasso;
use icstar_kripke::{Kripke, StateId};

/// A shortest path from `from` to any state in `target`, or `None` if
/// unreachable. Witnesses `EF target` at `from`.
pub fn ef_witness(m: &Kripke, from: StateId, target: &BitSet) -> Option<Vec<StateId>> {
    if target.contains(from.idx()) {
        return Some(vec![from]);
    }
    let n = m.num_states();
    let mut prev = vec![u32::MAX; n];
    prev[from.idx()] = from.0;
    let mut queue = VecDeque::from([from]);
    while let Some(s) = queue.pop_front() {
        for &t in m.successors(s) {
            if prev[t.idx()] != u32::MAX {
                continue;
            }
            prev[t.idx()] = s.0;
            if target.contains(t.idx()) {
                let mut path = vec![t];
                let mut cur = t;
                while cur != from {
                    cur = StateId(prev[cur.idx()]);
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(t);
        }
    }
    None
}

/// A lasso from `from` that stays inside `good` forever, or `None`.
/// Witnesses `EG good` at `from`; `good` must be the `EG` fixpoint (every
/// state of `good` has a successor in `good`), e.g. the output of
/// [`crate::fair::eg_fair`].
pub fn eg_witness(m: &Kripke, from: StateId, good: &BitSet) -> Option<Lasso> {
    if !good.contains(from.idx()) {
        return None;
    }
    // Walk inside `good` until a state repeats; every state in the EG
    // fixpoint has a successor inside it, so this terminates in ≤ |S|
    // steps.
    let mut path = vec![from];
    let mut position = vec![usize::MAX; m.num_states()];
    position[from.idx()] = 0;
    loop {
        let cur = *path.last().expect("path non-empty");
        let next = m
            .successors(cur)
            .iter()
            .copied()
            .find(|t| good.contains(t.idx()))?;
        if position[next.idx()] != usize::MAX {
            let k = position[next.idx()];
            return Some(Lasso::new(path[..k].to_vec(), path[k..].to_vec()));
        }
        position[next.idx()] = path.len();
        path.push(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctl;
    use icstar_kripke::{Atom, KripkeBuilder};

    fn m() -> Kripke {
        // s0 -> s1 -> s2(goal); s1 -> s1; s2 -> s2; s0 -> s3(p) -> s0
        let mut b = KripkeBuilder::new();
        let s0 = b.state_labeled("s0", [Atom::plain("p")]);
        let s1 = b.state("s1");
        let s2 = b.state_labeled("s2", [Atom::plain("goal")]);
        let s3 = b.state_labeled("s3", [Atom::plain("p")]);
        b.edge(s0, s1);
        b.edge(s1, s2);
        b.edge(s1, s1);
        b.edge(s2, s2);
        b.edge(s0, s3);
        b.edge(s3, s0);
        b.build(s0).unwrap()
    }

    #[test]
    fn ef_witness_is_shortest() {
        let m = m();
        let goal = BitSet::from_iter_with_capacity(4, [2usize]);
        let path = ef_witness(&m, StateId(0), &goal).unwrap();
        assert_eq!(path, vec![StateId(0), StateId(1), StateId(2)]);
    }

    #[test]
    fn ef_witness_trivial_and_absent() {
        let m = m();
        let goal = BitSet::from_iter_with_capacity(4, [0usize]);
        assert_eq!(ef_witness(&m, StateId(0), &goal).unwrap(), vec![StateId(0)]);
        // s2 cannot reach s3.
        let unreachable = BitSet::from_iter_with_capacity(4, [3usize]);
        assert!(ef_witness(&m, StateId(2), &unreachable).is_none());
    }

    #[test]
    fn eg_witness_produces_valid_lasso() {
        let m = m();
        // EG p: the s0 <-> s3 loop.
        let p = BitSet::from_iter_with_capacity(4, [0usize, 3]);
        let fix = ctl::eg(&m, &p);
        let lasso = eg_witness(&m, StateId(0), &fix).unwrap();
        assert!(lasso.is_path_of(&m));
        for &s in lasso.stem.iter().chain(lasso.cycle.iter()) {
            assert!(p.contains(s.idx()));
        }
    }

    #[test]
    fn eg_witness_none_outside_fixpoint() {
        let m = m();
        let p = BitSet::from_iter_with_capacity(4, [0usize, 3]);
        let fix = ctl::eg(&m, &p);
        assert!(eg_witness(&m, StateId(1), &fix).is_none());
    }
}
