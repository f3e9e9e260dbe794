//! Label plans: a [`CountingSpec`] compiled once per build into bit-level
//! tests, so abstract states are labeled straight from their occupancy
//! counts without materializing an [`Atom`] per state.
//!
//! A [`LabelPlan`] holds every atom a structure can carry, one *slot*
//! each: the spec's atoms in [`CountingSpec::atom_universe`] order, each
//! with one threshold test (`≥ k`, `= 0`, `= 1`) on one proposition's
//! occupancy, then — for representative structures — the indexed atoms
//! `p[c]` of the tracked copies, grouped by local state. A [`Labeler`]
//! runs the plan over a build's states in id order and hands out atom
//! ids in order of first appearance, exactly as interning each state's
//! [`CountingSpec::atoms_for`] list through a
//! [`icstar_kripke::KripkeBuilder`] would. The frozen structures
//! therefore carry the same atom table and the same labels as that
//! reference labeling.

use std::collections::HashMap;

use icstar_kripke::bits::BitSet;
use icstar_kripke::{Atom, AtomTable, Index};

use crate::labels::{at_least_atom, none_atom, CountingSpec};
use crate::rep::REPRESENTATIVE_INDEX;
use crate::template::GuardedTemplate;

/// The test a counting atom applies to its proposition's occupancy.
#[derive(Clone, Copy, Debug)]
enum Threshold {
    /// `#p ≥ k`.
    AtLeast(u32),
    /// `#p = 0`.
    Zero,
    /// `#p = 1` (`Θ p`).
    One,
}

impl Threshold {
    fn holds(self, count: u32) -> bool {
        match self {
            Threshold::AtLeast(k) => count >= k,
            Threshold::Zero => count == 0,
            Threshold::One => count == 1,
        }
    }
}

/// A counting spec compiled against one template and one number of
/// tracked copies (0 for counter structures).
#[derive(Debug)]
pub(crate) struct LabelPlan {
    /// The atom of each slot.
    atoms: Vec<Atom>,
    /// The local states carrying each proposition the spec tests.
    props: Vec<Vec<u32>>,
    /// `(slot, prop, test)` per counting atom, in `atoms_for` order.
    tests: Vec<(usize, usize, Threshold)>,
    /// `tracked[c][l]`: the slots of the atoms `p[c + 1]` for each `p`
    /// labeling local state `l`, in label order.
    tracked: Vec<Vec<Vec<usize>>>,
}

impl LabelPlan {
    /// Compiles `spec` for structures over `template` that track `width`
    /// copies explicitly.
    pub(crate) fn new(spec: &CountingSpec, template: &GuardedTemplate, width: u32) -> Self {
        let mut plan = LabelPlan {
            atoms: Vec::new(),
            props: Vec::new(),
            tests: Vec::new(),
            tracked: Vec::new(),
        };
        // Distinct atoms share a slot, as they would share an interned id.
        let mut slots: HashMap<Atom, usize> = HashMap::new();
        let mut slot_of = |plan: &mut LabelPlan, atom: Atom| {
            *slots.entry(atom).or_insert_with_key(|atom| {
                plan.atoms.push(atom.clone());
                plan.atoms.len() - 1
            })
        };
        let mut prop_ids: HashMap<&str, usize> = HashMap::new();
        // The spec's atoms in `atom_universe()` order, each with its test.
        let tests = spec
            .at_least_entries()
            .map(|(p, k)| (p, at_least_atom(p, k), Threshold::AtLeast(k)))
            .chain(
                spec.zero_props()
                    .map(|p| (p, none_atom(p), Threshold::Zero)),
            )
            .chain(
                spec.exactly_one_props()
                    .map(|p| (p, Atom::exactly_one(p), Threshold::One)),
            );
        for (p, atom, test) in tests {
            let prop = *prop_ids.entry(p).or_insert_with(|| {
                plan.props.push(template.states_with(p).to_vec());
                plan.props.len() - 1
            });
            let slot = slot_of(&mut plan, atom);
            plan.tests.push((slot, prop, test));
        }
        for c in 0..width {
            let index = REPRESENTATIVE_INDEX + c as Index;
            let by_local = (0..template.num_states() as u32)
                .map(|l| {
                    template
                        .labels(l)
                        .iter()
                        .map(|p| slot_of(&mut plan, Atom::indexed(p.clone(), index)))
                        .collect()
                })
                .collect();
            plan.tracked.push(by_local);
        }
        plan
    }

    /// A labeler for a build of about `states` states.
    pub(crate) fn labeler(&self, states: usize) -> Labeler<'_> {
        let stride = self.atoms.len().div_ceil(64);
        Labeler {
            plan: self,
            ids: vec![UNSEEN; self.atoms.len()],
            order: Vec::new(),
            words: Vec::with_capacity(states * stride),
            stride,
            len: 0,
            prop_counts: vec![0; self.props.len()],
        }
    }
}

/// Marks a slot whose atom has not labeled any state yet.
const UNSEEN: u32 = u32::MAX;

/// Labels one build's states in id order (see the module docs).
pub(crate) struct Labeler<'p> {
    plan: &'p LabelPlan,
    /// The atom id of each slot, [`UNSEEN`] until its first appearance.
    ids: Vec<u32>,
    /// The slot of each atom id.
    order: Vec<usize>,
    /// `stride` words of label bits (over atom ids) per state.
    words: Vec<u64>,
    stride: usize,
    /// States labeled so far.
    len: usize,
    /// Scratch: each plan proposition's occupancy in the current state.
    prop_counts: Vec<u32>,
}

impl Labeler<'_> {
    /// Labels the next state: `counts` is the occupancy of all copies,
    /// `locals` the local states of the tracked copies (empty for
    /// counter structures).
    pub(crate) fn push(&mut self, counts: &[u32], locals: &[u32]) {
        let base = self.words.len();
        self.words.resize(base + self.stride, 0);
        self.len += 1;
        let plan = self.plan;
        for (c, &l) in locals.iter().enumerate() {
            for &slot in &plan.tracked[c][l as usize] {
                self.set(base, slot);
            }
        }
        for (count, qs) in self.prop_counts.iter_mut().zip(&plan.props) {
            *count = qs.iter().map(|&q| counts[q as usize]).sum();
        }
        for &(slot, prop, test) in &plan.tests {
            if test.holds(self.prop_counts[prop]) {
                self.set(base, slot);
            }
        }
    }

    fn set(&mut self, base: usize, slot: usize) {
        let mut id = self.ids[slot];
        if id == UNSEEN {
            id = self.order.len() as u32;
            self.ids[slot] = id;
            self.order.push(slot);
        }
        self.words[base + id as usize / 64] |= 1 << (id % 64);
    }

    /// The atom table (ids in order of first appearance) and the label
    /// of every pushed state, in push order.
    pub(crate) fn finish(self) -> (AtomTable, Vec<BitSet>) {
        let mut atoms = AtomTable::new();
        for &slot in &self.order {
            atoms.intern(self.plan.atoms[slot].clone());
        }
        let nbits = self.order.len();
        let labels = (0..self.len)
            .map(|i| BitSet::from_words(nbits, &self.words[i * self.stride..][..self.stride]))
            .collect();
        (atoms, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::CounterState;
    use crate::template::mutex_template;
    use icstar_kripke::AtomId;

    #[test]
    fn labels_match_the_reference_in_first_appearance_order() {
        let t = mutex_template();
        let spec = CountingSpec::exhaustive(&t, 3).with_zero("ghost");
        let plan = LabelPlan::new(&spec, &t, 0);
        let states = [vec![3, 0, 0], vec![2, 1, 0], vec![1, 1, 1], vec![0, 3, 0]];
        let mut labeler = plan.labeler(states.len());
        for counts in &states {
            labeler.push(counts, &[]);
        }
        let (atoms, labels) = labeler.finish();
        let mut reference = AtomTable::new();
        for (counts, label) in states.iter().zip(&labels) {
            let want = spec.atoms_for_counter(&t, &CounterState::new(counts.clone()));
            let mut ids: Vec<usize> = want
                .into_iter()
                .map(|a| reference.intern(a).idx())
                .collect();
            ids.sort_unstable();
            assert_eq!(label.iter().collect::<Vec<_>>(), ids, "{counts:?}");
        }
        assert_eq!(atoms.len(), reference.len());
        for (id, atom) in reference.iter() {
            assert_eq!(atoms.atom(id), atom);
        }
        // `ghost` labels no local state: its `= 0` atom holds everywhere.
        assert_eq!(atoms.atom(AtomId(4)), &Atom::plain("ghost_eq0"));
    }

    #[test]
    fn tracked_copies_label_before_counting_atoms() {
        let t = mutex_template();
        let spec = CountingSpec::new().with_at_least("crit", 1);
        let plan = LabelPlan::new(&spec, &t, 2);
        let mut labeler = plan.labeler(1);
        // Copy 1 idle, copy 2 critical, one more copy critical elsewhere.
        labeler.push(&[1, 0, 2], &[0, 2]);
        let (atoms, labels) = labeler.finish();
        let names: Vec<String> = atoms.iter().map(|(_, a)| a.to_string()).collect();
        assert_eq!(names, ["idle[1]", "crit[2]", "crit_ge1"]);
        assert_eq!(labels[0].len(), 3);
    }

    #[test]
    fn empty_spec_labels_nothing() {
        let t = mutex_template();
        let plan = LabelPlan::new(&CountingSpec::new(), &t, 0);
        let mut labeler = plan.labeler(2);
        labeler.push(&[1, 0, 0], &[]);
        labeler.push(&[0, 1, 0], &[]);
        let (atoms, labels) = labeler.finish();
        assert!(atoms.is_empty());
        assert_eq!(labels, vec![BitSet::new(0); 2]);
    }
}
