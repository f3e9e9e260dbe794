//! Indexed Kripke structures (Section 4 of the paper).
//!
//! An indexed structure `M = (AP, IP, I, S, R, L, s₀)` extends a plain
//! Kripke structure with a finite index set `I ⊆ ℕ`; labels may contain
//! indexed propositions `A_c` for `c ∈ I`. This module provides:
//!
//! * [`IndexedKripke`] — the structure plus its index set;
//! * the reduction `M|i` ([`IndexedKripke::reduce`]): drop every indexed
//!   proposition whose index is not `i`, renaming `A_i` to the canonical
//!   index so reductions of different structures share a label universe;
//! * the `Θ` ("exactly one") closure ([`IndexedKripke::with_exactly_one`]):
//!   add the special non-indexed atom `one(P)` to every state where exactly
//!   one index value satisfies `P`.

use std::collections::HashMap;

use crate::atom::{Atom, AtomId, AtomTable, Index, CANONICAL_INDEX};
use crate::bits::BitSet;
use crate::structure::{Kripke, StructureError};

/// A Kripke structure together with its index set `I`.
///
/// # Examples
///
/// ```
/// use icstar_kripke::{Atom, IndexedKripke, KripkeBuilder};
///
/// let mut b = KripkeBuilder::new();
/// let s = b.state_labeled("s", [Atom::indexed("t", 1), Atom::plain("go")]);
/// let t = b.state_labeled("t", [Atom::indexed("t", 2)]);
/// b.edge(s, t);
/// b.edge(t, s);
/// let m = IndexedKripke::new(b.build(s)?, vec![1, 2]);
///
/// // M|1 keeps t[1] (canonicalized) and the plain atom, drops t[2].
/// let m1 = m.reduce(1);
/// assert_eq!(m1.label(s).len(), 2);
/// assert_eq!(m1.label(t).len(), 0);
/// # Ok::<(), icstar_kripke::StructureError>(())
/// ```
#[derive(Clone, Debug)]
pub struct IndexedKripke {
    kripke: Kripke,
    indices: Vec<Index>,
}

impl IndexedKripke {
    /// Wraps a structure with its index set.
    ///
    /// # Panics
    ///
    /// Panics if `indices` contains duplicates or the canonical index, or
    /// if some label mentions an index outside `indices`.
    pub fn new(kripke: Kripke, mut indices: Vec<Index>) -> Self {
        indices.sort_unstable();
        assert!(
            indices.windows(2).all(|w| w[0] != w[1]),
            "duplicate index values"
        );
        assert!(
            !indices.contains(&CANONICAL_INDEX),
            "the canonical index is reserved for reductions"
        );
        for (_, atom) in kripke.atoms().iter() {
            if let Some(i) = atom.index() {
                assert!(
                    indices.binary_search(&i).is_ok(),
                    "label atom {atom} uses index {i} outside the index set"
                );
            }
        }
        IndexedKripke { kripke, indices }
    }

    /// The underlying Kripke structure.
    pub fn kripke(&self) -> &Kripke {
        &self.kripke
    }

    /// The index set `I`, sorted ascending.
    pub fn indices(&self) -> &[Index] {
        &self.indices
    }

    /// Consumes the wrapper, returning the underlying structure.
    pub fn into_kripke(self) -> Kripke {
        self.kripke
    }

    /// The reduction `M|i`: identical to `M` except that the labeling keeps
    /// only non-indexed atoms and atoms indexed by `i`, the latter renamed
    /// to the canonical index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not in the index set.
    pub fn reduce(&self, i: Index) -> Kripke {
        assert!(
            self.indices.binary_search(&i).is_ok(),
            "index {i} not in the index set"
        );
        let mut atoms = AtomTable::new();
        // Map old atom ids to new ids (or None if dropped).
        let mut remap: Vec<Option<AtomId>> = Vec::with_capacity(self.kripke.atoms().len());
        for (_, atom) in self.kripke.atoms().iter() {
            let keep = match atom.index() {
                None => Some(atom.clone()),
                Some(c) if c == i => Some(atom.with_index(CANONICAL_INDEX)),
                Some(_) => None,
            };
            remap.push(keep.map(|a| atoms.intern(a)));
        }
        let nbits = atoms.len();
        let labels: Vec<BitSet> = self
            .kripke
            .states()
            .map(|s| {
                let mut set = BitSet::new(nbits);
                for bit in self.kripke.label(s).iter() {
                    if let Some(new_id) = remap[bit] {
                        set.insert(new_id.idx());
                    }
                }
                set
            })
            .collect();
        self.kripke.relabeled(atoms, labels)
    }

    /// Adds `Θ P` ("exactly one") atoms for each proposition name in
    /// `props`: state `s` gets `one(P)` iff exactly one `c ∈ I` has
    /// `P_c ∈ L(s)`.
    ///
    /// # Errors
    ///
    /// Propagates structural errors (cannot occur for valid inputs).
    pub fn with_exactly_one(
        &self,
        props: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<IndexedKripke, StructureError> {
        let props: Vec<String> = props.into_iter().map(Into::into).collect();
        // Collect, per prop name, the atom ids of its indexed instances.
        let mut per_prop: HashMap<&str, Vec<AtomId>> = HashMap::new();
        for (id, atom) in self.kripke.atoms().iter() {
            if atom.is_indexed() {
                if let Some(v) = props.iter().find(|p| p.as_str() == atom.name()) {
                    per_prop.entry(v.as_str()).or_default().push(id);
                }
            }
        }
        let mut atoms = self.kripke.atoms().clone();
        let theta_ids: Vec<(String, AtomId)> = props
            .iter()
            .map(|p| (p.clone(), atoms.intern(Atom::exactly_one(p.clone()))))
            .collect();
        let nbits = atoms.len();
        let labels: Vec<BitSet> = self
            .kripke
            .states()
            .map(|s| {
                let mut set = BitSet::new(nbits);
                for bit in self.kripke.label(s).iter() {
                    set.insert(bit);
                }
                for (p, theta) in &theta_ids {
                    let count = per_prop
                        .get(p.as_str())
                        .map(|ids| {
                            ids.iter()
                                .filter(|id| self.kripke.label(s).contains(id.idx()))
                                .count()
                        })
                        .unwrap_or(0);
                    if count == 1 {
                        set.insert(theta.idx());
                    }
                }
                set
            })
            .collect();
        Ok(IndexedKripke {
            kripke: self.kripke.relabeled(atoms, labels),
            indices: self.indices.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KripkeBuilder;
    use crate::structure::StateId;

    fn sample() -> IndexedKripke {
        let mut b = KripkeBuilder::new();
        let s0 = b.state_labeled(
            "s0",
            [
                Atom::indexed("t", 1),
                Atom::indexed("n", 2),
                Atom::plain("go"),
            ],
        );
        let s1 = b.state_labeled("s1", [Atom::indexed("t", 1), Atom::indexed("t", 2)]);
        b.edge(s0, s1);
        b.edge(s1, s0);
        IndexedKripke::new(b.build(s0).unwrap(), vec![1, 2])
    }

    #[test]
    fn reduce_keeps_plain_and_own_index() {
        let m = sample();
        let r = m.reduce(1);
        let s0 = StateId(0);
        assert!(r.satisfies_atom(s0, &Atom::indexed("t", CANONICAL_INDEX)));
        assert!(r.satisfies_atom(s0, &Atom::plain("go")));
        assert!(!r.satisfies_atom(s0, &Atom::indexed("n", CANONICAL_INDEX)));
        assert_eq!(r.label(s0).len(), 2);
        // Graph unchanged.
        assert_eq!(r.num_transitions(), 2);
        assert_eq!(r.initial(), m.kripke().initial());
    }

    #[test]
    fn reduce_to_other_index() {
        let m = sample();
        let r = m.reduce(2);
        let s0 = StateId(0);
        assert!(r.satisfies_atom(s0, &Atom::indexed("n", CANONICAL_INDEX)));
        assert!(!r.satisfies_atom(s0, &Atom::indexed("t", CANONICAL_INDEX)));
    }

    #[test]
    #[should_panic(expected = "not in the index set")]
    fn reduce_unknown_index_panics() {
        sample().reduce(7);
    }

    #[test]
    fn exactly_one_marks_unique_holders() {
        let m = sample().with_exactly_one(["t"]).unwrap();
        let k = m.kripke();
        // s0: only t[1] — exactly one.
        assert!(k.satisfies_atom(StateId(0), &Atom::exactly_one("t")));
        // s1: t[1] and t[2] — two holders, not exactly one.
        assert!(!k.satisfies_atom(StateId(1), &Atom::exactly_one("t")));
    }

    #[test]
    fn exactly_one_with_zero_holders() {
        let mut b = KripkeBuilder::new();
        let s = b.state_labeled("s", [Atom::plain("x")]);
        b.edge(s, s);
        let m = IndexedKripke::new(b.build(s).unwrap(), vec![1]);
        let m = m.with_exactly_one(["t"]).unwrap();
        assert!(!m.kripke().satisfies_atom(s, &Atom::exactly_one("t")));
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn duplicate_indices_rejected() {
        let mut b = KripkeBuilder::new();
        let s = b.state("s");
        b.edge(s, s);
        IndexedKripke::new(b.build(s).unwrap(), vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "outside the index set")]
    fn label_outside_index_set_rejected() {
        let mut b = KripkeBuilder::new();
        let s = b.state_labeled("s", [Atom::indexed("t", 9)]);
        b.edge(s, s);
        IndexedKripke::new(b.build(s).unwrap(), vec![1, 2]);
    }

    #[test]
    fn indices_sorted() {
        let mut b = KripkeBuilder::new();
        let s = b.state("s");
        b.edge(s, s);
        let m = IndexedKripke::new(b.build(s).unwrap(), vec![3, 1, 2]);
        assert_eq!(m.indices(), &[1, 2, 3]);
    }
}
