//! Incremental construction of [`Kripke`] structures.

use std::collections::HashMap;

use crate::atom::{Atom, AtomId, AtomTable};
use crate::bits::BitSet;
use crate::structure::{Kripke, StateId, StructureError};

/// A builder for [`Kripke`] structures.
///
/// States are added first (optionally with labels), then edges, then
/// [`build`](KripkeBuilder::build) freezes the structure, interning labels
/// into bitsets and checking the paper's structural requirements
/// (non-empty, total transition relation).
///
/// # Examples
///
/// ```
/// use icstar_kripke::{Atom, KripkeBuilder};
///
/// let mut b = KripkeBuilder::new();
/// let s0 = b.state_labeled("idle", [Atom::plain("n")]);
/// let s1 = b.state_labeled("busy", [Atom::plain("c")]);
/// b.edges([(s0, s1), (s1, s0), (s1, s1)]);
/// let m = b.build(s0)?;
/// assert_eq!(m.num_transitions(), 3);
/// # Ok::<(), icstar_kripke::StructureError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct KripkeBuilder {
    atoms: AtomTable,
    labels: Vec<Vec<Atom>>,
    names: Vec<String>,
    adjacency: Vec<Vec<StateId>>,
    dedup_edges: bool,
    edge_seen: HashMap<StateId, Vec<StateId>>,
}

impl KripkeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// When enabled, duplicate edges are silently dropped instead of being
    /// stored twice. Disabled by default (duplicates are rare and harmless
    /// to the semantics, but dedup is useful for generated compositions).
    pub fn dedup_edges(&mut self, yes: bool) -> &mut Self {
        self.dedup_edges = yes;
        self
    }

    /// Adds an unlabeled state with an auto-generated name.
    pub fn state_anon(&mut self) -> StateId {
        let name = format!("s{}", self.labels.len());
        self.state(name)
    }

    /// Adds an unlabeled state with the given name.
    pub fn state(&mut self, name: impl Into<String>) -> StateId {
        self.labels.push(Vec::new());
        self.names.push(name.into());
        self.adjacency.push(Vec::new());
        StateId((self.labels.len() - 1) as u32)
    }

    /// Adds a state with the given name and label set.
    pub fn state_labeled(
        &mut self,
        name: impl Into<String>,
        label: impl IntoIterator<Item = Atom>,
    ) -> StateId {
        let s = self.state(name);
        for a in label {
            self.add_label(s, a);
        }
        s
    }

    /// Adds `atom` to the label of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` was not created by this builder.
    pub fn add_label(&mut self, s: StateId, atom: Atom) -> &mut Self {
        self.labels[s.idx()].push(atom);
        self
    }

    /// Adds the edge `a → b`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint was not created by this builder.
    pub fn edge(&mut self, a: StateId, b: StateId) -> &mut Self {
        assert!(a.idx() < self.adjacency.len(), "unknown source state");
        assert!(b.idx() < self.adjacency.len(), "unknown target state");
        if self.dedup_edges {
            let seen = self.edge_seen.entry(a).or_default();
            if seen.contains(&b) {
                return self;
            }
            seen.push(b);
        }
        self.adjacency[a.idx()].push(b);
        self
    }

    /// Adds many edges at once.
    pub fn edges(&mut self, it: impl IntoIterator<Item = (StateId, StateId)>) -> &mut Self {
        for (a, b) in it {
            self.edge(a, b);
        }
        self
    }

    /// Number of states added so far.
    pub fn num_states(&self) -> usize {
        self.labels.len()
    }

    /// Freezes the builder into a validated [`Kripke`] structure with
    /// initial state `init`.
    ///
    /// # Errors
    ///
    /// Returns a [`StructureError`] if the structure is empty, `init` is
    /// unknown, or some state has no outgoing transition.
    pub fn build(self, init: StateId) -> Result<Kripke, StructureError> {
        let mut atoms = self.atoms;
        // Intern all atoms first so ids are stable. The labels are
        // consumed: only an atom the table has not seen yet is stored.
        let interned: Vec<Vec<AtomId>> = self
            .labels
            .into_iter()
            .map(|lab| lab.into_iter().map(|a| atoms.intern(a)).collect())
            .collect();
        let nbits = atoms.len();
        let label_sets = interned
            .into_iter()
            .map(|ids| BitSet::from_iter_with_capacity(nbits, ids.into_iter().map(AtomId::idx)))
            .collect();
        Kripke::from_parts(atoms, label_sets, &self.adjacency, init, self.names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_interned_consistently() {
        let mut b = KripkeBuilder::new();
        let s0 = b.state_labeled("x", [Atom::plain("p"), Atom::indexed("d", 1)]);
        let s1 = b.state_labeled("y", [Atom::indexed("d", 1)]);
        b.edge(s0, s1);
        b.edge(s1, s0);
        let m = b.build(s0).unwrap();
        let id = m.atoms().id(&Atom::indexed("d", 1)).unwrap();
        assert!(m.label(s0).contains(id.idx()));
        assert!(m.label(s1).contains(id.idx()));
        assert_eq!(m.atoms().len(), 2);
    }

    #[test]
    fn duplicate_labels_collapse() {
        let mut b = KripkeBuilder::new();
        let s = b.state_labeled("x", [Atom::plain("p"), Atom::plain("p")]);
        b.edge(s, s);
        let m = b.build(s).unwrap();
        assert_eq!(m.label(s).len(), 1);
    }

    #[test]
    fn dedup_edges_drops_duplicates() {
        let mut b = KripkeBuilder::new();
        b.dedup_edges(true);
        let s = b.state("x");
        b.edge(s, s);
        b.edge(s, s);
        let m = b.build(s).unwrap();
        assert_eq!(m.num_transitions(), 1);
    }

    #[test]
    fn without_dedup_duplicates_kept() {
        let mut b = KripkeBuilder::new();
        let s = b.state("x");
        b.edge(s, s);
        b.edge(s, s);
        let m = b.build(s).unwrap();
        assert_eq!(m.num_transitions(), 2);
    }

    #[test]
    fn anon_names_are_sequential() {
        let mut b = KripkeBuilder::new();
        let s0 = b.state_anon();
        let s1 = b.state_anon();
        b.edge(s0, s1);
        b.edge(s1, s0);
        let m = b.build(s0).unwrap();
        assert_eq!(m.state_name(s0), "s0");
        assert_eq!(m.state_name(s1), "s1");
    }

    #[test]
    #[should_panic(expected = "unknown target state")]
    fn edge_to_unknown_state_panics() {
        let mut b = KripkeBuilder::new();
        let s = b.state("x");
        b.edge(s, StateId(42));
    }

    #[test]
    fn bad_initial_rejected() {
        let mut b = KripkeBuilder::new();
        let s = b.state("x");
        b.edge(s, s);
        assert_eq!(
            b.build(StateId(9)).unwrap_err(),
            StructureError::BadInitial(StateId(9))
        );
    }
}
