//! The Kripke structure `M = (S, R, L, s₀)` of Section 2.

use std::fmt;

use crate::atom::{Atom, AtomId, AtomTable};
use crate::bits::BitSet;

/// A dense identifier for a state of a [`Kripke`] structure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StateId(pub u32);

impl StateId {
    /// The id as a `usize`, for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Errors reported by [`Kripke::validate`] and the builder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructureError {
    /// The structure has no states at all.
    Empty,
    /// Some state has no outgoing transition; the paper requires the
    /// transition relation to be total.
    NotTotal(StateId),
    /// An edge endpoint does not name an existing state.
    DanglingEdge(StateId, StateId),
    /// The designated initial state does not exist.
    BadInitial(StateId),
    /// CSR parts handed to [`Kripke::from_csr`] do not fit together.
    MalformedCsr(&'static str),
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::Empty => write!(f, "structure has no states"),
            StructureError::NotTotal(s) => {
                write!(f, "transition relation is not total: {s} has no successor")
            }
            StructureError::DanglingEdge(a, b) => {
                write!(f, "edge {a} -> {b} references a missing state")
            }
            StructureError::BadInitial(s) => write!(f, "initial state {s} does not exist"),
            StructureError::MalformedCsr(why) => write!(f, "malformed CSR: {why}"),
        }
    }
}

impl std::error::Error for StructureError {}

/// A finite Kripke structure `M = (S, R, L, s₀)`.
///
/// * `S` — states, identified by dense [`StateId`]s;
/// * `R ⊆ S × S` — the transition relation, required to be **total**
///   (every state has at least one successor) so that every finite path
///   extends to an infinite one;
/// * `L : S → 2^AP` — the proposition labeling, stored as bitsets over an
///   interned [`AtomTable`];
/// * `s₀` — the initial state.
///
/// Construct via [`KripkeBuilder`](crate::KripkeBuilder).
///
/// # Examples
///
/// ```
/// use icstar_kripke::{Atom, KripkeBuilder};
///
/// let mut b = KripkeBuilder::new();
/// let red = b.state_labeled("red", [Atom::plain("stop")]);
/// let green = b.state_labeled("green", [Atom::plain("go")]);
/// b.edge(red, green);
/// b.edge(green, red);
/// let m = b.build(red)?;
/// assert_eq!(m.num_states(), 2);
/// assert!(m.satisfies_atom(red, &Atom::plain("stop")));
/// # Ok::<(), icstar_kripke::StructureError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Kripke {
    atoms: AtomTable,
    labels: Vec<BitSet>,
    succ_heads: Vec<u32>,
    succ_edges: Vec<StateId>,
    pred_heads: Vec<u32>,
    pred_edges: Vec<StateId>,
    init: StateId,
    names: Vec<String>,
}

impl Kripke {
    pub(crate) fn from_parts(
        atoms: AtomTable,
        labels: Vec<BitSet>,
        adjacency: &[Vec<StateId>],
        init: StateId,
        names: Vec<String>,
    ) -> Result<Self, StructureError> {
        let mut succ_heads = Vec::with_capacity(adjacency.len() + 1);
        succ_heads.push(0);
        let mut succ_edges = Vec::new();
        for outs in adjacency {
            succ_edges.extend_from_slice(outs);
            succ_heads.push(succ_edges.len() as u32);
        }
        Kripke::from_csr(atoms, labels, succ_heads, succ_edges, init, names)
    }

    /// Freezes a structure whose successor lists are already in CSR form:
    /// the successors of state `s` are
    /// `succ_edges[succ_heads[s]..succ_heads[s + 1]]`, in order. Labels
    /// are bitsets over `atoms`' ids and `names[s]` names state `s`.
    ///
    /// Producers that discover states densely in order (a BFS numbering
    /// states as they are found) emit this form directly and skip a
    /// per-state adjacency list.
    ///
    /// # Errors
    ///
    /// [`StructureError::Empty`], [`StructureError::BadInitial`],
    /// [`StructureError::NotTotal`] and [`StructureError::DanglingEdge`]
    /// as for [`KripkeBuilder::build`](crate::KripkeBuilder::build);
    /// [`StructureError::MalformedCsr`] when the offsets, names or label
    /// capacities do not fit the state count.
    ///
    /// # Examples
    ///
    /// ```
    /// use icstar_kripke::bits::BitSet;
    /// use icstar_kripke::{Atom, AtomTable, Kripke, StateId};
    ///
    /// let mut atoms = AtomTable::new();
    /// let p = atoms.intern(Atom::plain("p"));
    /// let labels = vec![BitSet::from_iter_with_capacity(1, [p.idx()]), BitSet::new(1)];
    /// // s0 -> s1, s1 -> {s0, s1}.
    /// let m = Kripke::from_csr(
    ///     atoms,
    ///     labels,
    ///     vec![0, 1, 3],
    ///     vec![StateId(1), StateId(0), StateId(1)],
    ///     StateId(0),
    ///     vec!["a".into(), "b".into()],
    /// )?;
    /// assert_eq!(m.successors(StateId(1)), &[StateId(0), StateId(1)]);
    /// assert_eq!(m.predecessors(StateId(1)), &[StateId(0), StateId(1)]);
    /// assert!(m.satisfies_atom(StateId(0), &Atom::plain("p")));
    /// # Ok::<(), icstar_kripke::StructureError>(())
    /// ```
    pub fn from_csr(
        atoms: AtomTable,
        labels: Vec<BitSet>,
        succ_heads: Vec<u32>,
        succ_edges: Vec<StateId>,
        init: StateId,
        names: Vec<String>,
    ) -> Result<Self, StructureError> {
        let n = labels.len();
        if n == 0 {
            return Err(StructureError::Empty);
        }
        if succ_heads.len() != n + 1
            || succ_heads[0] != 0
            || succ_heads[n] as usize != succ_edges.len()
        {
            return Err(StructureError::MalformedCsr(
                "offsets must run from 0 to the edge count, one per state plus one",
            ));
        }
        if names.len() != n {
            return Err(StructureError::MalformedCsr("one name per state"));
        }
        if labels.iter().any(|l| l.capacity() != atoms.len()) {
            return Err(StructureError::MalformedCsr(
                "every label spans the atom table",
            ));
        }
        if init.idx() >= n {
            return Err(StructureError::BadInitial(init));
        }
        // Check totality and edge sanity, counting predecessors.
        let mut pred_count = vec![0u32; n];
        for (s, w) in succ_heads.windows(2).enumerate() {
            if w[1] <= w[0] {
                return Err(if w[1] < w[0] {
                    StructureError::MalformedCsr("offsets must not decrease")
                } else {
                    StructureError::NotTotal(StateId(s as u32))
                });
            }
            for &t in &succ_edges[w[0] as usize..w[1] as usize] {
                if t.idx() >= n {
                    return Err(StructureError::DanglingEdge(StateId(s as u32), t));
                }
                pred_count[t.idx()] += 1;
            }
        }
        // Build predecessor CSR.
        let mut pred_heads = vec![0u32; n + 1];
        for s in 0..n {
            pred_heads[s + 1] = pred_heads[s] + pred_count[s];
        }
        let mut cursor = pred_heads[..n].to_vec();
        let mut pred_edges = vec![StateId(0); succ_edges.len()];
        for (s, w) in succ_heads.windows(2).enumerate() {
            for &t in &succ_edges[w[0] as usize..w[1] as usize] {
                pred_edges[cursor[t.idx()] as usize] = StateId(s as u32);
                cursor[t.idx()] += 1;
            }
        }
        Ok(Kripke {
            atoms,
            labels,
            succ_heads,
            succ_edges,
            pred_heads,
            pred_edges,
            init,
            names,
        })
    }

    /// The same graph, names and initial state under new labels over
    /// `atoms` — one bitset per state, each spanning `atoms`.
    pub(crate) fn relabeled(&self, atoms: AtomTable, labels: Vec<BitSet>) -> Kripke {
        assert_eq!(labels.len(), self.num_states(), "one label per state");
        debug_assert!(labels.iter().all(|l| l.capacity() == atoms.len()));
        Kripke {
            atoms,
            labels,
            succ_heads: self.succ_heads.clone(),
            succ_edges: self.succ_edges.clone(),
            pred_heads: self.pred_heads.clone(),
            pred_edges: self.pred_edges.clone(),
            init: self.init,
            names: self.names.clone(),
        }
    }

    /// Number of states `|S|`.
    pub fn num_states(&self) -> usize {
        self.labels.len()
    }

    /// Number of transitions `|R|`.
    pub fn num_transitions(&self) -> usize {
        self.succ_edges.len()
    }

    /// The initial state `s₀`.
    pub fn initial(&self) -> StateId {
        self.init
    }

    /// Iterates over all states in id order.
    pub fn states(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.num_states() as u32).map(StateId)
    }

    /// The successors of `s` (always non-empty).
    pub fn successors(&self, s: StateId) -> &[StateId] {
        let lo = self.succ_heads[s.idx()] as usize;
        let hi = self.succ_heads[s.idx() + 1] as usize;
        &self.succ_edges[lo..hi]
    }

    /// The predecessors of `s`.
    pub fn predecessors(&self, s: StateId) -> &[StateId] {
        let lo = self.pred_heads[s.idx()] as usize;
        let hi = self.pred_heads[s.idx() + 1] as usize;
        &self.pred_edges[lo..hi]
    }

    /// Whether `(a, b) ∈ R`.
    pub fn has_edge(&self, a: StateId, b: StateId) -> bool {
        self.successors(a).contains(&b)
    }

    /// The atom table used by this structure's labels.
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    /// The label `L(s)` as a bitset over this structure's atom ids.
    pub fn label(&self, s: StateId) -> &BitSet {
        &self.labels[s.idx()]
    }

    /// The label `L(s)` as a sorted list of atoms.
    pub fn label_atoms(&self, s: StateId) -> Vec<Atom> {
        let mut v: Vec<Atom> = self
            .label(s)
            .iter()
            .map(|b| self.atoms.atom(AtomId(b as u32)).clone())
            .collect();
        v.sort();
        v
    }

    /// Whether `atom ∈ L(s)`.
    pub fn satisfies_atom(&self, s: StateId, atom: &Atom) -> bool {
        match self.atoms.id(atom) {
            Some(id) => self.label(s).contains(id.idx()),
            None => false,
        }
    }

    /// A human-readable name for `s` (defaults to `s<N>`).
    pub fn state_name(&self, s: StateId) -> &str {
        &self.names[s.idx()]
    }

    /// Finds a state by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| StateId(i as u32))
    }

    /// Checks the structural invariants (non-empty, total, valid initial
    /// state).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant. Structures built through
    /// [`KripkeBuilder`](crate::KripkeBuilder) always validate.
    pub fn validate(&self) -> Result<(), StructureError> {
        if self.num_states() == 0 {
            return Err(StructureError::Empty);
        }
        if self.init.idx() >= self.num_states() {
            return Err(StructureError::BadInitial(self.init));
        }
        for s in self.states() {
            if self.successors(s).is_empty() {
                return Err(StructureError::NotTotal(s));
            }
        }
        Ok(())
    }

    /// The set of states reachable from the initial state.
    pub fn reachable(&self) -> BitSet {
        let mut seen = BitSet::new(self.num_states());
        let mut stack = vec![self.init];
        seen.insert(self.init.idx());
        while let Some(s) = stack.pop() {
            for &t in self.successors(s) {
                if seen.insert(t.idx()) {
                    stack.push(t);
                }
            }
        }
        seen
    }

    /// Restricts the structure to the states reachable from `s₀`,
    /// renumbering states densely. Returns the restriction together with
    /// the mapping `old id → new id`.
    ///
    /// This implements the paper's move from the raw state-transition graph
    /// `G_r` to the Kripke structure `M_r` (Section 5): unreachable states
    /// (such as "all delayed, no token") are dropped, after which the
    /// relation must be total again.
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::NotTotal`] (with the *new* id) if some
    /// reachable state has no successor.
    pub fn restrict_to_reachable(&self) -> Result<(Kripke, Vec<Option<StateId>>), StructureError> {
        let seen = self.reachable();
        let mut remap: Vec<Option<StateId>> = vec![None; self.num_states()];
        let mut next = 0u32;
        for s in self.states() {
            if seen.contains(s.idx()) {
                remap[s.idx()] = Some(StateId(next));
                next += 1;
            }
        }
        let n = next as usize;
        let mut labels = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        let mut adjacency: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for s in self.states() {
            let Some(ns) = remap[s.idx()] else { continue };
            labels.push(self.labels[s.idx()].clone());
            names.push(self.names[s.idx()].clone());
            debug_assert_eq!(labels.len() - 1, ns.idx());
            for &t in self.successors(s) {
                if let Some(nt) = remap[t.idx()] {
                    adjacency[ns.idx()].push(nt);
                }
            }
        }
        let init = remap[self.init.idx()].expect("initial state is reachable");
        let m = Kripke::from_parts(self.atoms.clone(), labels, &adjacency, init, names)?;
        Ok((m, remap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KripkeBuilder;

    fn two_state() -> Kripke {
        let mut b = KripkeBuilder::new();
        let a = b.state_labeled("a", [Atom::plain("p")]);
        let c = b.state_labeled("c", [Atom::plain("q")]);
        b.edge(a, c);
        b.edge(c, a);
        b.build(a).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let m = two_state();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.num_transitions(), 2);
        assert_eq!(m.initial(), StateId(0));
        assert_eq!(m.successors(StateId(0)), &[StateId(1)]);
        assert_eq!(m.predecessors(StateId(0)), &[StateId(1)]);
        assert!(m.has_edge(StateId(0), StateId(1)));
        assert!(!m.has_edge(StateId(0), StateId(0)));
        assert_eq!(m.state_name(StateId(1)), "c");
        assert_eq!(m.state_by_name("c"), Some(StateId(1)));
        assert_eq!(m.state_by_name("zzz"), None);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn labels_and_atoms() {
        let m = two_state();
        assert!(m.satisfies_atom(StateId(0), &Atom::plain("p")));
        assert!(!m.satisfies_atom(StateId(0), &Atom::plain("q")));
        assert!(!m.satisfies_atom(StateId(0), &Atom::plain("unknown")));
        assert_eq!(m.label_atoms(StateId(1)), vec![Atom::plain("q")]);
    }

    #[test]
    fn totality_enforced() {
        let mut b = KripkeBuilder::new();
        let a = b.state("a");
        let c = b.state("c");
        b.edge(a, c);
        assert_eq!(b.build(a).unwrap_err(), StructureError::NotTotal(c));
    }

    #[test]
    fn empty_rejected() {
        let b = KripkeBuilder::new();
        assert_eq!(b.build(StateId(0)).unwrap_err(), StructureError::Empty);
    }

    #[test]
    fn reachable_restriction_drops_unreachable() {
        let mut b = KripkeBuilder::new();
        let a = b.state("a");
        let c = b.state("c");
        let dead = b.state("dead");
        b.edge(a, c);
        b.edge(c, a);
        b.edge(dead, a);
        b.edge(dead, dead);
        let m = b.build(a).unwrap();
        assert_eq!(m.num_states(), 3);
        let (r, remap) = m.restrict_to_reachable().unwrap();
        assert_eq!(r.num_states(), 2);
        assert_eq!(remap[dead.idx()], None);
        assert_eq!(r.initial(), StateId(0));
        assert!(r.validate().is_ok());
    }

    #[test]
    fn restriction_can_expose_nontotality() {
        // a -> sink, sink has only an edge back into unreachable territory?
        // Build: a -> b, b -> dead is the ONLY edge of b, dead unreachable?
        // dead is reachable through b, so instead: make b's only successor
        // a state that itself is fine; nontotality after restriction cannot
        // happen via reachability (successors of reachable states are
        // reachable). So restriction of a valid structure is always total.
        let mut b = KripkeBuilder::new();
        let a = b.state("a");
        let c = b.state("c");
        b.edge(a, c);
        b.edge(c, c);
        let m = b.build(a).unwrap();
        let (r, _) = m.restrict_to_reachable().unwrap();
        assert!(r.validate().is_ok());
        assert_eq!(r.num_states(), 2);
    }

    #[test]
    fn reachable_set() {
        let mut b = KripkeBuilder::new();
        let a = b.state("a");
        let c = b.state("c");
        let d = b.state("d");
        b.edge(a, a);
        b.edge(c, d);
        b.edge(d, c);
        let m = b.build(a).unwrap();
        let r = m.reachable();
        assert!(r.contains(0));
        assert!(!r.contains(1));
        assert!(!r.contains(2));
    }

    #[test]
    fn from_csr_matches_the_builder() {
        let m = two_state();
        let k = Kripke::from_csr(
            m.atoms().clone(),
            m.states().map(|s| m.label(s).clone()).collect(),
            vec![0, 1, 2],
            vec![StateId(1), StateId(0)],
            StateId(0),
            vec!["a".into(), "c".into()],
        )
        .unwrap();
        for s in m.states() {
            assert_eq!(k.successors(s), m.successors(s));
            assert_eq!(k.predecessors(s), m.predecessors(s));
            assert_eq!(k.label_atoms(s), m.label_atoms(s));
            assert_eq!(k.state_name(s), m.state_name(s));
        }
    }

    #[test]
    fn from_csr_validates_its_parts() {
        let csr = |heads: Vec<u32>, edges: Vec<u32>, init: u32, names: usize| {
            Kripke::from_csr(
                AtomTable::new(),
                vec![BitSet::new(0); 2],
                heads,
                edges.into_iter().map(StateId).collect(),
                StateId(init),
                (0..names).map(|i| format!("s{i}")).collect(),
            )
        };
        assert!(csr(vec![0, 1, 2], vec![1, 0], 0, 2).is_ok());
        assert_eq!(
            csr(vec![0, 1, 1], vec![1], 0, 2).unwrap_err(),
            StructureError::NotTotal(StateId(1))
        );
        assert_eq!(
            csr(vec![0, 1, 2], vec![1, 5], 0, 2).unwrap_err(),
            StructureError::DanglingEdge(StateId(1), StateId(5))
        );
        assert_eq!(
            csr(vec![0, 1, 2], vec![1, 0], 2, 2).unwrap_err(),
            StructureError::BadInitial(StateId(2))
        );
        for (heads, edges, names) in [
            (vec![0, 1], vec![1], 2),          // too few offsets
            (vec![1, 1, 2], vec![1, 0], 2),    // does not start at 0
            (vec![0, 1, 3], vec![1, 0], 2),    // overruns the edges
            (vec![0, 2, 1], vec![1, 0, 0], 2), // decreasing
            (vec![0, 1, 2], vec![1, 0], 1),    // a name short
        ] {
            assert!(matches!(
                csr(heads, edges, 0, names),
                Err(StructureError::MalformedCsr(_))
            ));
        }
        let wide = Kripke::from_csr(
            AtomTable::new(),
            vec![BitSet::new(3)],
            vec![0, 1],
            vec![StateId(0)],
            StateId(0),
            vec!["x".into()],
        );
        assert!(matches!(wide, Err(StructureError::MalformedCsr(_))));
    }

    #[test]
    fn display_state_id() {
        assert_eq!(StateId(7).to_string(), "s7");
    }
}
