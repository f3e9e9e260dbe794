//! Fair CTL model checking (Clarke–Emerson–Sistla Section 5 / Emerson–Lei
//! style).
//!
//! The paper's token ring needs no fairness (token transfers are forced),
//! but most request/grant protocols do: without it, `AF served` fails on
//! the path where the scheduler ignores a client forever. This module
//! restricts path quantifiers to *fair* paths.
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
//! * [`fair_states`] — states from which some fair path starts
//!   (`E_fair G true`): backward closure of non-trivial SCCs that, for
//!   every requirement, contain a released state or an internal
//!   requirement edge;
//! * [`eg_fair`] — `E_fair G f`: the same computation inside `f`;
//! * [`eu_fair`], [`ex_fair`] — reduce to the plain operators against
//!   `fair ∧ goal`;
//! * universal operators by duality (`AF_fair f = ¬E_fair G ¬f`).
//!
//! [`FairChecker`] closes the loop for formula-level checking: a cached
//! recursive evaluator for CTL-shaped formulas whose path quantifiers
//! range over fair paths only — the fair counterpart of
//! [`crate::Checker`] (which the counter-abstraction engine routes
//! liveness queries through when a template declares fairness).

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use icstar_kripke::bits::BitSet;
use icstar_kripke::{Atom, Kripke, StateId};
use icstar_logic::{collapse_states, IndexTerm, PathFormula, StateFormula};

use crate::ctl;
use crate::error::McError;

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
/// cycle iff it is non-trivial and, for every requirement, contains a
/// released state or an internal requirement edge; take backward
/// `f`-closure; iterate to stability.
pub fn eg_fair(m: &Kripke, f: &BitSet, fair: &TransFairness) -> BitSet {
    if fair.is_empty() {
        return ctl::eg(m, f);
    }
    // Iterate: within the candidate set, keep states whose SCC (within the
    // candidate set) is non-trivial and satisfies every requirement;
    // repeat until stable (removing states can break SCCs).
    let mut candidate = f.clone();
    loop {
        let comp = scc_within(m, &candidate);
        let num_comps = comp
            .iter()
            .filter_map(|&c| c)
            .max()
            .map_or(0usize, |c| c as usize + 1);
        if num_comps == 0 {
            return BitSet::new(m.num_states());
        }
        let mut nontrivial = vec![false; num_comps];
        for s in m.states() {
            if comp[s.idx()].is_none() {
                continue;
            }
            for &t in m.successors(s) {
                if comp[t.idx()] == comp[s.idx()] && (t != s || m.has_edge(s, s)) {
                    nontrivial[comp[s.idx()].expect("checked") as usize] = true;
                }
            }
        }
        let mut fair_comp = nontrivial;
        for req in fair.reqs() {
            let mut hit = vec![false; num_comps];
            for s in m.states() {
                if let Some(c) = comp[s.idx()] {
                    if req.states().contains(s.idx()) {
                        hit[c as usize] = true;
                    }
                }
            }
            // An SCC-internal requirement edge can be traversed
            // infinitely often by a path cycling through the component.
            for &(u, v) in req.edges() {
                if let (Some(cu), Some(cv)) = (comp[u as usize], comp[v as usize]) {
                    if cu == cv {
                        hit[cu as usize] = true;
                    }
                }
            }
            for (fc, h) in fair_comp.iter_mut().zip(hit) {
                *fc &= h;
            }
        }
        // Seeds: members of fair SCCs.
        let mut seeds = BitSet::new(m.num_states());
        for s in m.states() {
            if let Some(c) = comp[s.idx()] {
                if fair_comp[c as usize] {
                    seeds.insert(s.idx());
                }
            }
        }
        // Backward closure through the candidate set.
        let mut result = seeds.clone();
        let mut work: Vec<StateId> = seeds.iter().map(|b| StateId(b as u32)).collect();
        while let Some(s) = work.pop() {
            for &p in m.predecessors(s) {
                if candidate.contains(p.idx()) && !result.contains(p.idx()) {
                    result.insert(p.idx());
                    work.push(p);
                }
            }
        }
        if result == candidate {
            return result;
        }
        candidate = result;
    }
}

/// The states from which some fair path starts (`E_fair G true`).
pub fn fair_states(m: &Kripke, fair: &TransFairness) -> BitSet {
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

/// `AF_fair f = ¬E_fair G ¬f`: on every fair path, eventually `f`.
pub fn af_fair(m: &Kripke, f: &BitSet, fair: &TransFairness) -> BitSet {
    let mut nf = f.clone();
    nf.complement();
    let mut bad = eg_fair(m, &nf, fair);
    bad.complement();
    bad
}

/// `AG_fair f = ¬E_fair[true U ¬f]`: along every fair path, globally `f`.
pub fn ag_fair(m: &Kripke, f: &BitSet, fair: &TransFairness) -> BitSet {
    let mut nf = f.clone();
    nf.complement();
    let mut bad = eu_fair(m, &ctl::full_set(m), &nf, fair);
    bad.complement();
    bad
}

/// A fair-CTL model checker for one structure under one
/// [`TransFairness`] constraint: path quantifiers range over **fair
/// paths only**. Satisfaction sets are cached across formulas, like
/// [`crate::Checker`]'s.
///
/// Only the CTL fragment is supported (every path quantifier must wrap a
/// single temporal operator over state operands, after
/// [`collapse_states`] normalization): the fair-SCC labeling underlying
/// the operators does not extend to arbitrary CTL* path nesting. Other
/// shapes are rejected with [`McError::NotCtl`].
///
/// # Examples
///
/// ```
/// use icstar_kripke::{Atom, KripkeBuilder};
/// use icstar_kripke::bits::BitSet;
/// use icstar_logic::parse_state;
/// use icstar_mc::fair::{FairChecker, FairReq, TransFairness};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // idle -> idle (stutter), idle -> done -> done.
/// let mut b = KripkeBuilder::new();
/// let idle = b.state_labeled("idle", [Atom::plain("idle")]);
/// let done = b.state_labeled("done", [Atom::plain("done")]);
/// b.edge(idle, idle);
/// b.edge(idle, done);
/// b.edge(done, done);
/// let m = b.build(idle)?;
///
/// // Weak fairness of the idle -> done move: released at `done` (the
/// // move is disabled there), taken on the idle -> done edge.
/// let req = FairReq::new(
///     BitSet::from_iter_with_capacity(2, [done.idx()]),
///     [(idle.0, done.0)],
/// );
/// let fair = TransFairness::new([req]);
///
/// // Plain AF done fails (the idle stutter loop); fair AF done holds.
/// let mut fair_chk = FairChecker::new(&m, &fair);
/// assert!(fair_chk.holds(&parse_state("AF done")?)?);
/// let unconstrained = TransFairness::unconstrained();
/// let mut plain_chk = FairChecker::new(&m, &unconstrained);
/// assert!(!plain_chk.holds(&parse_state("AF done")?)?);
/// # Ok(())
/// # }
/// ```
pub struct FairChecker<'a> {
    m: &'a Kripke,
    fair: &'a TransFairness,
    /// `E_fair G true`, computed once on first use.
    fair_start: Option<BitSet>,
    cache: HashMap<StateFormula, Rc<BitSet>>,
}

impl<'a> FairChecker<'a> {
    /// Creates a fair checker for `m` under `fair`.
    pub fn new(m: &'a Kripke, fair: &'a TransFairness) -> Self {
        FairChecker {
            m,
            fair,
            fair_start: None,
            cache: HashMap::new(),
        }
    }

    /// The structure under analysis.
    pub fn structure(&self) -> &'a Kripke {
        self.m
    }

    /// Whether `f` holds in the initial state over fair paths.
    ///
    /// # Errors
    ///
    /// [`McError::NotCtl`] outside the CTL fragment; [`McError`] as
    /// [`crate::Checker::holds`] for free variables and quantifiers.
    pub fn holds(&mut self, f: &StateFormula) -> Result<bool, McError> {
        Ok(self.sat(f)?.contains(self.m.initial().idx()))
    }

    /// Whether `f` holds at state `s` over fair paths.
    ///
    /// # Errors
    ///
    /// See [`FairChecker::holds`].
    pub fn holds_at(&mut self, s: StateId, f: &StateFormula) -> Result<bool, McError> {
        Ok(self.sat(f)?.contains(s.idx()))
    }

    /// The set of states satisfying `f` over fair paths.
    ///
    /// # Errors
    ///
    /// See [`FairChecker::holds`].
    pub fn sat(&mut self, f: &StateFormula) -> Result<Rc<BitSet>, McError> {
        if let Some(hit) = self.cache.get(f) {
            return Ok(Rc::clone(hit));
        }
        let result = self.compute(f)?;
        let rc = Rc::new(result);
        self.cache.insert(f.clone(), Rc::clone(&rc));
        Ok(rc)
    }

    /// `E_fair G true`, cached.
    fn fair_start(&mut self) -> BitSet {
        if self.fair_start.is_none() {
            self.fair_start = Some(fair_states(self.m, self.fair));
        }
        self.fair_start.clone().expect("just computed")
    }

    fn compute(&mut self, f: &StateFormula) -> Result<BitSet, McError> {
        use StateFormula::*;
        Ok(match f {
            True => ctl::full_set(self.m),
            False => ctl::empty_set(self.m),
            Prop(n) => self.sat_atom(&Atom::plain(n.clone())),
            Indexed(n, IndexTerm::Const(c)) => self.sat_atom(&Atom::indexed(n.clone(), *c)),
            Indexed(_, IndexTerm::Var(v)) => return Err(McError::FreeIndexVariable(v.clone())),
            ExactlyOne(n) => self.sat_exactly_one(n),
            Not(g) => {
                let mut s = (*self.sat(g)?).clone();
                s.complement();
                s
            }
            And(a, b) => {
                let mut s = (*self.sat(a)?).clone();
                let sb = self.sat(b)?;
                s.intersect_with(&sb);
                s
            }
            Or(a, b) => {
                let mut s = (*self.sat(a)?).clone();
                let sb = self.sat(b)?;
                s.union_with(&sb);
                s
            }
            Implies(a, b) => {
                let mut s = (*self.sat(a)?).clone();
                s.complement();
                let sb = self.sat(b)?;
                s.union_with(&sb);
                s
            }
            Iff(a, b) => {
                let sa = self.sat(a)?;
                let sb = self.sat(b)?;
                let mut s = BitSet::new(self.m.num_states());
                for st in self.m.states() {
                    if sa.contains(st.idx()) == sb.contains(st.idx()) {
                        s.insert(st.idx());
                    }
                }
                s
            }
            ForallIdx(v, _) | ExistsIdx(v, _) => {
                return Err(McError::QuantifierWithoutIndexSet(v.clone()))
            }
            Exists(p) => self.sat_exists(p)?,
            All(p) => self.sat_all(p)?,
        })
    }

    fn sat_atom(&self, atom: &Atom) -> BitSet {
        let mut out = BitSet::new(self.m.num_states());
        if self.m.atoms().id(atom).is_some() {
            for s in self.m.states() {
                if self.m.satisfies_atom(s, atom) {
                    out.insert(s.idx());
                }
            }
        }
        out
    }

    /// `Θ P` as in [`crate::Checker`]: a baked-in `one(P)` atom if
    /// present, otherwise a count over the indexed instances of `P`.
    fn sat_exactly_one(&self, name: &str) -> BitSet {
        let theta = Atom::exactly_one(name.to_string());
        if self.m.atoms().id(&theta).is_some() {
            return self.sat_atom(&theta);
        }
        let ids: Vec<usize> = self
            .m
            .atoms()
            .iter()
            .filter(|(_, a)| a.is_indexed() && a.name() == name)
            .map(|(id, _)| id.idx())
            .collect();
        let mut out = BitSet::new(self.m.num_states());
        for s in self.m.states() {
            let count = ids.iter().filter(|&&b| self.m.label(s).contains(b)).count();
            if count == 1 {
                out.insert(s.idx());
            }
        }
        out
    }

    /// `E_fair p` for a CTL-shaped path formula.
    fn sat_exists(&mut self, p: &PathFormula) -> Result<BitSet, McError> {
        use PathFormula::*;
        let p = collapse_states(p);
        match &p {
            // A state formula holds on some fair path iff it holds here
            // and a fair path exists at all.
            State(f) => {
                let mut s = (*self.sat(f)?).clone();
                s.intersect_with(&self.fair_start());
                Ok(s)
            }
            Until(a, b) => {
                if let (State(f), State(g)) = (&**a, &**b) {
                    let sf = (*self.sat(f)?).clone();
                    let sg = (*self.sat(g)?).clone();
                    return Ok(eu_fair(self.m, &sf, &sg, self.fair));
                }
                Err(self.not_ctl(&p))
            }
            // E_fair[f R g] = E_fair[g U (f ∧ g)] ∨ E_fair G g.
            Release(a, b) => {
                if let (State(f), State(g)) = (&**a, &**b) {
                    let sf = self.sat(f)?;
                    let sg = (*self.sat(g)?).clone();
                    let mut fg = (*sf).clone();
                    fg.intersect_with(&sg);
                    let mut out = eu_fair(self.m, &sg, &fg, self.fair);
                    out.union_with(&eg_fair(self.m, &sg, self.fair));
                    return Ok(out);
                }
                Err(self.not_ctl(&p))
            }
            Eventually(g) => {
                if let State(f) = &**g {
                    let sf = (*self.sat(f)?).clone();
                    return Ok(eu_fair(self.m, &ctl::full_set(self.m), &sf, self.fair));
                }
                Err(self.not_ctl(&p))
            }
            Globally(g) => {
                if let State(f) = &**g {
                    let sf = (*self.sat(f)?).clone();
                    return Ok(eg_fair(self.m, &sf, self.fair));
                }
                Err(self.not_ctl(&p))
            }
            Next(g) => {
                if let State(f) = &**g {
                    let sf = (*self.sat(f)?).clone();
                    return Ok(ex_fair(self.m, &sf, self.fair));
                }
                Err(self.not_ctl(&p))
            }
            _ => Err(self.not_ctl(&p)),
        }
    }

    /// `A_fair p` by duality against the existential operators.
    fn sat_all(&mut self, p: &PathFormula) -> Result<BitSet, McError> {
        use PathFormula::*;
        let p = collapse_states(p);
        match &p {
            // Vacuously true where no fair path starts.
            State(f) => {
                let mut s = self.fair_start();
                s.complement();
                let sf = self.sat(f)?;
                s.union_with(&sf);
                Ok(s)
            }
            // A_fair[f U g] = ¬(E_fair[¬g U ¬f∧¬g] ∨ E_fair G ¬g).
            Until(a, b) => {
                if let (State(f), State(g)) = (&**a, &**b) {
                    let nf = (*self.sat(&(**f).clone().not())?).clone();
                    let ng = (*self.sat(&(**g).clone().not())?).clone();
                    let mut nfng = nf.clone();
                    nfng.intersect_with(&ng);
                    let mut bad = eu_fair(self.m, &ng, &nfng, self.fair);
                    bad.union_with(&eg_fair(self.m, &ng, self.fair));
                    bad.complement();
                    return Ok(bad);
                }
                Err(self.not_ctl(&p))
            }
            // A_fair[f R g] = ¬E_fair[¬f U ¬g].
            Release(a, b) => {
                if let (State(f), State(g)) = (&**a, &**b) {
                    let nf = (*self.sat(&(**f).clone().not())?).clone();
                    let ng = (*self.sat(&(**g).clone().not())?).clone();
                    return Ok({
                        let mut bad = eu_fair(self.m, &nf, &ng, self.fair);
                        bad.complement();
                        bad
                    });
                }
                Err(self.not_ctl(&p))
            }
            Eventually(g) => {
                if let State(f) = &**g {
                    let sf = (*self.sat(f)?).clone();
                    return Ok(af_fair(self.m, &sf, self.fair));
                }
                Err(self.not_ctl(&p))
            }
            Globally(g) => {
                if let State(f) = &**g {
                    let sf = (*self.sat(f)?).clone();
                    return Ok(ag_fair(self.m, &sf, self.fair));
                }
                Err(self.not_ctl(&p))
            }
            // AX_fair f = ¬EX_fair ¬f.
            Next(g) => {
                if let State(f) = &**g {
                    let nf = (*self.sat(&(**f).clone().not())?).clone();
                    let mut bad = ex_fair(self.m, &nf, self.fair);
                    bad.complement();
                    return Ok(bad);
                }
                Err(self.not_ctl(&p))
            }
            _ => Err(self.not_ctl(&p)),
        }
    }

    fn not_ctl(&self, p: &PathFormula) -> McError {
        McError::NotCtl(p.to_string())
    }
}

/// Tarjan restricted to a candidate set: returns `Some(component)` for
/// members, `None` outside.
fn scc_within(m: &Kripke, within: &BitSet) -> Vec<Option<u32>> {
    let n = m.num_states();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp: Vec<Option<u32>> = vec![None; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut call: Vec<(u32, usize)> = Vec::new();
    let mut next_index = 0u32;
    let mut next_comp = 0u32;
    for root in 0..n as u32 {
        if !within.contains(root as usize) || index[root as usize] != u32::MAX {
            continue;
        }
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        call.push((root, 0));
        while let Some(&mut (u, ref mut cursor)) = call.last_mut() {
            let succs = m.successors(StateId(u));
            let mut advanced = false;
            while *cursor < succs.len() {
                let v = succs[*cursor].0;
                *cursor += 1;
                if !within.contains(v as usize) {
                    continue;
                }
                if index[v as usize] == u32::MAX {
                    index[v as usize] = next_index;
                    low[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    call.push((v, 0));
                    advanced = true;
                    break;
                } else if on_stack[v as usize] {
                    low[u as usize] = low[u as usize].min(index[v as usize]);
                }
            }
            if advanced {
                continue;
            }
            call.pop();
            if let Some(&(parent, _)) = call.last() {
                low[parent as usize] = low[parent as usize].min(low[u as usize]);
            }
            if low[u as usize] == index[u as usize] {
                loop {
                    let w = stack.pop().expect("tarjan stack");
                    on_stack[w as usize] = false;
                    comp[w as usize] = Some(next_comp);
                    if w == u {
                        break;
                    }
                }
                next_comp += 1;
            }
        }
    }
    comp
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

    #[test]
    fn unconstrained_fairness_is_plain_ctl() {
        let (m, g1, _) = scheduler();
        let fair = TransFairness::unconstrained();
        assert_eq!(af_fair(&m, &g1, &fair), {
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
        let (m, g1, g2) = scheduler();
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
        let fair_af = af_fair(&m, &g2, &fair);
        assert!(fair_af.contains(0));
        assert!(fair_af.contains(1));
        // And EG ¬g2 under that fairness is empty.
        let mut ng2 = g2.clone();
        ng2.complement();
        assert!(eg_fair(&m, &ng2, &fair).is_empty());
        // g1's liveness under g2-fairness: serving 1 infinitely often is
        // not required, so AF g1 still fails at s0 (fair path (s0 s2)^ω).
        let fair_af_g1 = af_fair(&m, &g1, &fair);
        assert!(!fair_af_g1.contains(0));
    }

    #[test]
    fn multiple_constraints_intersect() {
        let (m, g1, g2) = scheduler();
        // Fair = serve 1 AND serve 2 infinitely often: both livenesses.
        let fair = TransFairness::new([FairReq::new(g1.clone(), []), FairReq::new(g2.clone(), [])]);
        assert!(af_fair(&m, &g1, &fair).contains(0));
        assert!(af_fair(&m, &g2, &fair).contains(0));
        // Fair states: the whole (strongly connected) graph.
        assert_eq!(fair_states(&m, &fair).len(), 3);
    }

    #[test]
    fn unsatisfiable_fairness_empties_everything() {
        let (m, _, _) = scheduler();
        // Constraint set empty: no path can visit it infinitely often.
        let fair = TransFairness::new([FairReq::new(BitSet::new(3), [])]);
        assert!(fair_states(&m, &fair).is_empty());
        let goal = BitSet::from_iter_with_capacity(3, [0usize]);
        // E_fair[true U goal] is empty too (no fair continuation).
        assert!(eu_fair(&m, &ctl::full_set(&m), &goal, &fair).is_empty());
        // AF_fair trivially holds (no fair paths to violate it).
        assert_eq!(af_fair(&m, &goal, &fair).len(), 3);
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
        let af = af_fair(&m, &done, &fair);
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
        assert!(af_fair(&m, &g1, &fair).contains(0));
        // Restricted to ¬g1, the edge is not internal to any SCC: no fair
        // path avoids g1 forever.
        let mut ng1 = g1.clone();
        ng1.complement();
        assert!(eg_fair(&m, &ng1, &fair).is_empty());
    }

    mod checker {
        use super::*;
        use icstar_logic::parse_state;

        fn check(m: &Kripke, fair: &TransFairness, f: &str) -> bool {
            let parsed = parse_state(f).unwrap();
            FairChecker::new(m, fair).holds(&parsed).unwrap()
        }

        #[test]
        fn unconstrained_matches_plain_checker() {
            let (m, _, _) = scheduler();
            let fair = TransFairness::unconstrained();
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
            let (m, _, _) = scheduler();
            let fair = TransFairness::unconstrained();
            for f in ["E(F G g1)", "A(F g1 & F g2)", "E(g1 U (g2 U idle))"] {
                let parsed = parse_state(f).unwrap();
                let err = FairChecker::new(&m, &fair).holds(&parsed).unwrap_err();
                assert!(
                    matches!(err, McError::NotCtl(_)),
                    "formula {f} gave {err:?}"
                );
            }
        }

        #[test]
        fn free_variables_and_quantifiers_rejected() {
            let (m, _, _) = scheduler();
            let fair = TransFairness::unconstrained();
            let free = parse_state("AF crit[i]").unwrap();
            assert!(matches!(
                FairChecker::new(&m, &fair).holds(&free),
                Err(McError::FreeIndexVariable(_))
            ));
            let quant = parse_state("forall i. AF crit[i]").unwrap();
            assert!(matches!(
                FairChecker::new(&m, &fair).holds(&quant),
                Err(McError::QuantifierWithoutIndexSet(_))
            ));
        }

        #[test]
        fn cache_is_shared_across_queries() {
            let (m, _, g2) = scheduler();
            let fair = TransFairness::new([FairReq::new(g2, [])]);
            let mut chk = FairChecker::new(&m, &fair);
            let f = parse_state("AF g2").unwrap();
            let a = chk.sat(&f).unwrap();
            let b = chk.sat(&f).unwrap();
            assert!(Rc::ptr_eq(&a, &b));
            assert!(chk.holds_at(StateId(2), &f).unwrap());
            assert_eq!(chk.structure().num_states(), 3);
        }
    }
}
