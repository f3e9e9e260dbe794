//! The CTL* model checker.
//!
//! [`Checker`] labels a structure with the satisfying-state set of any
//! (quantifier-free, closed) CTL* state formula, recursively, optionally
//! with its path quantifiers ranging over the fair paths of a
//! [`TransFairness`] constraint only ([`Checker::fair`]):
//!
//! * boolean structure and atoms are evaluated directly on the labels;
//! * path quantifications in **CTL shape** (`E[f U g]`, `AG f`, `EX f`, …)
//!   go through the fair operators of [`crate::fair`] — `EG` by SCCs,
//!   `EU`/`EX` by backward search, every other shape by duality — which
//!   with no requirements are the linear-time labeling algorithm the
//!   paper invokes (Clarke–Emerson–Sistla);
//! * arbitrary path formulas go through the automata route: maximal state
//!   subformulas are checked recursively and become literals, the rest is
//!   LTL translated to a generalized Büchi automaton ([`crate::buchi`])
//!   and decided on the product ([`crate::product`]). The product knows
//!   no fairness, so under requirements such formulas are refused with
//!   [`McError::NotCtl`].
//!
//! Index quantifiers are *not* handled here — see
//! [`IndexedChecker`](crate::IndexedChecker), which expands them over a
//! concrete index set and delegates to this checker.

use std::collections::HashMap;
use std::rc::Rc;

use icstar_kripke::bits::BitSet;
use icstar_kripke::path::Lasso;
use icstar_kripke::{Atom, Kripke, StateId};
use icstar_logic::{collapse_states, nnf_path, IndexTerm, Nnf, PathFormula, StateFormula};

use crate::buchi::{ltl_to_gba, LitId};
use crate::ctl;
use crate::error::McError;
use crate::fair::{self, eg_fair, eu_fair, ex_fair, TransFairness};
use crate::product::Product;

/// A CTL* model checker for one structure under one fairness constraint
/// (none for [`Checker::new`]), with a satisfaction cache shared across
/// formulas (state subformulas are checked once).
///
/// # Examples
///
/// ```
/// use icstar_kripke::{Atom, KripkeBuilder};
/// use icstar_logic::parse_state;
/// use icstar_mc::Checker;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = KripkeBuilder::new();
/// let s0 = b.state_labeled("s0", [Atom::plain("p")]);
/// let s1 = b.state_labeled("s1", [Atom::plain("q")]);
/// b.edge(s0, s1);
/// b.edge(s1, s0);
/// let m = b.build(s0)?;
///
/// let mut chk = Checker::new(&m);
/// assert!(chk.holds(&parse_state("AG (p | q)")?)?);
/// assert!(chk.holds(&parse_state("A(G F p)")?)?); // full CTL*, not CTL
/// assert!(!chk.holds(&parse_state("EG p")?)?);
/// # Ok(())
/// # }
/// ```
pub struct Checker<'a> {
    m: &'a Kripke,
    fair: &'a TransFairness,
    cache: HashMap<StateFormula, Rc<BitSet>>,
}

impl<'a> Checker<'a> {
    /// Creates a checker for `m` over all paths.
    pub fn new(m: &'a Kripke) -> Self {
        Checker::fair(m, &fair::UNCONSTRAINED)
    }

    /// Creates a checker for `m` whose path quantifiers range over the
    /// paths meeting every requirement of `fair` only. Under requirements
    /// only the CTL fragment is supported (every path quantifier wrapping
    /// one temporal operator over state operands, after
    /// [`collapse_states`] normalization); other path formulas are
    /// refused with [`McError::NotCtl`]. Without requirements this is
    /// [`Checker::new`].
    ///
    /// See the [`crate::fair`] module for an example.
    pub fn fair(m: &'a Kripke, fair: &'a TransFairness) -> Self {
        Checker {
            m,
            fair,
            cache: HashMap::new(),
        }
    }

    /// The structure under analysis.
    pub fn structure(&self) -> &'a Kripke {
        self.m
    }

    /// Whether `f` holds in the initial state.
    ///
    /// # Errors
    ///
    /// Returns [`McError`] if `f` contains free index variables or index
    /// quantifiers, or, under fairness requirements, a path formula
    /// outside the CTL fragment.
    pub fn holds(&mut self, f: &StateFormula) -> Result<bool, McError> {
        Ok(self.sat(f)?.contains(self.m.initial().idx()))
    }

    /// Whether `f` holds at state `s`.
    ///
    /// # Errors
    ///
    /// See [`Checker::holds`].
    pub fn holds_at(&mut self, s: StateId, f: &StateFormula) -> Result<bool, McError> {
        Ok(self.sat(f)?.contains(s.idx()))
    }

    /// The set of states satisfying `f`.
    ///
    /// # Errors
    ///
    /// See [`Checker::holds`].
    pub fn sat(&mut self, f: &StateFormula) -> Result<Rc<BitSet>, McError> {
        if let Some(hit) = self.cache.get(f) {
            return Ok(Rc::clone(hit));
        }
        let result = self.compute(f)?;
        let rc = Rc::new(result);
        self.cache.insert(f.clone(), Rc::clone(&rc));
        Ok(rc)
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
            Exists(p) => self.sat_quantified(true, p)?,
            All(p) => self.sat_quantified(false, p)?,
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

    /// `Θ P`: prefer a baked-in `one(P)` atom (added by
    /// [`IndexedKripke::with_exactly_one`](icstar_kripke::IndexedKripke::with_exactly_one));
    /// otherwise count the indexed instances of `P` present in each label.
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

    /// `E p` (`exists = true`) or `A p` (`exists = false`). A CTL-shaped
    /// `p` goes through the fair operators, `A p` as `¬E ¬p` with the
    /// negation pushed through the one temporal operator (`¬X f = X ¬f`,
    /// `¬(f U g) = ¬f R ¬g`, `¬F f = G ¬f`); any other `p` through the
    /// Büchi product, which needs no requirements.
    fn sat_quantified(&mut self, exists: bool, p: &PathFormula) -> Result<BitSet, McError> {
        use PathFormula::*;
        let p = collapse_states(p);
        let (m, fair) = (self.m, self.fair);
        let shaped = match (&p, exists) {
            // A state formula holds on some fair path iff it holds here
            // and a fair path starts here.
            (State(f), _) => {
                let mut s = self.operand(f, exists)?;
                s.intersect_with(&fair::fair_states(m, fair));
                Some(s)
            }
            (Next(g), _) => match &**g {
                State(f) => Some(ex_fair(m, &self.operand(f, exists)?, fair)),
                _ => None,
            },
            (Eventually(g), true) | (Globally(g), false) => match &**g {
                State(f) => Some(eu_fair(
                    m,
                    &ctl::full_set(m),
                    &self.operand(f, exists)?,
                    fair,
                )),
                _ => None,
            },
            (Globally(g), true) | (Eventually(g), false) => match &**g {
                State(f) => Some(eg_fair(m, &self.operand(f, exists)?, fair)),
                _ => None,
            },
            (Until(a, b), true) | (Release(a, b), false) => match (&**a, &**b) {
                (State(f), State(g)) => {
                    let sf = self.operand(f, exists)?;
                    Some(eu_fair(m, &sf, &self.operand(g, exists)?, fair))
                }
                _ => None,
            },
            // E[f R g] = E[g U (f ∧ g)] ∨ EG g.
            (Release(a, b), true) | (Until(a, b), false) => match (&**a, &**b) {
                (State(f), State(g)) => {
                    let mut fg = self.operand(f, exists)?;
                    let sg = self.operand(g, exists)?;
                    fg.intersect_with(&sg);
                    let mut s = eu_fair(m, &sg, &fg, fair);
                    s.union_with(&eg_fair(m, &sg, fair));
                    Some(s)
                }
                _ => None,
            },
            _ => None,
        };
        let mut out = match shaped {
            Some(out) => out,
            None => {
                let query = if exists { p } else { Not(Box::new(p)) };
                let (nnf, lits) = self.literalize(&query)?;
                Product::explore(m, &ltl_to_gba(&nnf), &lits).e_states()
            }
        };
        if !exists {
            out.complement();
        }
        Ok(out)
    }

    /// The satisfaction set of an operand of `E` (`exists = true`), or
    /// its complement for the `¬E ¬p` form of `A`.
    fn operand(&mut self, f: &StateFormula, exists: bool) -> Result<BitSet, McError> {
        let mut s = (*self.sat(f)?).clone();
        if !exists {
            s.complement();
        }
        Ok(s)
    }

    /// A satisfying lasso for `E p` from `s`, if any — the witness (or,
    /// applied to `¬p`, the counterexample) surfaced to users.
    ///
    /// # Errors
    ///
    /// See [`Checker::holds`]; under fairness requirements always
    /// [`McError::NotCtl`] (the witness comes from the Büchi product).
    pub fn exists_witness(
        &mut self,
        s: StateId,
        p: &PathFormula,
    ) -> Result<Option<Lasso>, McError> {
        let p = collapse_states(p);
        let (nnf, lits) = self.literalize(&p)?;
        let gba = ltl_to_gba(&nnf);
        let prod = Product::explore(self.m, &gba, &lits);
        Ok(prod.witness(s))
    }

    /// Converts a path formula into NNF over literal ids, checking each
    /// maximal state subformula recursively. The product it feeds knows
    /// no fairness, so this refuses under requirements.
    fn literalize(&mut self, p: &PathFormula) -> Result<(Nnf<LitId>, Vec<BitSet>), McError> {
        if !self.fair.is_empty() {
            return Err(McError::NotCtl(p.to_string()));
        }
        let nnf = nnf_path(p);
        let mut table: Vec<BitSet> = Vec::new();
        let mut ids: HashMap<StateFormula, LitId> = HashMap::new();
        let out = self.map_lits(&nnf, &mut table, &mut ids)?;
        Ok((out, table))
    }

    fn map_lits(
        &mut self,
        f: &Nnf<StateFormula>,
        table: &mut Vec<BitSet>,
        ids: &mut HashMap<StateFormula, LitId>,
    ) -> Result<Nnf<LitId>, McError> {
        Ok(match f {
            Nnf::True => Nnf::True,
            Nnf::False => Nnf::False,
            Nnf::Lit { atom, negated } => {
                let id = match ids.get(atom) {
                    Some(&id) => id,
                    None => {
                        let sat = (*self.sat(atom)?).clone();
                        let id = LitId(table.len() as u32);
                        table.push(sat);
                        ids.insert(atom.clone(), id);
                        id
                    }
                };
                Nnf::Lit {
                    atom: id,
                    negated: *negated,
                }
            }
            Nnf::And(a, b) => Nnf::And(
                Rc::new(self.map_lits(a, table, ids)?),
                Rc::new(self.map_lits(b, table, ids)?),
            ),
            Nnf::Or(a, b) => Nnf::Or(
                Rc::new(self.map_lits(a, table, ids)?),
                Rc::new(self.map_lits(b, table, ids)?),
            ),
            Nnf::Until(a, b) => Nnf::Until(
                Rc::new(self.map_lits(a, table, ids)?),
                Rc::new(self.map_lits(b, table, ids)?),
            ),
            Nnf::Release(a, b) => Nnf::Release(
                Rc::new(self.map_lits(a, table, ids)?),
                Rc::new(self.map_lits(b, table, ids)?),
            ),
            Nnf::Next(a) => Nnf::Next(Rc::new(self.map_lits(a, table, ids)?)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_kripke::KripkeBuilder;
    use icstar_logic::parse_state;

    /// The classic microwave-ish example:
    /// s0() -> s1(p) -> s2(p,q) -> s0 ; s2 -> s2 ; s0 -> s3(q) -> s3
    fn sample() -> Kripke {
        let mut b = KripkeBuilder::new();
        let s0 = b.state("s0");
        let s1 = b.state_labeled("s1", [Atom::plain("p")]);
        let s2 = b.state_labeled("s2", [Atom::plain("p"), Atom::plain("q")]);
        let s3 = b.state_labeled("s3", [Atom::plain("q")]);
        b.edge(s0, s1);
        b.edge(s1, s2);
        b.edge(s2, s0);
        b.edge(s2, s2);
        b.edge(s0, s3);
        b.edge(s3, s3);
        b.build(s0).unwrap()
    }

    fn sat_ids(m: &Kripke, src: &str) -> Vec<usize> {
        let mut chk = Checker::new(m);
        let f = parse_state(src).unwrap();
        chk.sat(&f).unwrap().iter().collect()
    }

    #[test]
    fn atoms_and_booleans() {
        let m = sample();
        assert_eq!(sat_ids(&m, "p"), vec![1, 2]);
        assert_eq!(sat_ids(&m, "q"), vec![2, 3]);
        assert_eq!(sat_ids(&m, "p & q"), vec![2]);
        assert_eq!(sat_ids(&m, "p | q"), vec![1, 2, 3]);
        assert_eq!(sat_ids(&m, "!p"), vec![0, 3]);
        assert_eq!(sat_ids(&m, "p -> q"), vec![0, 2, 3]);
        assert_eq!(sat_ids(&m, "p <-> q"), vec![0, 2]);
        assert_eq!(sat_ids(&m, "true").len(), 4);
        assert_eq!(sat_ids(&m, "false").len(), 0);
    }

    #[test]
    fn unknown_atom_is_false_everywhere() {
        let m = sample();
        assert!(sat_ids(&m, "nosuch").is_empty());
    }

    #[test]
    fn ctl_operators() {
        let m = sample();
        assert_eq!(sat_ids(&m, "EX p"), vec![0, 1, 2]); // s2 -> s2 self-loop
        assert_eq!(sat_ids(&m, "AX p"), vec![1]); // s1 -> {s2} only
        assert_eq!(sat_ids(&m, "EF q").len(), 4);
        assert_eq!(sat_ids(&m, "AF q").len(), 4); // every path hits q
        assert_eq!(sat_ids(&m, "EG q"), vec![2, 3]);
        assert_eq!(sat_ids(&m, "AG q"), vec![3]);
        assert_eq!(sat_ids(&m, "E[p U q]"), vec![1, 2, 3]);
        // A[p U q]: s3 trivially (q); s2 (q now); s1: only path via s2: ok.
        assert_eq!(sat_ids(&m, "A[p U q]"), vec![1, 2, 3]);
    }

    #[test]
    fn release_shapes() {
        let m = sample();
        // E[p R q]: q until p∧q (inclusive) or q forever.
        // s3: q forever (s3^ω) ✓. s2: p∧q now ✓.
        assert_eq!(sat_ids(&m, "E(p R q)"), vec![2, 3]);
        // A[p R q] at s3: only path s3^ω stays in q ✓.
        let a_r = sat_ids(&m, "A(p R q)");
        assert!(a_r.contains(&3));
        assert!(!a_r.contains(&0));
    }

    #[test]
    fn full_ctl_star_formulas() {
        let m = sample();
        // A(G F p) — along every path, p infinitely often? The s3 self-loop
        // never sees p, so it fails at s3 and at any state that can reach
        // s3... for A it fails where SOME path violates: everywhere (all
        // states except... s0 -> s3^ω: violates; s1 -> s2 -> s0 -> s3:
        // violates; s2 -> s2^ω has p forever: but A needs ALL paths.
        assert_eq!(sat_ids(&m, "A(G F p)"), Vec::<usize>::new());
        // E(G F p): loop s2^ω visits p infinitely often; reachable from all
        // of s0,s1,s2 but not s3.
        assert_eq!(sat_ids(&m, "E(G F p)"), vec![0, 1, 2]);
        // E(F G q): eventually forever q: s3^ω or s2^ω work.
        assert_eq!(sat_ids(&m, "E(F G q)").len(), 4);
        // A(F G q): s3 only (its single path is s3^ω)? s2 can loop in q
        // forever but can also go s0 -> s1 -> s2... which visits p-only
        // and q-less states infinitely often unless it settles; the path
        // (s2 s0 s1)^ω never settles in q: fails. s3: holds.
        assert_eq!(sat_ids(&m, "A(F G q)"), vec![3]);
        // Boolean path structure: E(F p & F q).
        assert_eq!(sat_ids(&m, "E(F p & F q)"), vec![0, 1, 2]);
        // Until over non-state operands: E((p U q) U (q & !p)).
        let v = sat_ids(&m, "E((p U q) U (q & !p))");
        assert!(v.contains(&3));
    }

    #[test]
    fn ctl_and_ctlstar_agree_on_ctl() {
        // The CTL fast path and the Büchi route must agree: force the
        // general route by wrapping in redundant path structure.
        let m = sample();
        for (ctl_src, star_src) in [
            ("EF q", "E(true U q)"),
            ("AG p", "!E(F !p)"),
            ("AF q", "A(F q)"),
            ("EG q", "E(G q)"),
            ("E[p U q]", "E(p U q)"),
        ] {
            assert_eq!(sat_ids(&m, ctl_src), sat_ids(&m, star_src), "{ctl_src}");
        }
    }

    #[test]
    fn quantifier_without_index_set_errors() {
        let m = sample();
        let mut chk = Checker::new(&m);
        let f = parse_state("forall i. p").unwrap();
        assert!(matches!(
            chk.sat(&f),
            Err(McError::QuantifierWithoutIndexSet(_))
        ));
        let g = parse_state("d[i]").unwrap();
        assert!(matches!(chk.sat(&g), Err(McError::FreeIndexVariable(_))));
    }

    #[test]
    fn witness_for_general_path_formula() {
        let m = sample();
        let mut chk = Checker::new(&m);
        let p = icstar_logic::parse_path("G F p").unwrap();
        let w = chk
            .exists_witness(StateId(0), &p)
            .unwrap()
            .expect("E(GF p) holds at s0");
        assert!(w.is_path_of(&m));
        // The cycle must contain a p-state.
        assert!(w
            .cycle
            .iter()
            .any(|&s| m.satisfies_atom(s, &Atom::plain("p"))));
    }

    #[test]
    fn cache_is_reused() {
        let m = sample();
        let mut chk = Checker::new(&m);
        let f = parse_state("EF q").unwrap();
        let a = chk.sat(&f).unwrap();
        let b = chk.sat(&f).unwrap();
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn exactly_one_computed_on_the_fly() {
        let mut b = KripkeBuilder::new();
        let s0 = b.state_labeled("s0", [Atom::indexed("t", 1)]);
        let s1 = b.state_labeled("s1", [Atom::indexed("t", 1), Atom::indexed("t", 2)]);
        let s2 = b.state("s2");
        b.edge(s0, s1);
        b.edge(s1, s2);
        b.edge(s2, s0);
        let m = b.build(s0).unwrap();
        assert_eq!(sat_ids(&m, "one(t)"), vec![0]);
        assert_eq!(sat_ids(&m, "AG one(t)"), Vec::<usize>::new());
    }
}
