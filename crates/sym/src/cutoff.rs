//! Cutoff certification: turn the Section 6 stabilization conjecture
//! into a decision procedure.
//!
//! For a (template, spec, formula) triple the engine looks for the least
//! family size `c` — the **cutoff** — from which the abstract structures
//! stop changing up to correspondence: the counter structure at `n = c`
//! corresponds ([`icstar_bisim::structures_correspond`], the paper's
//! CTL*∖X-preserving equivalence) to the one at `n = c + 1`, and for a
//! quantified formula the width-`k` representative structures correspond
//! too. Correspondence is checked **relative to the formula's own
//! atoms**: labels the formula cannot observe are projected away first.
//! This is what makes certification effective — under the *full*
//! counting vocabulary successive sizes stay distinguishable forever
//! (every size has a corner state where some count crosses `one(p)`),
//! while the handful of atoms one formula mentions stabilizes within a
//! few sizes.
//!
//! **What a certificate establishes, and what it does not.** A
//! [`CutoffCertificate`] records checked facts only: correspondence at
//! `c`/`c + 1` and again at `c + 1`/`c + 2`, and agreeing direct
//! verdicts at a few sampled sizes past `c`. Correspondence preserves
//! every CTL*∖X formula over the retained atoms, so the verdict is
//! *proved* the same at `c`, `c + 1`, `c + 2` and every sampled size.
//! For the unchecked sizes beyond, the certificate *extrapolates*: it
//! is strong evidence that the family has stabilized, not a proof that
//! the verdict holds at every `n ≥ c` — nothing here rules out a
//! template whose behavior changes again at some larger size the checks
//! never reached. A service holding a certificate answers `n = 10⁶`
//! without building anything, on that evidence.
//!
//! The procedure is deliberately conservative:
//!
//! * **Fragment gating** ([`icstar_logic::cutoff_fragment_depth`]):
//!   nexttime is refused outright (an `X` can count abstract steps and
//!   genuinely distinguishes sizes forever — exactly the formulas that
//!   do *not* stabilize), and quantified formulas must be k-restricted.
//!   Fair templates are refused too: plain correspondence does not
//!   preserve fair-path quantification.
//! * **A scan floor**: candidates start above every numeric bound any
//!   guard or counting atom mentions, so a guard like `@p >= 1000` —
//!   whose family genuinely changes behavior at `n = 1000` — can never
//!   be certified below its threshold; with the default horizon it is
//!   *refused* instead ([`CutoffRefusal::FloorBeyondHorizon`]).
//! * **Independent re-verification**: a candidate `c` is only certified
//!   after the equivalence is re-checked one size up (`c + 1` vs
//!   `c + 2`) and the direct verdict is re-computed at sampled sizes
//!   beyond the cutoff and found to agree.
//!
//! Detection cost is a handful of correspondence computations on
//! structures of size `O(c)` — microscopic next to a single build at
//! `n = 10⁶`. Telemetry: `sym.cutoff.detect_ns` (histogram),
//! `sym.cutoff.{certified,refused}` (counters).

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::time::Instant;

use icstar_bisim::structures_correspond;
use icstar_kripke::{Atom, Kripke, KripkeBuilder};
use icstar_logic::{cutoff_fragment_depth, PathFormula, RestrictionError, StateFormula};

use crate::engine::SymEngine;
use crate::error::SymError;
use crate::labels::CountingSpec;
use crate::template::{Guard, GuardedTemplate};

/// The atoms a formula can observe, split by kind. Correspondence is
/// always *relative to an atom set* (the paper fixes one up front), and
/// the right set for a per-formula certificate is the formula's own
/// support: the full counting vocabulary distinguishes successive sizes
/// forever (every size has a state where some count crosses `1`), while
/// the handful of atoms one formula mentions stabilizes almost
/// immediately.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct AtomSupport {
    /// Plain proposition names (counting atoms like `crit_ge2`).
    plain: BTreeSet<String>,
    /// `Θ P` props (`one(crit)` observes "crit").
    theta: BTreeSet<String>,
    /// Indexed proposition names (`crit[i]` observes "crit" at every
    /// representative index).
    indexed: BTreeSet<String>,
}

impl AtomSupport {
    fn of(f: &StateFormula) -> AtomSupport {
        let mut s = AtomSupport::default();
        s.collect_state(f);
        s
    }

    fn collect_state(&mut self, f: &StateFormula) {
        match f {
            StateFormula::True | StateFormula::False => {}
            StateFormula::Prop(p) => {
                self.plain.insert(p.clone());
            }
            StateFormula::Indexed(p, _) => {
                self.indexed.insert(p.clone());
            }
            StateFormula::ExactlyOne(p) => {
                self.theta.insert(p.clone());
            }
            StateFormula::Not(g) => self.collect_state(g),
            StateFormula::And(a, b)
            | StateFormula::Or(a, b)
            | StateFormula::Implies(a, b)
            | StateFormula::Iff(a, b) => {
                self.collect_state(a);
                self.collect_state(b);
            }
            StateFormula::Exists(g) | StateFormula::All(g) => self.collect_path(g),
            StateFormula::ForallIdx(_, g) | StateFormula::ExistsIdx(_, g) => self.collect_state(g),
        }
    }

    fn collect_path(&mut self, g: &PathFormula) {
        match g {
            PathFormula::State(f) => self.collect_state(f),
            PathFormula::Not(h)
            | PathFormula::Eventually(h)
            | PathFormula::Globally(h)
            | PathFormula::Next(h) => self.collect_path(h),
            PathFormula::And(a, b)
            | PathFormula::Or(a, b)
            | PathFormula::Implies(a, b)
            | PathFormula::Until(a, b)
            | PathFormula::Release(a, b) => {
                self.collect_path(a);
                self.collect_path(b);
            }
        }
    }

    fn keeps(&self, atom: &Atom) -> bool {
        match atom {
            Atom::Plain(p) => self.plain.contains(p),
            Atom::Indexed(p, _) => self.indexed.contains(p),
            Atom::ExactlyOne(p) => self.theta.contains(p),
        }
    }
}

/// State counts equated at a candidate pair: `(counter states at c,
/// counter states at c+1)` plus the same pair for the width-k
/// representative structures when a width is in play.
type EquatedStates = ((usize, usize), Option<(usize, usize)>);

/// Copies `m` with every label the support cannot observe dropped:
/// same states, same transitions, labels intersected with the support.
fn project(m: &Kripke, support: &AtomSupport) -> Kripke {
    let mut b = KripkeBuilder::new();
    let ids: Vec<_> = m
        .states()
        .map(|s| {
            b.state_labeled(
                m.state_name(s).to_string(),
                m.label_atoms(s).into_iter().filter(|a| support.keeps(a)),
            )
        })
        .collect();
    for s in m.states() {
        for &t in m.successors(s) {
            b.edge(ids[s.idx()], ids[t.idx()]);
        }
    }
    b.build(ids[m.initial().idx()])
        .expect("projection preserves a valid structure")
}

/// Tuning knobs for [`SymEngine::certify_cutoff_with`].
#[derive(Clone, Debug)]
pub struct CutoffConfig {
    /// Largest candidate cutoff examined; a family that has not
    /// stabilized by here is refused. Also bounds the scan floor: a
    /// template whose guard thresholds exceed `max_c` is refused without
    /// scanning ([`CutoffRefusal::FloorBeyondHorizon`]).
    pub max_c: u32,
    /// Sizes past the re-verified pair (`c+1`, `c+2`) at which the
    /// direct verdict is re-computed and compared against the
    /// certificate (`c + 2 ..= c + 1 + samples`).
    pub samples: u32,
    /// Upper bound on `|S_n| · |S_{n+1}|` for one correspondence
    /// computation (its dense degree matrix); exceeding it refuses the
    /// certification instead of ballooning memory.
    pub max_pairs: u64,
}

impl Default for CutoffConfig {
    /// Horizon 16, three agreement samples, 4M-pair matrices.
    fn default() -> Self {
        CutoffConfig {
            max_c: 16,
            samples: 3,
            max_pairs: 4_000_000,
        }
    }
}

/// The evidence a [`CutoffCertificate`] was issued on — everything an
/// auditor needs to re-run the exact checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CutoffEvidence {
    /// First candidate examined: `max(1, rep width, every guard bound,
    /// every counting-atom threshold the formula mentions)`.
    pub floor: u32,
    /// Candidates examined before (and including) the certified one.
    pub candidates_checked: u32,
    /// Abstract state counts of the corresponding counter structures at
    /// `c` and `c + 1`.
    pub counter_states: (usize, usize),
    /// State counts of the corresponding width-k representative
    /// structures at `c` and `c + 1`; `None` for quantifier-free
    /// formulas (the counter structure alone decides them).
    pub rep_states: Option<(usize, usize)>,
    /// The independently re-verified equivalence pair (`c+1`, `c+2`).
    pub reverified: (u32, u32),
    /// Sizes where the direct verdict was re-computed and agreed.
    pub samples: Vec<u32>,
}

/// A certified stabilization point: the formula's verdict is
/// [`holds`](CutoffCertificate::holds) at the checked sizes (`c`,
/// `c + 1`, `c + 2` and the samples) and is extrapolated to every other
/// `n ≥ c` (see the module docs for what that does and does not prove).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CutoffCertificate {
    /// The cutoff: the certificate covers every family size `n ≥ c`.
    pub c: u32,
    /// The stabilized verdict.
    pub holds: bool,
    /// Distinguished copies the representative construction tracks for
    /// this formula (`0` = quantifier-free, decided on the counter
    /// structure).
    pub rep_width: u32,
    /// How the certificate was established.
    pub evidence: CutoffEvidence,
}

impl CutoffCertificate {
    /// Whether the certificate answers family size `n`.
    pub fn covers(&self, n: u32) -> bool {
        n >= self.c
    }
}

/// Why a cutoff certificate was *not* issued. Refusal is a first-class
/// outcome: issuing a certificate for a non-stabilizing family would be
/// a wrong verdict at some size, so every doubt refuses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CutoffRefusal {
    /// The template declares weak-fairness groups; plain correspondence
    /// does not preserve fair-path quantification, so fair families are
    /// outside the certifiable fragment (a fairness-aware equivalence is
    /// a known follow-on).
    Fair,
    /// The formula is outside the certifiable fragment (nexttime, free
    /// variables, constant indices, or an unrestricted quantifier).
    Fragment(RestrictionError),
    /// A guard or counting-atom threshold pushes the scan floor past the
    /// horizon: the family's behavior still changes at sizes this
    /// certification run will never examine.
    FloorBeyondHorizon {
        /// The computed scan floor.
        floor: u32,
        /// The configured horizon ([`CutoffConfig::max_c`]).
        max_c: u32,
    },
    /// No candidate up to the horizon produced corresponding structures
    /// with agreeing verdicts.
    NoStabilization {
        /// First candidate examined.
        floor: u32,
        /// Last candidate examined.
        scanned_to: u32,
    },
    /// A correspondence computation would exceed
    /// [`CutoffConfig::max_pairs`].
    StructureTooLarge {
        /// The family size whose structure blew the bound.
        n: u32,
        /// The offending `|S_n| · |S_{n+1}|`.
        pairs: u64,
    },
    /// An underlying check failed (unknown atom, bad width, …).
    Check(SymError),
}

impl fmt::Display for CutoffRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CutoffRefusal::Fair => write!(
                f,
                "fair templates are not certifiable (correspondence does not \
                 preserve fair-path quantification)"
            ),
            CutoffRefusal::Fragment(e) => {
                write!(f, "formula outside the certifiable CTL*\\X fragment: {e}")
            }
            CutoffRefusal::FloorBeyondHorizon { floor, max_c } => write!(
                f,
                "guard/atom thresholds push the scan floor to {floor}, past the \
                 horizon {max_c}: the family still changes at unexamined sizes"
            ),
            CutoffRefusal::NoStabilization { floor, scanned_to } => write!(
                f,
                "no stabilization point found in sizes {floor}..={scanned_to}"
            ),
            CutoffRefusal::StructureTooLarge { n, pairs } => write!(
                f,
                "correspondence at n = {n} needs a {pairs}-pair degree matrix, \
                 over the configured bound"
            ),
            CutoffRefusal::Check(e) => write!(f, "check failed during detection: {e}"),
        }
    }
}

impl std::error::Error for CutoffRefusal {}

impl From<CutoffRefusal> for SymError {
    fn from(r: CutoffRefusal) -> Self {
        SymError::CutoffRefused(r.to_string())
    }
}

/// The largest numeric bound any guard of the template mentions
/// (including broadcast guards); `0` for guard-free templates. Part of
/// the scan floor: below this size a guard may still be vacuous or
/// newly satisfiable, so stabilization cannot be trusted there.
pub fn guard_floor(t: &GuardedTemplate) -> u32 {
    let bound = |g: &Guard| match g {
        Guard::AtMost(_, b)
        | Guard::AtLeast(_, b)
        | Guard::Equals(_, b)
        | Guard::StateAtMost(_, b)
        | Guard::StateAtLeast(_, b)
        | Guard::StateEquals(_, b) => *b,
        Guard::InRange(_, _, hi) | Guard::StateInRange(_, _, hi) => *hi,
    };
    let mut floor = 0;
    for q in 0..t.num_states() as u32 {
        for k in 0..t.successors(q).len() {
            for g in t.guards(q, k) {
                floor = floor.max(bound(g));
            }
        }
    }
    for b in t.broadcasts() {
        for g in b.guards() {
            floor = floor.max(bound(g));
        }
    }
    floor
}

/// The largest threshold any counting atom of the spec tests: `k` for
/// `p_ge k`, `1` for `p_eq0`, `2` for `one(p)` (a size must admit both
/// "exactly one" and "more than one" before the atom's behavior is
/// size-generic).
pub fn spec_floor(spec: &CountingSpec) -> u32 {
    let mut floor = 0;
    for (_, k) in spec.at_least_entries() {
        floor = floor.max(k);
    }
    if spec.zero_props().next().is_some() {
        floor = floor.max(1);
    }
    if spec.exactly_one_props().next().is_some() {
        floor = floor.max(2);
    }
    floor
}

/// [`spec_floor`] restricted to the atoms the formula actually mentions
/// — the floor a *per-formula* certificate needs. A `crit_ge2` in the
/// formula floors the scan at 2; thresholds of atoms the formula never
/// reads cannot affect its verdict and are ignored.
fn support_floor(spec: &CountingSpec, support: &AtomSupport) -> u32 {
    let mut floor = 0;
    for (p, k) in spec.at_least_entries() {
        if support.plain.contains(&format!("{p}_ge{k}")) {
            floor = floor.max(k);
        }
    }
    for p in spec.zero_props() {
        if support.plain.contains(&format!("{p}_eq0")) {
            floor = floor.max(1);
        }
    }
    for p in spec.exactly_one_props() {
        if support.theta.contains(p) {
            floor = floor.max(2);
        }
    }
    floor
}

impl SymEngine {
    /// Certifies a stabilization point for `f` on this engine's
    /// (template, spec) with the default [`CutoffConfig`]; see
    /// [`certify_cutoff_with`](SymEngine::certify_cutoff_with).
    ///
    /// # Errors
    ///
    /// A [`CutoffRefusal`] describing why no certificate was issued.
    ///
    /// # Examples
    ///
    /// ```
    /// use icstar_logic::parse_state;
    /// use icstar_sym::{mutex_template, SymEngine};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let engine = SymEngine::new(mutex_template());
    /// let cert = engine.certify_cutoff(&parse_state("AG !crit_ge2")?)?;
    /// assert!(cert.holds);
    /// assert!(cert.covers(1_000_000)); // every n ≥ c, no build needed
    /// # Ok(())
    /// # }
    /// ```
    pub fn certify_cutoff(&self, f: &StateFormula) -> Result<CutoffCertificate, CutoffRefusal> {
        self.certify_cutoff_with(f, &CutoffConfig::default())
    }

    /// Certifies a stabilization point for `f`: scans candidates `c`
    /// from the floor up, demanding (1) the counter structures at `c`
    /// and `c + 1` correspond, (2) for quantified formulas the width-k
    /// representative structures correspond too, (3) the direct
    /// verdicts at `c` and `c + 1` agree, (4) the equivalence holds
    /// again at (`c+1`, `c+2`), and (5) the direct verdict at every
    /// sampled size past the cutoff equals the certified one. The first
    /// candidate surviving all five becomes the certificate.
    ///
    /// # Errors
    ///
    /// A [`CutoffRefusal`] describing why no certificate was issued;
    /// refusal is the designed outcome for non-stabilizing families.
    pub fn certify_cutoff_with(
        &self,
        f: &StateFormula,
        cfg: &CutoffConfig,
    ) -> Result<CutoffCertificate, CutoffRefusal> {
        let telemetry = self.telemetry();
        let detect_ns = telemetry.histogram("sym.cutoff.detect_ns");
        let started = Instant::now();
        let out = self.certify_inner(f, cfg);
        match &out {
            Ok(_) => telemetry.counter("sym.cutoff.certified").inc(),
            Err(_) => telemetry.counter("sym.cutoff.refused").inc(),
        }
        detect_ns.record_duration(started.elapsed());
        out
    }

    fn certify_inner(
        &self,
        f: &StateFormula,
        cfg: &CutoffConfig,
    ) -> Result<CutoffCertificate, CutoffRefusal> {
        if self.template().is_fair() {
            return Err(CutoffRefusal::Fair);
        }
        let width = cutoff_fragment_depth(f).map_err(CutoffRefusal::Fragment)? as u32;
        let support = AtomSupport::of(f);
        let floor = 1
            .max(width)
            .max(guard_floor(self.template()))
            .max(support_floor(self.spec(), &support));
        if floor > cfg.max_c {
            return Err(CutoffRefusal::FloorBeyondHorizon {
                floor,
                max_c: cfg.max_c,
            });
        }

        // Each size's structures are built (and projected to the
        // formula's support) once per certification; the sizes involved
        // are all O(max_c), so this map stays tiny.
        let mut counters: HashMap<u32, Kripke> = HashMap::new();
        let mut reps: HashMap<u32, Kripke> = HashMap::new();

        for c in floor..=cfg.max_c {
            let candidates_checked = c - floor + 1;
            let Some((counter_states, rep_states)) =
                self.sizes_equivalent(c, c + 1, width, &support, cfg, &mut counters, &mut reps)?
            else {
                continue;
            };
            let holds = self.check(c, f).map_err(CutoffRefusal::Check)?;
            if self.check(c + 1, f).map_err(CutoffRefusal::Check)? != holds {
                continue;
            }
            // Independent re-verification: the equivalence one size up,
            // then direct verdicts at sampled sizes past the cutoff.
            if self
                .sizes_equivalent(c + 1, c + 2, width, &support, cfg, &mut counters, &mut reps)?
                .is_none()
            {
                continue;
            }
            let sample_sizes: Vec<u32> = (c + 2..=c + 1 + cfg.samples.max(1)).collect();
            let mut agreed = true;
            for &s in &sample_sizes {
                if self.check(s, f).map_err(CutoffRefusal::Check)? != holds {
                    agreed = false;
                    break;
                }
            }
            if !agreed {
                continue;
            }
            return Ok(CutoffCertificate {
                c,
                holds,
                rep_width: width,
                evidence: CutoffEvidence {
                    floor,
                    candidates_checked,
                    counter_states,
                    rep_states,
                    reverified: (c + 1, c + 2),
                    samples: sample_sizes,
                },
            });
        }
        Err(CutoffRefusal::NoStabilization {
            floor,
            scanned_to: cfg.max_c,
        })
    }

    /// Whether sizes `a` and `b` have corresponding structures for a
    /// width-`width` check *as seen through the formula's atoms*:
    /// `Some((counter_states, rep_states))` when every required
    /// correspondence holds on the projected structures, `None` when
    /// one fails. The caches hold projected structures.
    #[allow(clippy::too_many_arguments)]
    fn sizes_equivalent(
        &self,
        a: u32,
        b: u32,
        width: u32,
        support: &AtomSupport,
        cfg: &CutoffConfig,
        counters: &mut HashMap<u32, Kripke>,
        reps: &mut HashMap<u32, Kripke>,
    ) -> Result<Option<EquatedStates>, CutoffRefusal> {
        for n in [a, b] {
            counters
                .entry(n)
                .or_insert_with(|| project(&self.counter_structure(n), support));
        }
        let ka = &counters[&a];
        let kb = &counters[&b];
        let pairs = ka.num_states() as u64 * kb.num_states() as u64;
        if pairs > cfg.max_pairs {
            return Err(CutoffRefusal::StructureTooLarge { n: b, pairs });
        }
        let counter_states = (ka.num_states(), kb.num_states());
        if !structures_correspond(ka, kb) {
            return Ok(None);
        }
        let rep_states = if width > 0 {
            for n in [a, b] {
                if let Entry::Vacant(e) = reps.entry(n) {
                    let rep = self
                        .representative_structure(n, width)
                        .map_err(CutoffRefusal::Check)?;
                    e.insert(project(rep.kripke(), support));
                }
            }
            let ra = &reps[&a];
            let rb = &reps[&b];
            let pairs = ra.num_states() as u64 * rb.num_states() as u64;
            if pairs > cfg.max_pairs {
                return Err(CutoffRefusal::StructureTooLarge { n: b, pairs });
            }
            if !structures_correspond(ra, rb) {
                return Ok(None);
            }
            Some((ra.num_states(), rb.num_states()))
        } else {
            None
        };
        Ok(Some((counter_states, rep_states)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{mutex_template, GuardedBuilder};
    use crate::workloads::{barrier_template, msi_template, wakeup_template};
    use icstar_logic::parse_state;

    #[test]
    fn mutex_counting_formula_certifies_and_agrees() {
        let engine = SymEngine::new(mutex_template());
        let f = parse_state("AG !crit_ge2").unwrap();
        let cert = engine.certify_cutoff(&f).unwrap();
        assert!(cert.holds);
        assert_eq!(cert.rep_width, 0);
        assert!(cert.evidence.floor >= 2, "one(p) atoms floor the scan at 2");
        assert!(cert.covers(cert.c) && cert.covers(1_000_000));
        assert!(!cert.covers(cert.c - 1));
        // The certificate's whole claim: direct verdicts agree well past c.
        for n in cert.c..=cert.c + 5 {
            assert_eq!(engine.check(n, &f).unwrap(), cert.holds, "n = {n}");
        }
    }

    #[test]
    fn mutex_quantified_formula_certifies_with_width() {
        let engine = SymEngine::new(mutex_template());
        let f = parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap();
        let cert = engine.certify_cutoff(&f).unwrap();
        assert!(cert.holds);
        assert_eq!(cert.rep_width, 1);
        assert!(cert.evidence.rep_states.is_some());
        let depth2 = parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap();
        let cert2 = engine.certify_cutoff(&depth2).unwrap();
        assert!(cert2.holds);
        assert_eq!(cert2.rep_width, 2);
    }

    #[test]
    fn failing_formulas_certify_their_failure() {
        let engine = SymEngine::new(mutex_template());
        let f = parse_state("EF crit_ge2").unwrap();
        let cert = engine.certify_cutoff(&f).unwrap();
        assert!(!cert.holds, "the stabilized verdict is `fails`");
    }

    #[test]
    fn broadcast_workloads_certify() {
        for (t, src) in [
            (barrier_template(), "AG (phase1_ge1 -> phase0_eq0)"),
            (msi_template(), "AG !modified_ge2"),
            (
                wakeup_template(),
                "AG ((awake_ge1 | working_ge1) -> asleep_eq0)",
            ),
        ] {
            let engine = SymEngine::new(t);
            let f = parse_state(src).unwrap();
            let cert = engine.certify_cutoff(&f).unwrap_or_else(|r| {
                panic!("{src}: refused: {r}");
            });
            assert!(cert.holds, "{src}");
            for n in cert.c..=cert.c + 4 {
                assert!(engine.check(n, &f).unwrap(), "{src} at n = {n}");
            }
        }
    }

    #[test]
    fn nexttime_is_refused() {
        let engine = SymEngine::new(mutex_template());
        let f = parse_state("AX idle_ge1").unwrap();
        assert!(matches!(
            engine.certify_cutoff(&f),
            Err(CutoffRefusal::Fragment(RestrictionError::NextUsed))
        ));
    }

    #[test]
    fn fair_templates_are_refused() {
        let engine = SymEngine::new(mutex_template().with_fairness("go", [(0, 1)]));
        let f = parse_state("AG !crit_ge2").unwrap();
        assert_eq!(engine.certify_cutoff(&f), Err(CutoffRefusal::Fair));
    }

    #[test]
    fn big_threshold_family_is_refused_not_certified() {
        // The deliberately non-stabilizing family: nothing happens until
        // 1000 copies wait, then a `boom`-labeled state becomes
        // reachable. `EF boom_ge1` flips from fails to holds at
        // n = 1000 — a certificate issued from small-n evidence would be
        // wrong for every n ≥ 1000, so the floor rule must refuse.
        let mut b = GuardedBuilder::new();
        let wait = b.state("wait", ["wait"]);
        let boom = b.state("boom", ["boom"]);
        b.edge(wait, wait);
        b.edge_guarded(wait, boom, [Guard::at_least("wait", 1000)]);
        b.edge(boom, boom);
        let engine = SymEngine::new(b.build(wait));
        let f = parse_state("EF boom_ge1").unwrap();
        match engine.certify_cutoff(&f) {
            Err(CutoffRefusal::FloorBeyondHorizon { floor, .. }) => {
                assert!(floor >= 1000);
            }
            other => panic!("expected FloorBeyondHorizon, got {other:?}"),
        }
        // And the family genuinely flips: the refusal is load-bearing.
        assert!(!engine.check(999, &f).unwrap());
        assert!(engine.check(1000, &f).unwrap());
    }

    #[test]
    fn unknown_atoms_refuse_with_the_check_error() {
        let engine = SymEngine::new(mutex_template());
        let f = parse_state("AG bogus").unwrap();
        assert!(matches!(
            engine.certify_cutoff(&f),
            Err(CutoffRefusal::Check(SymError::UnknownAtom(_)))
        ));
    }

    #[test]
    fn floors_account_for_guards_and_spec() {
        let t = mutex_template();
        assert_eq!(guard_floor(&t), 0, "mutex guards only test `@crit <= 0`");
        assert_eq!(spec_floor(&CountingSpec::standard(&t)), 2);
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let z = b.state("z", ["z"]);
        b.edge(a, a);
        b.edge_guarded(a, z, [Guard::in_range("a", 3, 7)]);
        b.edge(z, z);
        assert_eq!(guard_floor(&b.build(a)), 7, "interval guards floor at hi");
    }

    #[test]
    fn refusals_render_and_convert() {
        let r = CutoffRefusal::NoStabilization {
            floor: 2,
            scanned_to: 16,
        };
        assert!(r.to_string().contains("2..=16"));
        let e: SymError = r.into();
        assert!(matches!(e, SymError::CutoffRefused(_)));
        assert!(e.to_string().contains("no cutoff certificate"));
    }

    #[test]
    fn telemetry_counts_outcomes() {
        use icstar_telemetry::Registry;
        let registry = Registry::new();
        let engine = SymEngine::new(mutex_template()).with_telemetry(registry.clone());
        engine
            .certify_cutoff(&parse_state("AG !crit_ge2").unwrap())
            .unwrap();
        engine
            .certify_cutoff(&parse_state("AX idle_ge1").unwrap())
            .unwrap_err();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sym.cutoff.certified"), Some(1));
        assert_eq!(snap.counter("sym.cutoff.refused"), Some(1));
        assert_eq!(
            snap.histogram("sym.cutoff.detect_ns").map(|h| h.count),
            Some(2),
            "refusals are timed too"
        );
    }
}
