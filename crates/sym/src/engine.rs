//! The high-level counter-abstraction checking engine.
//!
//! [`SymEngine`] bundles a [`GuardedTemplate`] with a [`CountingSpec`] and
//! answers queries at any family size `n` without ever building the
//! `|Q|^n`-state explicit composition:
//!
//! * **counting formulas** — plain CTL* over counting atoms
//!   (`crit_ge2`, `try_eq0`, `one(crit)`, …) are checked on the
//!   materialized counter graph ([`SymEngine::check_counting`]); the
//!   abstraction is exact, so even the nexttime operator is allowed here;
//! * **indexed formulas** — closed *k-restricted* ICTL* with (possibly
//!   nested) quantifiers `forall i.`/`exists j.` is checked on the
//!   multi-representative structure whose width `k` is the formula's
//!   quantifier nesting depth, capped at `n`
//!   ([`SymEngine::check_indexed`]); see [`crate::rep`] for why the
//!   restriction is the soundness boundary;
//! * [`SymEngine::check`] dispatches between the two;
//!   [`SymSession::check_described`] additionally reports the chosen
//!   width ([`CheckRun`]).
//!
//! [`SymEngine::cross_check`] runs the bisimulation oracle of
//! [`crate::crosscheck`] at a small `n`, mechanically auditing the
//! abstraction for the given template.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use icstar_kripke::{Atom, IndexedKripke, Kripke};
use icstar_logic::{
    expand_representatives, fair_fragment_depth, has_index_quantifier, restricted_depth,
    PathFormula, StateFormula,
};
use icstar_mc::Checker;
use icstar_telemetry::{FlightRecorder, Registry, SpanContext};

use crate::crosscheck::verify_counter_abstraction;
use crate::error::SymError;
use crate::explore::CounterSystem;
use crate::fairness::{self, CounterGraph, RepGraph};
use crate::labels::CountingSpec;
use crate::template::GuardedTemplate;

/// The outcome of one check, with the backend routing it used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckRun {
    /// Whether the formula holds.
    pub holds: bool,
    /// How many distinguished copies the representative construction
    /// tracked for this formula — `min(quantifier depth, n)`; `0` when
    /// the formula was checked on the plain counter structure (no index
    /// quantifiers, or `n = 0`).
    pub rep_width: u32,
    /// Whether path quantifiers ranged over *fair* paths only — true
    /// exactly when the template declares weak-fairness constraints
    /// ([`GuardedTemplate::is_fair`]), in which case the formula was
    /// gated to the CTL fragment and checked under the compiled
    /// [`icstar_mc::fair::TransFairness`] (every structure is checked by
    /// [`Checker::fair`]; unfair templates compile to no requirements).
    pub fair: bool,
}

/// The representative width [`SymSession::check`] will route `f` through
/// at family size `n`: `0` for quantifier-free formulas and at `n = 0`
/// (both go to the counter structure), otherwise the quantifier nesting
/// depth capped at `n`.
///
/// # Errors
///
/// [`SymError::NotRestricted`] outside the k-restricted fragment.
pub fn required_rep_width(f: &StateFormula, n: u32) -> Result<u32, SymError> {
    if !has_index_quantifier(f) {
        return Ok(0);
    }
    let depth = restricted_depth(f)? as u32;
    Ok(depth.min(n))
}

/// A counter-abstraction model checker for one symmetric family.
///
/// # Examples
///
/// ```
/// use icstar_logic::parse_state;
/// use icstar_sym::{mutex_template, SymEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = SymEngine::new(mutex_template());
/// // Mutual exclusion at 10,000 processes, without 3^10000 states:
/// assert!(engine.check(10_000, &parse_state("AG !crit_ge2")?)?);
/// assert!(engine.check(10_000, &parse_state("forall i. AG(try[i] -> EF crit[i])")?)?);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SymEngine {
    template: GuardedTemplate,
    spec: CountingSpec,
    telemetry: Registry,
}

impl SymEngine {
    /// An engine with the [`CountingSpec::standard`] labeling.
    ///
    /// Engine metrics (`sym.explore.*`, `sym.rep.*`, `sym.check.ns`) go
    /// to [`Registry::global`]; use [`SymEngine::with_telemetry`] to
    /// redirect them (as `icstar-serve` does, into its per-service
    /// registry).
    pub fn new(template: GuardedTemplate) -> Self {
        let spec = CountingSpec::standard(&template);
        SymEngine {
            template,
            spec,
            telemetry: Registry::global().clone(),
        }
    }

    /// An engine with a custom counting spec.
    pub fn with_spec(template: GuardedTemplate, spec: CountingSpec) -> Self {
        SymEngine {
            template,
            spec,
            telemetry: Registry::global().clone(),
        }
    }

    /// Redirects this engine's metrics (and those of every
    /// [`CounterSystem`] it creates) to `registry`.
    #[must_use]
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = registry;
        self
    }

    /// The registry this engine's metrics land in.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// The template.
    pub fn template(&self) -> &GuardedTemplate {
        &self.template
    }

    /// The active counting spec.
    pub fn spec(&self) -> &CountingSpec {
        &self.spec
    }

    /// The counter system at size `n` (on-the-fly, no materialization).
    pub fn system(&self, n: u32) -> CounterSystem {
        CounterSystem::new(self.template.clone(), n).with_telemetry(self.telemetry.clone())
    }

    /// Materializes the counter-abstracted structure at size `n`.
    pub fn counter_structure(&self, n: u32) -> Kripke {
        self.system(n).kripke(&self.spec)
    }

    /// Materializes the counter structure at size `n` bundled with the
    /// template's compiled fairness requirements — the unit sessions
    /// cache and fair checks run on. For templates without fairness
    /// declarations the bundle carries an unconstrained
    /// [`icstar_mc::fair::TransFairness`] at no extra cost.
    pub fn counter_graph(&self, n: u32) -> CounterGraph {
        fairness::counter_graph(&self.system(n), &self.spec)
    }

    /// [`SymEngine::counter_graph`] with the sharded exploration
    /// underneath ([`CounterSystem::kripke_sharded`]).
    pub fn counter_graph_sharded(&self, n: u32, shards: usize) -> CounterGraph {
        self.counter_graph_sharded_traced(n, shards, None)
    }

    /// As [`SymEngine::counter_graph_sharded`], optionally attaching the
    /// exploration to a causal trace: with `trace = Some((recorder,
    /// parent))`, every shard worker records a `shard[i]` span under
    /// `parent` ([`CounterSystem::with_trace`]) — this is how a served
    /// job's `build` span acquires per-shard children.
    pub fn counter_graph_sharded_traced(
        &self,
        n: u32,
        shards: usize,
        trace: Option<(FlightRecorder, SpanContext)>,
    ) -> CounterGraph {
        let mut sys = self.system(n);
        if let Some((recorder, parent)) = trace {
            sys = sys.with_trace(recorder, parent);
        }
        fairness::counter_graph_sharded(&sys, &self.spec, shards)
    }

    /// Materializes the width-`width` representative structure at size
    /// `n` (the distinguished-copies construction behind
    /// [`SymEngine::check_indexed`]).
    ///
    /// # Errors
    ///
    /// [`SymError::EmptyFamily`] at `n = 0`; [`SymError::BadRepWidth`]
    /// unless `1 ≤ width ≤ n`.
    pub fn representative_structure(&self, n: u32, width: u32) -> Result<IndexedKripke, SymError> {
        self.representative_graph(n, width).map(|g| g.kripke)
    }

    /// Materializes the width-`width` representative structure at size
    /// `n` bundled with the template's compiled fairness requirements.
    ///
    /// # Errors
    ///
    /// As [`SymEngine::representative_structure`].
    pub fn representative_graph(&self, n: u32, width: u32) -> Result<RepGraph, SymError> {
        // Per-width timing: width is bounded by the quantifier nesting
        // depth of real formulas, so the name cardinality stays tiny.
        // Failed builds are not timed.
        let build_ns = self
            .telemetry
            .histogram(&format!("sym.rep.w{width}.build_ns"));
        let started = Instant::now();
        let rep = fairness::rep_graph(&self.system(n), &self.spec, width);
        if rep.is_ok() {
            self.telemetry.counter("sym.rep.builds").inc();
            build_ns.record_duration(started.elapsed());
        }
        rep
    }

    /// Starts a checking session at size `n`: the abstract structures are
    /// materialized at most once and shared across every formula checked
    /// through it. Prefer this over repeated [`SymEngine::check`] calls
    /// when verifying several formulas at the same size.
    pub fn session(&self, n: u32) -> SymSession<'_> {
        SymSession {
            engine: self,
            n,
            counter: None,
            reps: HashMap::new(),
        }
    }

    /// Checks any supported closed formula at size `n`, dispatching on
    /// whether it uses index quantifiers.
    ///
    /// # Errors
    ///
    /// As [`SymEngine::check_counting`] / [`SymEngine::check_indexed`].
    pub fn check(&self, n: u32, f: &StateFormula) -> Result<bool, SymError> {
        self.session(n).check(f)
    }

    /// Checks a quantifier-free CTL* formula over counting atoms on the
    /// counter structure at size `n`.
    ///
    /// The abstraction is exact (a strong bisimulation quotient), so the
    /// whole of CTL* — including `X` — transfers to the explicit
    /// `n`-process composition.
    ///
    /// # Errors
    ///
    /// [`SymError::UnknownAtom`] if the formula uses an indexed atom or an
    /// atom outside the active spec; [`SymError::Mc`] on checker failures.
    pub fn check_counting(&self, n: u32, f: &StateFormula) -> Result<bool, SymError> {
        self.session(n).check_counting(f)
    }

    /// Checks a closed **restricted** ICTL* formula at size `n` through
    /// the representative construction.
    ///
    /// At `n = 0` quantifiers are expanded over the empty index set
    /// (`forall` ⇒ true, `exists` ⇒ false) and the rest is checked on
    /// the counter structure.
    ///
    /// # Errors
    ///
    /// [`SymError::NotRestricted`] outside the sound fragment;
    /// [`SymError::UnknownAtom`] for atoms the structures cannot carry.
    pub fn check_indexed(&self, n: u32, f: &StateFormula) -> Result<bool, SymError> {
        self.session(n).check_indexed(f)
    }

    /// Runs the bisimulation oracle at a small, explicitly-buildable `n`:
    /// the counter and representative structures must correspond to the
    /// explicit interleaved composition.
    ///
    /// # Errors
    ///
    /// [`SymError::AbstractionMismatch`] on disagreement.
    pub fn cross_check(&self, n: u32) -> Result<(), SymError> {
        verify_counter_abstraction(&self.template, n, &self.spec)
    }

    fn validate_plain_atoms(&self, used: &UsedAtoms) -> Result<(), SymError> {
        let universe: BTreeSet<Atom> = self.spec.atom_universe().into_iter().collect();
        for p in &used.plain {
            if !universe.contains(&Atom::plain(p.clone())) {
                return Err(SymError::UnknownAtom(format!(
                    "{p} is not a counting atom of the active spec"
                )));
            }
        }
        for p in &used.exactly_one {
            if !universe.contains(&Atom::exactly_one(p.clone())) {
                return Err(SymError::UnknownAtom(format!(
                    "one({p}) is not in the active spec"
                )));
            }
        }
        Ok(())
    }
}

/// A checking session at one family size: materializes the counter
/// structure and one representative structure *per width* lazily, at
/// most once each, and reuses them for every formula checked through the
/// session.
///
/// Created by [`SymEngine::session`].
///
/// # Examples
///
/// ```
/// use icstar_logic::parse_state;
/// use icstar_sym::{mutex_template, SymEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = SymEngine::new(mutex_template());
/// let mut session = engine.session(10_000);
/// // One counter graph serves both counting formulas; the
/// // representative graph is built only for the quantified one.
/// assert!(session.check(&parse_state("AG !crit_ge2")?)?);
/// assert!(session.check(&parse_state("AG (try_ge1 -> EF crit_ge1)")?)?);
/// assert!(session.check(&parse_state("forall i. AG(try[i] -> EF crit[i])")?)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SymSession<'e> {
    engine: &'e SymEngine,
    n: u32,
    counter: Option<Arc<CounterGraph>>,
    /// Representative graphs by width.
    reps: HashMap<u32, Arc<RepGraph>>,
}

impl SymSession<'_> {
    /// The family size this session checks at.
    pub fn size(&self) -> u32 {
        self.n
    }

    /// Seeds the session with a pre-materialized counter graph —
    /// typically one obtained from [`SymSession::counter_arc`] of an
    /// earlier session (or a cache of such graphs, like
    /// `icstar-serve`'s), avoiding re-exploration.
    ///
    /// The graph must be the counter graph of the *same* engine
    /// (template and spec) at the *same* size; seeding anything else
    /// makes later answers meaningless.
    pub fn seed_counter(&mut self, counter: Arc<CounterGraph>) -> &mut Self {
        self.counter = Some(counter);
        self
    }

    /// Seeds the session with a pre-materialized representative graph of
    /// the given width; the same sharing contract as
    /// [`SymSession::seed_counter`] applies (and the graph must have
    /// been built with this `width`).
    pub fn seed_representative(&mut self, width: u32, rep: Arc<RepGraph>) -> &mut Self {
        self.reps.insert(width, rep);
        self
    }

    /// The session's counter graph, materializing it on first use — as a
    /// shared handle, suitable for caching and for seeding other
    /// sessions at the same `(template, spec, n)`.
    pub fn counter_arc(&mut self) -> Arc<CounterGraph> {
        Arc::clone(self.counter_ref())
    }

    /// The session's width-`width` representative graph, materializing
    /// it on first use — as a shared handle, suitable for caching and
    /// for seeding other sessions at the same
    /// `(template, spec, n, width)`.
    ///
    /// # Errors
    ///
    /// [`SymError::EmptyFamily`] at `n = 0`; [`SymError::BadRepWidth`]
    /// unless `1 ≤ width ≤ n`.
    pub fn representative_arc(&mut self, width: u32) -> Result<Arc<RepGraph>, SymError> {
        self.representative_ref(width).map(Arc::clone)
    }

    /// Checks any supported closed formula, dispatching as
    /// [`SymEngine::check`].
    ///
    /// # Errors
    ///
    /// As [`SymSession::check_counting`] / [`SymSession::check_indexed`].
    pub fn check(&mut self, f: &StateFormula) -> Result<bool, SymError> {
        self.check_described(f).map(|run| run.holds)
    }

    /// Checks any supported closed formula and reports which backend it
    /// went through: [`CheckRun::rep_width`] is the number of
    /// distinguished copies tracked (`0` for the counter structure).
    ///
    /// # Errors
    ///
    /// As [`SymSession::check_counting`] / [`SymSession::check_indexed`].
    pub fn check_described(&mut self, f: &StateFormula) -> Result<CheckRun, SymError> {
        // Failed checks are not timed.
        let check_ns = self.engine.telemetry.histogram("sym.check.ns");
        let started = Instant::now();
        let run = if has_index_quantifier(f) {
            self.check_indexed_described(f)
        } else {
            let fair = self.engine.template.is_fair();
            self.check_counting(f).map(|holds| CheckRun {
                holds,
                rep_width: 0,
                fair,
            })
        };
        if run.is_ok() {
            check_ns.record_duration(started.elapsed());
        }
        run
    }

    /// Checks a quantifier-free CTL* formula over counting atoms; see
    /// [`SymEngine::check_counting`].
    ///
    /// # Errors
    ///
    /// As [`SymEngine::check_counting`].
    pub fn check_counting(&mut self, f: &StateFormula) -> Result<bool, SymError> {
        let used = used_atoms(f);
        if let Some(v) = used.indexed.iter().next() {
            return Err(SymError::UnknownAtom(format!(
                "{}[..] (indexed atoms need check_indexed)",
                v.0
            )));
        }
        self.engine.validate_plain_atoms(&used)?;
        if self.engine.template.is_fair() {
            // Path quantifiers range over fair paths: gate to the CTL
            // fragment the checker supports under requirements.
            fair_fragment_depth(f)?;
        }
        let g = self.counter_ref();
        Ok(Checker::fair(&g.kripke, &g.fairness).holds(f)?)
    }

    /// Checks a closed k-restricted ICTL* formula through the
    /// multi-representative construction; see
    /// [`SymEngine::check_indexed`].
    ///
    /// # Errors
    ///
    /// As [`SymEngine::check_indexed`].
    pub fn check_indexed(&mut self, f: &StateFormula) -> Result<bool, SymError> {
        self.check_indexed_described(f).map(|run| run.holds)
    }

    fn check_indexed_described(&mut self, f: &StateFormula) -> Result<CheckRun, SymError> {
        let fair = self.engine.template.is_fair();
        // Under fairness the checker is CTL-shaped, so the fragment gate
        // tightens from k-restricted ICTL* to its CTL slice (which still
        // admits the liveness shapes weak fairness exists for: AF,
        // AG AF, fair EG, and their quantified forms).
        let depth = if fair {
            fair_fragment_depth(f)? as u32
        } else {
            restricted_depth(f)? as u32
        };
        let used = used_atoms(f);
        // Plain atoms must come from the spec (a missing threshold atom
        // would silently read as false and give wrong answers); indexed
        // props *outside* the template are fine — they are false on the
        // explicit composition and on the representative alike.
        self.engine.validate_plain_atoms(&used)?;
        if self.n == 0 {
            let expanded = icstar_mc::expand(f, &[]);
            let g = self.counter_ref();
            let holds = Checker::fair(&g.kripke, &g.fairness).holds(&expanded)?;
            return Ok(CheckRun {
                holds,
                rep_width: 0,
                fair,
            });
        }
        // The smallest sufficient width: one tracked copy per quantifier
        // nesting level, capped at the family size (beyond n there is no
        // n-th distinct copy to track). Quantifier-free formulas routed
        // here still get one representative — its structure carries the
        // counting atoms too.
        let width = depth.clamp(1, self.n);
        let rep = self.representative_arc(width)?;
        // Expand quantifiers over the canonical representative tuples
        // (distinct-index case split), then model-check the closed
        // constant-indexed formula on the width-`width` structure.
        let expanded = expand_representatives(f, width);
        let holds = Checker::fair(rep.kripke.kripke(), &rep.fairness).holds(&expanded)?;
        Ok(CheckRun {
            holds,
            rep_width: width,
            fair,
        })
    }

    fn counter_ref(&mut self) -> &Arc<CounterGraph> {
        if self.counter.is_none() {
            self.counter = Some(Arc::new(self.engine.counter_graph(self.n)));
        }
        self.counter.as_ref().expect("just materialized")
    }

    fn representative_ref(&mut self, width: u32) -> Result<&Arc<RepGraph>, SymError> {
        if !self.reps.contains_key(&width) {
            let rep = Arc::new(self.engine.representative_graph(self.n, width)?);
            self.reps.insert(width, rep);
        }
        Ok(self.reps.get(&width).expect("just materialized"))
    }
}

/// The atoms appearing in a formula, by kind.
#[derive(Default)]
struct UsedAtoms {
    plain: BTreeSet<String>,
    exactly_one: BTreeSet<String>,
    /// `(prop, index-term rendering)` pairs.
    indexed: BTreeSet<(String, String)>,
}

fn used_atoms(f: &StateFormula) -> UsedAtoms {
    let mut out = UsedAtoms::default();
    collect_state(f, &mut out);
    out
}

fn collect_state(f: &StateFormula, out: &mut UsedAtoms) {
    use StateFormula::*;
    match f {
        True | False => {}
        Prop(p) => {
            out.plain.insert(p.clone());
        }
        ExactlyOne(p) => {
            out.exactly_one.insert(p.clone());
        }
        Indexed(p, term) => {
            out.indexed.insert((p.clone(), format!("{term:?}")));
        }
        Not(g) | ForallIdx(_, g) | ExistsIdx(_, g) => collect_state(g, out),
        And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) => {
            collect_state(a, out);
            collect_state(b, out);
        }
        Exists(p) | All(p) => collect_path(p, out),
    }
}

fn collect_path(p: &PathFormula, out: &mut UsedAtoms) {
    use PathFormula::*;
    match p {
        State(f) => collect_state(f, out),
        Not(g) | Eventually(g) | Globally(g) | Next(g) => collect_path(g, out),
        And(a, b) | Or(a, b) | Implies(a, b) | Until(a, b) | Release(a, b) => {
            collect_path(a, out);
            collect_path(b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::mutex_template;
    use icstar_logic::parse_state;
    use icstar_nets::fig41_template;

    fn engine() -> SymEngine {
        SymEngine::new(mutex_template())
    }

    #[test]
    fn counting_checks_at_scale() {
        let e = engine();
        for n in [1u32, 2, 10, 100] {
            assert!(e
                .check_counting(n, &parse_state("AG !crit_ge2").unwrap())
                .unwrap());
            assert!(e
                .check_counting(n, &parse_state("AG (try_ge1 -> EF crit_ge1)").unwrap())
                .unwrap());
            assert!(e
                .check_counting(n, &parse_state("AG (crit_ge1 -> one(crit))").unwrap())
                .unwrap());
        }
        // With >= 2 processes, two copies *can* be trying at once.
        assert!(e
            .check_counting(2, &parse_state("EF try_ge2").unwrap())
            .unwrap());
        assert!(!e
            .check_counting(1, &parse_state("EF try_ge2").unwrap())
            .unwrap());
    }

    #[test]
    fn indexed_checks_through_representative() {
        let e = engine();
        let f = parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap();
        for n in [1u32, 2, 5, 20] {
            assert!(e.check(n, &f).unwrap(), "n = {n}");
        }
    }

    #[test]
    fn dispatch_picks_backend() {
        let e = engine();
        assert!(e.check(3, &parse_state("AG !crit_ge2").unwrap()).unwrap());
        assert!(e
            .check(3, &parse_state("exists i. EF crit[i]").unwrap())
            .unwrap());
    }

    #[test]
    fn n_zero_expands_quantifiers_over_empty_index_set() {
        let e = engine();
        assert!(e
            .check(0, &parse_state("forall i. AG crit[i]").unwrap())
            .unwrap());
        assert!(!e
            .check(0, &parse_state("exists i. EF crit[i]").unwrap())
            .unwrap());
        // Counting formulas also stay total at n = 0.
        assert!(e.check(0, &parse_state("AG crit_eq0").unwrap()).unwrap());
    }

    #[test]
    fn unrestricted_indexed_formulas_rejected() {
        let e = engine();
        // Quantifier under AG: outside the sound fragment.
        let f = parse_state("AG (exists i. crit[i])").unwrap();
        assert!(matches!(e.check(2, &f), Err(SymError::NotRestricted(_))));
        // Nesting alone is *not* a rejection anymore — but nesting under
        // an until-like operator still is.
        let g = parse_state("forall i. EF (exists j. crit[j] & try[i])").unwrap();
        assert!(matches!(e.check(3, &g), Err(SymError::NotRestricted(_))));
    }

    #[test]
    fn nested_quantifiers_route_through_width_two() {
        let e = engine();
        let f = parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap();
        for n in [2u32, 5, 20] {
            let mut s = e.session(n);
            let run = s.check_described(&f).unwrap();
            assert!(run.holds, "n = {n}");
            assert_eq!(run.rep_width, 2, "n = {n}");
        }
        // At n = 1 there is no second copy to track: the width caps at 1
        // and the exists collapses onto the diagonal — which fails, since
        // crit[1] -> !crit[1] is violated whenever copy 1 enters.
        let run = e.session(1).check_described(&f).unwrap();
        assert_eq!((run.holds, run.rep_width), (false, 1));
    }

    #[test]
    fn forall_pairs_mutual_exclusion_holds() {
        let e = engine();
        // The depth-2 phrasing of mutual exclusion over *distinct-or-not*
        // pairs: some witness j is never critical together with i.
        let f = parse_state("forall i. forall j. AG !(crit[i] & crit[j] & crit_ge2)").unwrap();
        assert!(e.check(4, &f).unwrap());
    }

    #[test]
    fn check_described_reports_zero_width_for_counting() {
        let e = engine();
        let mut s = e.session(5);
        let run = s
            .check_described(&parse_state("AG !crit_ge2").unwrap())
            .unwrap();
        assert_eq!((run.holds, run.rep_width), (true, 0));
    }

    #[test]
    fn required_rep_width_matches_routing() {
        use super::required_rep_width;
        let counting = parse_state("AG !crit_ge2").unwrap();
        let depth1 = parse_state("forall i. EF crit[i]").unwrap();
        let depth2 = parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap();
        assert_eq!(required_rep_width(&counting, 10).unwrap(), 0);
        assert_eq!(required_rep_width(&depth1, 10).unwrap(), 1);
        assert_eq!(required_rep_width(&depth2, 10).unwrap(), 2);
        assert_eq!(required_rep_width(&depth2, 1).unwrap(), 1);
        assert_eq!(required_rep_width(&depth2, 0).unwrap(), 0);
        assert!(matches!(
            required_rep_width(&parse_state("AG (exists i. crit[i])").unwrap(), 5),
            Err(SymError::NotRestricted(_))
        ));
    }

    #[test]
    fn sessions_cache_one_structure_per_width() {
        let e = engine();
        let mut s = e.session(10);
        assert!(s
            .check(&parse_state("forall i. EF crit[i]").unwrap())
            .unwrap());
        assert!(s
            .check(&parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap())
            .unwrap());
        assert!(s
            .check(&parse_state("exists i. EF try[i]").unwrap())
            .unwrap());
        assert_eq!(s.reps.len(), 2, "one structure each for widths 1 and 2");
    }

    #[test]
    fn unknown_atoms_rejected() {
        let e = engine();
        assert!(matches!(
            e.check_counting(2, &parse_state("AG bogus").unwrap()),
            Err(SymError::UnknownAtom(_))
        ));
        assert!(matches!(
            e.check_counting(2, &parse_state("AG crit_ge3").unwrap()),
            Err(SymError::UnknownAtom(_))
        ));
        assert!(matches!(
            e.check_counting(2, &parse_state("AG crit[1]").unwrap()),
            Err(SymError::UnknownAtom(_))
        ));
        // Indexed props outside the template are *not* errors: they are
        // false everywhere, exactly as on the explicit composition.
        assert!(!e
            .check_indexed(2, &parse_state("exists i. EF bogus[i]").unwrap())
            .unwrap());
        assert!(matches!(
            e.check_counting(2, &parse_state("AG one(bogus)").unwrap()),
            Err(SymError::UnknownAtom(_))
        ));
    }

    #[test]
    fn nexttime_allowed_on_counting_path() {
        // Exactness means X is fine for counting formulas: from the
        // initial mutex state the first move sends some copy to `try`.
        let e = engine();
        assert!(e
            .check_counting(3, &parse_state("AX try_ge1").unwrap())
            .unwrap());
    }

    #[test]
    fn cross_check_passes_for_both_workload_kinds() {
        engine().cross_check(3).unwrap();
        SymEngine::new(crate::template::GuardedTemplate::free(fig41_template()))
            .cross_check(3)
            .unwrap();
    }

    #[test]
    fn session_reuses_structures_across_formulas() {
        let e = engine();
        let mut s = e.session(50);
        for src in [
            "AG !crit_ge2",
            "AG (try_ge1 -> EF crit_ge1)",
            "forall i. AG(try[i] -> EF crit[i])",
            "exists i. EF crit[i]",
        ] {
            assert!(s.check(&parse_state(src).unwrap()).unwrap(), "{src}");
        }
        // Both structures were materialized exactly once and retained.
        assert!(s.counter.is_some());
        assert_eq!(s.reps.len(), 1);
        assert_eq!(s.size(), 50);
        // Session verdicts match one-shot engine verdicts.
        assert_eq!(
            s.check(&parse_state("EF try_ge2").unwrap()).unwrap(),
            e.check(50, &parse_state("EF try_ge2").unwrap()).unwrap()
        );
    }

    #[test]
    fn seeded_sessions_share_materialized_structures() {
        let e = engine();
        let mut first = e.session(40);
        assert!(first.check(&parse_state("AG !crit_ge2").unwrap()).unwrap());
        assert!(first
            .check(&parse_state("exists i. EF crit[i]").unwrap())
            .unwrap());
        let counter = first.counter_arc();
        let rep = first.representative_arc(1).unwrap();

        // A second session seeded with the first's structures answers
        // identically without re-materializing (the Arcs are shared).
        let mut second = e.session(40);
        second.seed_counter(std::sync::Arc::clone(&counter));
        second.seed_representative(1, std::sync::Arc::clone(&rep));
        assert!(second
            .check(&parse_state("AG (try_ge1 -> EF crit_ge1)").unwrap())
            .unwrap());
        assert!(second
            .check(&parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap())
            .unwrap());
        assert!(std::sync::Arc::ptr_eq(&counter, &second.counter_arc()));
        assert!(std::sync::Arc::ptr_eq(
            &rep,
            &second.representative_arc(1).unwrap()
        ));
    }

    #[test]
    fn engine_materializes_representative_and_sharded_structures() {
        let e = engine();
        let rep = e.representative_structure(4, 1).unwrap();
        assert_eq!(rep.indices(), &[1]);
        let rep2 = e.representative_structure(4, 2).unwrap();
        assert_eq!(rep2.indices(), &[1, 2]);
        assert!(matches!(
            e.representative_structure(0, 1),
            Err(SymError::EmptyFamily)
        ));
        assert!(matches!(
            e.representative_structure(4, 9),
            Err(SymError::BadRepWidth { .. })
        ));
        let seq = e.counter_structure(30);
        let par = e.counter_graph_sharded(30, 4).kripke;
        assert_eq!(seq.num_states(), par.num_states());
        assert_eq!(seq.num_transitions(), par.num_transitions());
    }

    #[test]
    fn engine_metrics_land_in_the_attached_registry() {
        let registry = icstar_telemetry::Registry::new();
        let e = engine().with_telemetry(registry.clone());
        assert!(e.telemetry().same_as(&registry));
        let mut s = e.session(10);
        assert!(s.check(&parse_state("AG !crit_ge2").unwrap()).unwrap());
        assert!(s
            .check(&parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap())
            .unwrap());
        let snap = registry.snapshot();
        // One counter exploration, one width-2 representative build
        // (whose interior exploration also counts), two checks timed.
        assert_eq!(snap.counter("sym.rep.builds"), Some(1));
        assert_eq!(snap.histogram("sym.rep.w2.build_ns").unwrap().count, 1);
        assert!(snap.counter("sym.explore.builds").unwrap() >= 1);
        assert_eq!(snap.histogram("sym.check.ns").unwrap().count, 2);
        // Failed checks are counted by neither histogram nor builds.
        assert!(s.check(&parse_state("AG bogus").unwrap()).is_err());
        assert_eq!(
            registry.snapshot().histogram("sym.check.ns").unwrap().count,
            2
        );
    }

    fn fair_stutter_template(fair: bool) -> GuardedTemplate {
        let mut b = crate::template::GuardedBuilder::new();
        let idle = b.state("idle", ["idle"]);
        let done = b.state("done", ["done"]);
        b.edge(idle, idle);
        b.edge(idle, done);
        b.edge(done, done);
        if fair {
            b.fair("exit", [(idle, done)]);
        }
        b.build(idle)
    }

    #[test]
    fn fair_template_routes_liveness_through_fair_checker() {
        let e = SymEngine::new(fair_stutter_template(true));
        let plain = SymEngine::new(fair_stutter_template(false));
        let f = parse_state("AF idle_eq0").unwrap();
        for n in [1u32, 5, 200] {
            let run = e.session(n).check_described(&f).unwrap();
            assert_eq!(
                (run.holds, run.rep_width, run.fair),
                (true, 0, true),
                "n = {n}"
            );
            // Identical template minus the declaration: the stutter loop
            // is a fair counterexample, so plain AF fails.
            let run = plain.session(n).check_described(&f).unwrap();
            assert_eq!((run.holds, run.fair), (false, false), "n = {n}");
        }
    }

    #[test]
    fn fair_template_routes_indexed_liveness_through_rep() {
        let e = SymEngine::new(fair_stutter_template(true));
        let f = parse_state("forall i. AF done[i]").unwrap();
        let mut s = e.session(10);
        let run = s.check_described(&f).unwrap();
        assert_eq!((run.holds, run.rep_width, run.fair), (true, 1, true));
        // Safety still answers (machine closure: fairness never blocks a
        // prefix, so AG verdicts match the plain ones).
        assert!(s
            .check(&parse_state("AG (done_ge1 -> AG done_ge1)").unwrap())
            .unwrap());
        // At n = 0 the quantifier collapses over the empty index set.
        let run = e.session(0).check_described(&f).unwrap();
        assert_eq!((run.holds, run.rep_width, run.fair), (true, 0, true));
    }

    #[test]
    fn fair_template_rejects_non_ctl_formulas() {
        use icstar_logic::RestrictionError;
        let e = SymEngine::new(fair_stutter_template(true));
        let bad = parse_state("A(F idle_eq0 & F done_ge1)").unwrap();
        assert!(matches!(
            e.check(3, &bad),
            Err(SymError::NotRestricted(RestrictionError::NotCtl))
        ));
        // The same formula is fine on the unfair twin (full CTL*).
        let plain = SymEngine::new(fair_stutter_template(false));
        assert!(plain.check(3, &bad).is_ok());
    }

    #[test]
    fn custom_spec_is_honored() {
        let t = mutex_template();
        let spec = CountingSpec::new().with_at_least("crit", 5);
        let e = SymEngine::with_spec(t, spec);
        assert!(!e
            .check_counting(10, &parse_state("EF crit_ge5").unwrap())
            .unwrap());
        // The standard atoms are gone under the custom spec.
        assert!(matches!(
            e.check_counting(10, &parse_state("EF crit_ge2").unwrap()),
            Err(SymError::UnknownAtom(_))
        ));
    }
}
