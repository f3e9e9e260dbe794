//! Symmetric workloads: a process template plus optional counting guards.
//!
//! A [`GuardedTemplate`] wraps an [`icstar_nets::ProcessTemplate`] and
//! attaches a conjunction of [`Guard`]s to each local transition. A guard
//! constrains the *occupancy* of a local proposition across all `n` copies
//! (evaluated before the move, mover included), which is how shared
//! resources are modeled without breaking symmetry: every copy carries the
//! same guards, so the composed system is still fully symmetric and
//! counter abstraction remains exact.
//!
//! With no guards this is precisely the free (interleaved) composition of
//! [`icstar_nets::interleave`].

use icstar_nets::{ProcessTemplate, TemplateBuilder};

use crate::counter::CounterState;
use crate::fingerprint::{encode_template, fnv1a};

/// A counting constraint on one local transition, evaluated on the
/// occupancy vector of all copies (before the move).
///
/// Proposition guards ([`Guard::AtMost`], [`Guard::AtLeast`],
/// [`Guard::Equals`], [`Guard::InRange`]) count the copies whose local
/// *label* carries a proposition; state guards ([`Guard::StateAtMost`],
/// [`Guard::StateAtLeast`], [`Guard::StateEquals`],
/// [`Guard::StateInRange`]) count the copies sitting in one local *state*
/// directly, independent of labeling — useful for capacity-style
/// protocols whose control states carry no dedicated proposition. All
/// kinds are functions of the occupancy vector alone, so they preserve
/// full symmetry and the counter abstraction stays exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Guard {
    /// Enabled iff at most `.1` copies satisfy proposition `.0`.
    AtMost(String, u32),
    /// Enabled iff at least `.1` copies satisfy proposition `.0`.
    AtLeast(String, u32),
    /// Enabled iff at most `.1` copies sit in local state `.0`.
    StateAtMost(u32, u32),
    /// Enabled iff at least `.1` copies sit in local state `.0`.
    StateAtLeast(u32, u32),
    /// Enabled iff exactly `.1` copies satisfy proposition `.0`.
    Equals(String, u32),
    /// Enabled iff the number of copies satisfying proposition `.0` lies
    /// in the inclusive interval `.1 ..= .2`.
    InRange(String, u32, u32),
    /// Enabled iff exactly `.1` copies sit in local state `.0`.
    StateEquals(u32, u32),
    /// Enabled iff the occupancy of local state `.0` lies in the
    /// inclusive interval `.1 ..= .2`.
    StateInRange(u32, u32, u32),
}

impl Guard {
    /// `#prop ≤ bound`.
    pub fn at_most(prop: impl Into<String>, bound: u32) -> Self {
        Guard::AtMost(prop.into(), bound)
    }

    /// `#prop ≥ bound`.
    pub fn at_least(prop: impl Into<String>, bound: u32) -> Self {
        Guard::AtLeast(prop.into(), bound)
    }

    /// `#prop = bound`.
    pub fn equals(prop: impl Into<String>, bound: u32) -> Self {
        Guard::Equals(prop.into(), bound)
    }

    /// `lo ≤ #prop ≤ hi` (inclusive interval).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (the empty interval guards nothing sensibly;
    /// reject it early rather than ship an unfireable transition).
    pub fn in_range(prop: impl Into<String>, lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "empty interval {lo}..{hi}");
        Guard::InRange(prop.into(), lo, hi)
    }

    /// `#state ≤ bound` (occupancy of one local state).
    pub fn state_at_most(state: u32, bound: u32) -> Self {
        Guard::StateAtMost(state, bound)
    }

    /// `#state ≥ bound` (occupancy of one local state).
    pub fn state_at_least(state: u32, bound: u32) -> Self {
        Guard::StateAtLeast(state, bound)
    }

    /// `#state = bound` (occupancy of one local state).
    pub fn state_equals(state: u32, bound: u32) -> Self {
        Guard::StateEquals(state, bound)
    }

    /// `lo ≤ #state ≤ hi` (inclusive interval on one local state's
    /// occupancy).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn state_in_range(state: u32, lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "empty interval {lo}..{hi}");
        Guard::StateInRange(state, lo, hi)
    }

    /// The local state a state-occupancy guard reads, if any.
    fn guarded_state(&self) -> Option<u32> {
        match self {
            Guard::StateAtMost(q, _)
            | Guard::StateAtLeast(q, _)
            | Guard::StateEquals(q, _)
            | Guard::StateInRange(q, _, _) => Some(*q),
            Guard::AtMost(..) | Guard::AtLeast(..) | Guard::Equals(..) | Guard::InRange(..) => None,
        }
    }
}

/// A broadcast move: one initiating copy takes the `source → target`
/// local transition (subject to the guards, evaluated on the occupancy
/// vector *before* the move, initiator included), and **every other copy
/// simultaneously** follows the per-state response map — a copy sitting
/// in local state `q` lands in `response[q]`.
///
/// Because every copy carries the same response map, a broadcast is a
/// function of the occupancy vector alone: the composed system stays
/// fully symmetric, the counter abstraction stays exact, and on
/// occupancy vectors the whole step is a single O(|S|) rewrite
/// ([`CounterState::broadcast`]) no matter how large `n` is. This is the
/// synchronized-step primitive behind barriers, invalidation-based cache
/// coherence, and reset/wake-up protocols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Broadcast {
    /// Local state of the initiating copy.
    source: u32,
    /// Where the initiator lands.
    target: u32,
    /// Conjunction of counting guards enabling the broadcast.
    guards: Vec<Guard>,
    /// `response[q]`: where a *non-initiating* copy in state `q` lands.
    /// Always total (length = number of local states); identity entries
    /// mean "unaffected".
    response: Vec<u32>,
}

impl Broadcast {
    /// Local state of the initiating copy.
    pub fn source(&self) -> u32 {
        self.source
    }

    /// Where the initiator lands.
    pub fn target(&self) -> u32 {
        self.target
    }

    /// The guards enabling the broadcast (conjunction, evaluated before
    /// the move).
    pub fn guards(&self) -> &[Guard] {
        &self.guards
    }

    /// The full response map: `response()[q]` is where a non-initiating
    /// copy in local state `q` lands.
    pub fn response(&self) -> &[u32] {
        &self.response
    }

    /// Where a non-initiating copy in local state `q` lands.
    pub fn response_of(&self, q: u32) -> u32 {
        self.response[q as usize]
    }

    /// Whether the response map moves nobody (the broadcast degenerates
    /// to an ordinary single-copy move).
    pub fn is_identity_response(&self) -> bool {
        self.response
            .iter()
            .enumerate()
            .all(|(q, &t)| q as u32 == t)
    }
}

/// A named weak-fairness constraint over a group of local moves.
///
/// A move pair `(src, tgt)` selects **every** template transition from
/// `src` to `tgt` — all guarded plain edges and all broadcasts whose
/// initiator takes `src → tgt`. The declaration demands *weak (action)
/// fairness* of the group: on every path, infinitely often either no
/// move of the group is enabled or some move of the group is taken. A
/// template may carry several declarations; a path must be fair for all
/// of them.
///
/// Because enabledness of a group is a function of the occupancy vector
/// alone (guards are counting guards, and "some copy sits in `src`" is
/// occupancy too), the constraint compiles exactly to a transition-based
/// fairness requirement on the counter and representative structures —
/// verdicts transfer verbatim from the explicit fair composition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FairnessDecl {
    name: String,
    moves: Vec<(u32, u32)>,
}

impl FairnessDecl {
    /// The declaration's name (used in wire syntax and diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The move pairs `(source state, target state)`, in declaration
    /// order.
    pub fn moves(&self) -> &[(u32, u32)] {
        &self.moves
    }

    /// Whether the group contains the move `src → tgt`.
    pub fn contains(&self, src: u32, tgt: u32) -> bool {
        self.moves.iter().any(|&(s, t)| s == src && t == tgt)
    }
}

/// A process template whose transitions may carry counting guards.
///
/// # Examples
///
/// A test-and-set mutex: a copy may enter its critical section only while
/// no copy is critical.
///
/// ```
/// use icstar_sym::{Guard, GuardedBuilder};
///
/// let mut b = GuardedBuilder::new();
/// let idle = b.state("idle", ["idle"]);
/// let trying = b.state("try", ["try"]);
/// let crit = b.state("crit", ["crit"]);
/// b.edge(idle, trying);
/// b.edge_guarded(trying, crit, [Guard::at_most("crit", 0)]);
/// b.edge(crit, idle);
/// let t = b.build(idle);
/// assert_eq!(t.num_states(), 3);
/// assert_eq!(t.guards(trying, 0), &[Guard::at_most("crit", 0)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuardedTemplate {
    base: ProcessTemplate,
    /// `guards[q][k]` guards the `k`-th outgoing transition of local
    /// state `q` (parallel to `base.successors(q)`).
    guards: Vec<Vec<Vec<Guard>>>,
    /// Broadcast moves, in declaration order.
    broadcasts: Vec<Broadcast>,
    /// Weak-fairness declarations, in declaration order.
    fairness: Vec<FairnessDecl>,
    /// For each distinct local proposition, the local states carrying it.
    props: Vec<(String, Vec<u32>)>,
}

impl GuardedTemplate {
    /// Lifts an unguarded template: the free composition, unchanged.
    pub fn free(base: ProcessTemplate) -> Self {
        let guards = (0..base.num_states())
            .map(|q| vec![Vec::new(); base.successors(q as u32).len()])
            .collect();
        let props = index_props(&base);
        GuardedTemplate {
            base,
            guards,
            broadcasts: Vec::new(),
            fairness: Vec::new(),
            props,
        }
    }

    /// The underlying unguarded template.
    pub fn base(&self) -> &ProcessTemplate {
        &self.base
    }

    /// Number of local states.
    pub fn num_states(&self) -> usize {
        self.base.num_states()
    }

    /// The initial local state.
    pub fn initial(&self) -> u32 {
        self.base.initial()
    }

    /// The guards of the `k`-th outgoing transition of local state `q`.
    pub fn guards(&self, q: u32, k: usize) -> &[Guard] {
        &self.guards[q as usize][k]
    }

    /// Name of local state `q` (passthrough to the base template, so
    /// serializers need not reach through [`GuardedTemplate::base`]).
    pub fn state_name(&self, q: u32) -> &str {
        self.base.state_name(q)
    }

    /// Local proposition names of local state `q`.
    pub fn labels(&self, q: u32) -> &[String] {
        self.base.labels(q)
    }

    /// Local successors of local state `q`, parallel to the guard lists
    /// ([`GuardedTemplate::guards`]).
    pub fn successors(&self, q: u32) -> &[u32] {
        self.base.successors(q)
    }

    /// The broadcast moves, in declaration order.
    pub fn broadcasts(&self) -> &[Broadcast] {
        &self.broadcasts
    }

    /// Whether the template has any broadcast moves.
    pub fn has_broadcasts(&self) -> bool {
        !self.broadcasts.is_empty()
    }

    /// The weak-fairness declarations, in declaration order.
    pub fn fairness(&self) -> &[FairnessDecl] {
        &self.fairness
    }

    /// Whether the template declares any fairness constraint (routing
    /// liveness checks through the fair backend).
    pub fn is_fair(&self) -> bool {
        !self.fairness.is_empty()
    }

    /// A copy of this template with one more weak-fairness group — the
    /// gallery workloads ship unconstrained, and their liveness variants
    /// (`docs/WORKLOADS.md`, "liveness" column) are built this way
    /// rather than by re-declaring the whole template.
    ///
    /// Each `(src, tgt)` pair selects every plain edge and every
    /// broadcast taking `src → tgt`, exactly as
    /// [`GuardedBuilder::fair`].
    ///
    /// # Panics
    ///
    /// As the builder's validation: the group must be non-empty and
    /// every pair must match an existing edge or broadcast.
    #[must_use]
    pub fn with_fairness(
        mut self,
        name: impl Into<String>,
        moves: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        let decl = FairnessDecl {
            name: name.into(),
            moves: moves.into_iter().collect(),
        };
        assert!(
            !decl.moves.is_empty(),
            "fairness declaration {:?} selects no moves",
            decl.name
        );
        let num_states = self.num_states() as u32;
        for &(src, tgt) in &decl.moves {
            assert!(src < num_states, "fairness move from unknown state {src}");
            assert!(tgt < num_states, "fairness move to unknown state {tgt}");
            let on_edge = self.base.successors(src).contains(&tgt);
            let on_bcast = self
                .broadcasts
                .iter()
                .any(|b| b.source() == src && b.target() == tgt);
            assert!(
                on_edge || on_bcast,
                "fairness declaration {:?} names move {src} -> {tgt}, \
                 which no edge or broadcast realizes",
                decl.name
            );
        }
        self.fairness.push(decl);
        self
    }

    /// Whether no transition carries a guard and no broadcast exists —
    /// i.e. the composition is precisely the free interleaved product.
    pub fn is_free(&self) -> bool {
        self.guards.iter().all(|g| g.iter().all(Vec::is_empty)) && self.broadcasts.is_empty()
    }

    /// The distinct local proposition names, in first-use order.
    pub fn props(&self) -> impl Iterator<Item = &str> {
        self.props.iter().map(|(p, _)| p.as_str())
    }

    /// The local states whose label carries `prop`.
    pub fn states_with(&self, prop: &str) -> &[u32] {
        self.props
            .iter()
            .find(|(p, _)| p == prop)
            .map(|(_, qs)| qs.as_slice())
            .unwrap_or(&[])
    }

    /// How many copies satisfy `prop` in the occupancy vector `counts`.
    pub fn prop_count(&self, counts: &CounterState, prop: &str) -> u32 {
        self.states_with(prop)
            .iter()
            .map(|&q| counts.count(q))
            .sum()
    }

    /// Whether one guard holds on the occupancy vector `counts`.
    pub fn guard_holds(&self, counts: &CounterState, g: &Guard) -> bool {
        match g {
            Guard::AtMost(p, bound) => self.prop_count(counts, p) <= *bound,
            Guard::AtLeast(p, bound) => self.prop_count(counts, p) >= *bound,
            Guard::Equals(p, bound) => self.prop_count(counts, p) == *bound,
            Guard::InRange(p, lo, hi) => {
                let c = self.prop_count(counts, p);
                *lo <= c && c <= *hi
            }
            Guard::StateAtMost(s, bound) => counts.count(*s) <= *bound,
            Guard::StateAtLeast(s, bound) => counts.count(*s) >= *bound,
            Guard::StateEquals(s, bound) => counts.count(*s) == *bound,
            Guard::StateInRange(s, lo, hi) => {
                let c = counts.count(*s);
                *lo <= c && c <= *hi
            }
        }
    }

    /// Whether every guard of transition `(q, k)` is satisfied by the
    /// occupancy vector `counts` (taken *before* the move).
    pub fn enabled(&self, counts: &CounterState, q: u32, k: usize) -> bool {
        self.guards(q, k)
            .iter()
            .all(|g| self.guard_holds(counts, g))
    }

    /// Whether every guard of broadcast `b` is satisfied by the occupancy
    /// vector `counts` (taken *before* the move, initiator included).
    /// Callers must additionally check that some copy sits in
    /// [`Broadcast::source`].
    pub fn broadcast_enabled(&self, counts: &CounterState, b: &Broadcast) -> bool {
        b.guards().iter().all(|g| self.guard_holds(counts, g))
    }

    /// A stable 64-bit fingerprint: FNV-1a over the template section of
    /// the canonical workload encoding
    /// ([`workload_bytes`](crate::workload_bytes)). It names spill files
    /// and shows up in logs; lookups compare the encoding itself, so two
    /// templates sharing a fingerprint never share a cache entry.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        encode_template(&mut bytes, self);
        fnv1a(&bytes)
    }
}

fn index_props(base: &ProcessTemplate) -> Vec<(String, Vec<u32>)> {
    let mut props: Vec<(String, Vec<u32>)> = Vec::new();
    for q in 0..base.num_states() as u32 {
        for p in base.labels(q) {
            match props.iter_mut().find(|(name, _)| name == p) {
                Some((_, qs)) => qs.push(q),
                None => props.push((p.clone(), vec![q])),
            }
        }
    }
    props
}

/// A broadcast awaiting [`GuardedBuilder::build`]: `(source, target,
/// guards, partial responses)`. Responses are completed to a total
/// identity-defaulted map at build time, once the state count is final.
type PendingBroadcast = (u32, u32, Vec<Guard>, Vec<(u32, u32)>);

/// Builder for [`GuardedTemplate`], mirroring
/// [`icstar_nets::TemplateBuilder`].
#[derive(Clone, Debug, Default)]
pub struct GuardedBuilder {
    base: TemplateBuilder,
    guards: Vec<Vec<Vec<Guard>>>,
    broadcasts: Vec<PendingBroadcast>,
    fairness: Vec<FairnessDecl>,
}

impl GuardedBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a local state with the given local proposition names.
    pub fn state(
        &mut self,
        name: impl Into<String>,
        labels: impl IntoIterator<Item = impl Into<String>>,
    ) -> u32 {
        self.guards.push(Vec::new());
        self.base.state(name, labels)
    }

    /// Adds an unguarded local transition.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unknown.
    pub fn edge(&mut self, from: u32, to: u32) -> &mut Self {
        self.edge_guarded(from, to, [])
    }

    /// Adds a local transition enabled only when every guard holds.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unknown.
    pub fn edge_guarded(
        &mut self,
        from: u32,
        to: u32,
        guards: impl IntoIterator<Item = Guard>,
    ) -> &mut Self {
        self.base.edge(from, to);
        self.guards[from as usize].push(guards.into_iter().collect());
        self
    }

    /// Adds an unguarded broadcast move: one copy takes `source →
    /// target`, every other copy follows `responses` (pairs `(state,
    /// landing state)`; unlisted states are unaffected).
    pub fn broadcast(
        &mut self,
        source: u32,
        target: u32,
        responses: impl IntoIterator<Item = (u32, u32)>,
    ) -> &mut Self {
        self.broadcast_guarded(source, target, [], responses)
    }

    /// Adds a broadcast move enabled only when every guard holds
    /// (evaluated on the occupancy vector before the move, initiator
    /// included). `responses` lists `(state, landing state)` pairs for
    /// the non-initiating copies; unlisted states are unaffected.
    ///
    /// Endpoints and response entries are validated at
    /// [`GuardedBuilder::build`] time.
    pub fn broadcast_guarded(
        &mut self,
        source: u32,
        target: u32,
        guards: impl IntoIterator<Item = Guard>,
        responses: impl IntoIterator<Item = (u32, u32)>,
    ) -> &mut Self {
        self.broadcasts.push((
            source,
            target,
            guards.into_iter().collect(),
            responses.into_iter().collect(),
        ));
        self
    }

    /// Declares weak fairness of a group of moves: on every path,
    /// infinitely often either no move of the group is enabled or some
    /// move of the group is taken. Each `(src, tgt)` pair selects every
    /// plain edge and every broadcast taking `src → tgt`.
    ///
    /// Validated at [`GuardedBuilder::build`] time: the group must be
    /// non-empty and every pair must match at least one edge or
    /// broadcast of the finished template.
    pub fn fair(
        &mut self,
        name: impl Into<String>,
        moves: impl IntoIterator<Item = (u32, u32)>,
    ) -> &mut Self {
        self.fairness.push(FairnessDecl {
            name: name.into(),
            moves: moves.into_iter().collect(),
        });
        self
    }

    /// Freezes the template with the given initial local state.
    ///
    /// # Panics
    ///
    /// As [`TemplateBuilder::build`]: the template must be non-empty, the
    /// initial state known, and every local state must have an outgoing
    /// *plain* transition (broadcast-only states are not accepted; give
    /// waiting states a spin self-edge, as the barrier workload does).
    /// Additionally panics if a state-occupancy guard names an unknown
    /// local state, if a broadcast endpoint or response entry names an
    /// unknown local state, if a broadcast lists two responses for the
    /// same state, or if a fairness declaration is empty or names a move
    /// no edge or broadcast realizes.
    pub fn build(self, initial: u32) -> GuardedTemplate {
        let base = self.base.build(initial);
        let num_states = base.num_states() as u32;
        let check_guards = |guards: &[Guard]| {
            for g in guards {
                if let Some(q) = g.guarded_state() {
                    assert!(q < num_states, "guard reads unknown local state {q}");
                }
            }
        };
        for per_state in &self.guards {
            for guards in per_state {
                check_guards(guards);
            }
        }
        let broadcasts: Vec<Broadcast> = self
            .broadcasts
            .into_iter()
            .map(|(source, target, guards, responses)| {
                assert!(source < num_states, "broadcast from unknown state {source}");
                assert!(target < num_states, "broadcast to unknown state {target}");
                check_guards(&guards);
                let mut response: Vec<u32> = (0..num_states).collect();
                let mut seen = vec![false; num_states as usize];
                for (q, t) in responses {
                    assert!(q < num_states, "broadcast response for unknown state {q}");
                    assert!(t < num_states, "broadcast response to unknown state {t}");
                    assert!(
                        !seen[q as usize],
                        "duplicate broadcast response for state {q}"
                    );
                    seen[q as usize] = true;
                    response[q as usize] = t;
                }
                Broadcast {
                    source,
                    target,
                    guards,
                    response,
                }
            })
            .collect();
        for d in &self.fairness {
            assert!(
                !d.moves.is_empty(),
                "fairness declaration {:?} selects no moves",
                d.name
            );
            for &(src, tgt) in &d.moves {
                assert!(src < num_states, "fairness move from unknown state {src}");
                assert!(tgt < num_states, "fairness move to unknown state {tgt}");
                let on_edge = base.successors(src).contains(&tgt);
                let on_bcast = broadcasts
                    .iter()
                    .any(|b| b.source() == src && b.target() == tgt);
                assert!(
                    on_edge || on_bcast,
                    "fairness declaration {:?} names move {src} -> {tgt}, \
                     which no edge or broadcast realizes",
                    d.name
                );
            }
        }
        let props = index_props(&base);
        GuardedTemplate {
            base,
            guards: self.guards,
            broadcasts,
            fairness: self.fairness,
            props,
        }
    }
}

/// The mutex workload used across docs, examples, and benchmarks: an
/// `idle → try → crit → idle` cycle where entering `crit` is guarded by
/// `#crit = 0` (test-and-set).
pub fn mutex_template() -> GuardedTemplate {
    let mut b = GuardedBuilder::new();
    let idle = b.state("idle", ["idle"]);
    let trying = b.state("try", ["try"]);
    let crit = b.state("crit", ["crit"]);
    b.edge(idle, trying);
    b.edge_guarded(trying, crit, [Guard::at_most("crit", 0)]);
    b.edge(crit, idle);
    b.build(idle)
}

/// A ring of `stations` service stations with per-station capacity `cap`,
/// built from state-occupancy guards: every copy cycles
/// `s0 → s1 → … → s{stations-1} → s0`, and may advance only while the
/// *next* station holds fewer than `cap` copies.
///
/// The guards reference the station *states* directly
/// ([`Guard::StateAtMost`]), so the capacity semantics is independent of
/// how — or whether — states are labeled. Each station also carries a
/// proposition of the same name (`s0`, `s1`, …) so that materialized
/// structures have counting atoms (`s1_ge2`, …) and indexed atoms
/// (`s3[i]`) to check properties against; dropping those labels would
/// change the observable atoms but not the transition structure.
///
/// All copies start at `s0` (the unbounded "lobby": its occupancy is
/// never guarded against, so the initial state is legal at any family
/// size).
///
/// # Panics
///
/// Panics if `stations < 2` or `cap == 0`.
///
/// # Examples
///
/// ```
/// use icstar_sym::{ring_station_template, CounterState};
///
/// let t = ring_station_template(3, 2);
/// assert_eq!(t.num_states(), 3);
/// // s0 -> s1 is open while s1 holds < 2 copies...
/// assert!(t.enabled(&CounterState::new(vec![4, 1, 0]), 0, 0));
/// // ...and closed once s1 is full.
/// assert!(!t.enabled(&CounterState::new(vec![3, 2, 0]), 0, 0));
/// ```
pub fn ring_station_template(stations: usize, cap: u32) -> GuardedTemplate {
    assert!(stations >= 2, "a ring needs at least two stations");
    assert!(cap >= 1, "stations must admit at least one copy");
    let mut b = GuardedBuilder::new();
    let ids: Vec<u32> = (0..stations)
        .map(|i| b.state(format!("s{i}"), [format!("s{i}")]))
        .collect();
    for i in 0..stations {
        let next = ids[(i + 1) % stations];
        if next == ids[0] {
            // Back to the lobby: always open, so the ring can drain.
            b.edge(ids[i], next);
        } else {
            b.edge_guarded(ids[i], next, [Guard::state_at_most(next, cap - 1)]);
        }
    }
    b.build(ids[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arb::{random_guarded_template, RandomGuardedConfig};
    use crate::labels::CountingSpec;
    use crate::workload_bytes;
    use crate::workloads::{barrier_template, msi_template, wakeup_template};
    use icstar_nets::fig41_template;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The template section of the canonical workload encoding.
    fn bytes(t: &GuardedTemplate) -> Vec<u8> {
        let mut out = Vec::new();
        encode_template(&mut out, t);
        out
    }

    #[test]
    fn free_lifting_has_no_guards() {
        let t = GuardedTemplate::free(fig41_template());
        assert!(t.is_free());
        assert_eq!(t.num_states(), 2);
        assert_eq!(t.guards(0, 0), &[]);
        assert_eq!(t.props().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(t.states_with("b"), &[1]);
        assert_eq!(t.states_with("zzz"), &[] as &[u32]);
    }

    #[test]
    fn prop_count_sums_over_states() {
        let t = mutex_template();
        let c = CounterState::new(vec![2, 1, 1]);
        assert_eq!(t.prop_count(&c, "idle"), 2);
        assert_eq!(t.prop_count(&c, "crit"), 1);
        assert_eq!(t.prop_count(&c, "absent"), 0);
    }

    #[test]
    fn guard_evaluation() {
        let t = mutex_template();
        let free_crit = CounterState::new(vec![2, 2, 0]);
        let taken = CounterState::new(vec![2, 1, 1]);
        // try -> crit is transition (1, 0).
        assert!(t.enabled(&free_crit, 1, 0));
        assert!(!t.enabled(&taken, 1, 0));
        // idle -> try is never guarded.
        assert!(t.enabled(&taken, 0, 0));
        assert!(!t.is_free());
    }

    #[test]
    fn at_least_guard() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let c = b.state("c", ["c"]);
        b.edge_guarded(a, c, [Guard::at_least("a", 2)]);
        b.edge(c, c);
        b.edge(a, a);
        let t = b.build(a);
        assert!(t.enabled(&CounterState::new(vec![2, 0]), 0, 0));
        assert!(!t.enabled(&CounterState::new(vec![1, 1]), 0, 0));
    }

    #[test]
    fn state_occupancy_guards() {
        // Two unlabeled-in-spirit states distinguished only by identity:
        // the move a -> c is open while c holds at most one copy, and the
        // move c -> a requires at least two copies in c (batch release).
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let c = b.state("c", ["c"]);
        b.edge_guarded(a, c, [Guard::state_at_most(c, 1)]);
        b.edge_guarded(c, a, [Guard::state_at_least(c, 2)]);
        let t = b.build(a);
        assert!(t.enabled(&CounterState::new(vec![2, 1]), 0, 0));
        assert!(!t.enabled(&CounterState::new(vec![1, 2]), 0, 0));
        assert!(t.enabled(&CounterState::new(vec![1, 2]), 1, 0));
        assert!(!t.enabled(&CounterState::new(vec![2, 1]), 1, 0));
        assert!(!t.is_free());
    }

    #[test]
    #[should_panic(expected = "unknown local state")]
    fn state_guard_on_unknown_state_rejected() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        b.edge_guarded(a, a, [Guard::state_at_most(7, 0)]);
        b.build(a);
    }

    #[test]
    fn equality_and_interval_guards_evaluate() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["p"]);
        let c = b.state("c", [] as [&str; 0]);
        b.edge_guarded(a, c, [Guard::equals("p", 2)]);
        b.edge_guarded(c, a, [Guard::in_range("p", 1, 2)]);
        b.edge_guarded(a, a, [Guard::state_equals(c, 0)]);
        b.edge_guarded(c, c, [Guard::state_in_range(a, 0, 1)]);
        let t = b.build(a);
        // (q=0, k=0): #p == 2.
        assert!(t.enabled(&CounterState::new(vec![2, 1]), 0, 0));
        assert!(!t.enabled(&CounterState::new(vec![1, 2]), 0, 0));
        assert!(!t.enabled(&CounterState::new(vec![3, 0]), 0, 0));
        // (q=1, k=0): #p in 1..2.
        assert!(t.enabled(&CounterState::new(vec![1, 2]), 1, 0));
        assert!(t.enabled(&CounterState::new(vec![2, 1]), 1, 0));
        assert!(!t.enabled(&CounterState::new(vec![0, 3]), 1, 0));
        assert!(!t.enabled(&CounterState::new(vec![3, 0]), 1, 0));
        // (q=0, k=1): @c == 0.
        assert!(t.enabled(&CounterState::new(vec![3, 0]), 0, 1));
        assert!(!t.enabled(&CounterState::new(vec![2, 1]), 0, 1));
        // (q=1, k=1): @a in 0..1.
        assert!(t.enabled(&CounterState::new(vec![1, 2]), 1, 1));
        assert!(!t.enabled(&CounterState::new(vec![2, 1]), 1, 1));
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn empty_interval_guard_rejected() {
        Guard::in_range("p", 3, 1);
    }

    #[test]
    fn broadcasts_build_and_evaluate() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let c = b.state("c", ["c"]);
        let d = b.state("d", ["d"]);
        b.edge(a, a);
        b.edge(c, c);
        b.edge(d, d);
        b.broadcast_guarded(a, d, [Guard::state_equals(c, 0)], [(a, c)]);
        let t = b.build(a);
        assert!(!t.is_free());
        assert!(t.has_broadcasts());
        let bc = &t.broadcasts()[0];
        assert_eq!((bc.source(), bc.target()), (a, d));
        assert_eq!(bc.guards(), &[Guard::state_equals(c, 0)]);
        // Response is identity-completed: a -> c, c -> c, d -> d.
        assert_eq!(bc.response(), &[c, c, d]);
        assert_eq!(bc.response_of(a), c);
        assert!(!bc.is_identity_response());
        assert!(t.broadcast_enabled(&CounterState::new(vec![3, 0, 0]), bc));
        assert!(!t.broadcast_enabled(&CounterState::new(vec![2, 1, 0]), bc));
    }

    #[test]
    fn identity_response_broadcast_detected() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let c = b.state("c", ["c"]);
        b.edge(a, a);
        b.edge(c, c);
        b.broadcast(a, c, []);
        let t = b.build(a);
        assert!(t.broadcasts()[0].is_identity_response());
    }

    #[test]
    #[should_panic(expected = "duplicate broadcast response")]
    fn duplicate_broadcast_response_rejected() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let c = b.state("c", ["c"]);
        b.edge(a, a);
        b.edge(c, c);
        b.broadcast(a, c, [(c, a), (c, c)]);
        b.build(a);
    }

    #[test]
    #[should_panic(expected = "broadcast response for unknown state")]
    fn broadcast_response_on_unknown_state_rejected() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        b.edge(a, a);
        b.broadcast(a, a, [(9, a)]);
        b.build(a);
    }

    #[test]
    fn fingerprint_distinguishes_new_guards_and_broadcasts() {
        let build = |guard: Guard| {
            let mut b = GuardedBuilder::new();
            let a = b.state("a", ["p"]);
            b.edge_guarded(a, a, [guard]);
            b.build(a)
        };
        // Same names and bounds, different guard kinds: all distinct.
        let encodings: Vec<Vec<u8>> = [
            Guard::at_most("p", 1),
            Guard::at_least("p", 1),
            Guard::equals("p", 1),
            Guard::in_range("p", 1, 1),
            Guard::state_at_most(0, 1),
            Guard::state_at_least(0, 1),
            Guard::state_equals(0, 1),
            Guard::state_in_range(0, 1, 1),
        ]
        .into_iter()
        .map(|g| bytes(&build(g)))
        .collect();
        for (i, a) in encodings.iter().enumerate() {
            for (j, b) in encodings.iter().enumerate() {
                assert_eq!(a == b, i == j, "guard kinds {i} vs {j}");
            }
        }

        // Templates differing only in a broadcast (presence, guard, or
        // response map) encode differently.
        let with_bcast = |guards: Vec<Guard>, responses: Vec<(u32, u32)>| {
            let mut b = GuardedBuilder::new();
            let a = b.state("a", ["a"]);
            let c = b.state("c", ["c"]);
            b.edge(a, c);
            b.edge(c, a);
            b.broadcast_guarded(a, c, guards, responses);
            b.build(a)
        };
        let plain = {
            let mut b = GuardedBuilder::new();
            let a = b.state("a", ["a"]);
            let c = b.state("c", ["c"]);
            b.edge(a, c);
            b.edge(c, a);
            b.build(a)
        };
        let identity = with_bcast(vec![], vec![]);
        let remap = with_bcast(vec![], vec![(1, 0)]);
        let guarded = with_bcast(vec![Guard::state_equals(0, 1)], vec![(1, 0)]);
        assert_ne!(bytes(&plain), bytes(&identity));
        assert_ne!(bytes(&identity), bytes(&remap));
        assert_ne!(bytes(&remap), bytes(&guarded));
        assert_eq!(
            bytes(&with_bcast(vec![], vec![(1, 0)])),
            bytes(&remap),
            "deterministic"
        );
    }

    #[test]
    fn ring_station_shape_and_guards() {
        let t = ring_station_template(4, 2);
        assert_eq!(t.num_states(), 4);
        assert_eq!(t.initial(), 0);
        // Advancing into station 1 is capacity-guarded; returning to the
        // lobby (s3 -> s0) is always open.
        assert_eq!(t.guards(0, 0), &[Guard::state_at_most(1, 1)]);
        assert_eq!(t.guards(3, 0), &[]);
        // Full downstream station blocks the move.
        assert!(!t.enabled(&CounterState::new(vec![3, 2, 0, 0]), 0, 0));
        assert!(t.enabled(&CounterState::new(vec![3, 1, 1, 0]), 0, 0));
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let base = bytes(&mutex_template());
        assert_eq!(base, bytes(&mutex_template()), "deterministic");
        assert_ne!(base, bytes(&ring_station_template(3, 1)));
        assert_ne!(
            bytes(&ring_station_template(3, 1)),
            bytes(&ring_station_template(3, 2)),
            "guard bounds are part of the encoding"
        );
        assert_ne!(
            bytes(&ring_station_template(3, 1)),
            bytes(&ring_station_template(4, 1))
        );
        // An unguarded copy of the mutex cycle differs from the guarded one.
        let mut b = GuardedBuilder::new();
        let idle = b.state("idle", ["idle"]);
        let trying = b.state("try", ["try"]);
        let crit = b.state("crit", ["crit"]);
        b.edge(idle, trying);
        b.edge(trying, crit);
        b.edge(crit, idle);
        assert_ne!(bytes(&b.build(idle)), base);
    }

    #[test]
    fn fairness_declarations_build_and_query() {
        let mut b = GuardedBuilder::new();
        let idle = b.state("idle", ["idle"]);
        let done = b.state("done", ["done"]);
        b.edge(idle, idle);
        b.edge(idle, done);
        b.edge(done, done);
        b.fair("progress", [(idle, done)]);
        let t = b.build(idle);
        assert!(t.is_fair());
        assert_eq!(t.fairness().len(), 1);
        let d = &t.fairness()[0];
        assert_eq!(d.name(), "progress");
        assert_eq!(d.moves(), &[(idle, done)]);
        assert!(d.contains(idle, done));
        assert!(!d.contains(done, idle));
        assert!(!mutex_template().is_fair());
    }

    #[test]
    fn with_fairness_extends_a_built_template() {
        let plain = mutex_template();
        assert!(!plain.is_fair());
        let fair = plain.clone().with_fairness("release", [(2, 0)]);
        assert!(fair.is_fair());
        assert_eq!(fair.fairness().len(), 1);
        assert_eq!(fair.fairness()[0].name(), "release");
        // The fair variant is a different workload identity...
        assert_ne!(plain.fingerprint(), fair.fingerprint());
        // ...but the structure is untouched.
        assert_eq!(plain.num_states(), fair.num_states());
        let twice = fair.with_fairness("enter", [(1, 2)]);
        assert_eq!(twice.fairness().len(), 2);
    }

    #[test]
    #[should_panic(expected = "no edge or broadcast realizes")]
    fn with_fairness_rejects_unrealized_moves() {
        let _ = mutex_template().with_fairness("ghost", [(0, 2)]);
    }

    #[test]
    fn fairness_may_select_broadcast_moves() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let c = b.state("c", ["c"]);
        b.edge(a, a);
        b.edge(c, c);
        b.broadcast(a, c, [(a, c)]);
        b.fair("flush", [(a, c)]);
        let t = b.build(a);
        assert!(t.is_fair());
    }

    #[test]
    #[should_panic(expected = "no edge or broadcast realizes")]
    fn fairness_on_missing_move_rejected() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let c = b.state("c", ["c"]);
        b.edge(a, c);
        b.edge(c, c);
        b.edge(a, a);
        b.fair("ghost", [(c, a)]);
        b.build(a);
    }

    #[test]
    #[should_panic(expected = "selects no moves")]
    fn empty_fairness_declaration_rejected() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        b.edge(a, a);
        b.fair("empty", []);
        b.build(a);
    }

    #[test]
    #[should_panic(expected = "unknown state")]
    fn fairness_on_unknown_state_rejected() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        b.edge(a, a);
        b.fair("oob", [(a, 7)]);
        b.build(a);
    }

    #[test]
    fn fingerprint_covers_fairness_but_only_when_present() {
        let make = |fair: bool| {
            let mut b = GuardedBuilder::new();
            let idle = b.state("idle", ["idle"]);
            let done = b.state("done", ["done"]);
            b.edge(idle, idle);
            b.edge(idle, done);
            b.edge(done, done);
            if fair {
                b.fair("progress", [(idle, done)]);
            }
            b.build(idle)
        };
        let plain = make(false);
        let fair = make(true);
        assert_ne!(bytes(&plain), bytes(&fair));
        assert_eq!(bytes(&fair), bytes(&make(true)));
        // A different declaration name changes the encoding too.
        let mut b = GuardedBuilder::new();
        let idle = b.state("idle", ["idle"]);
        let done = b.state("done", ["done"]);
        b.edge(idle, idle);
        b.edge(idle, done);
        b.edge(done, done);
        b.fair("other", [(idle, done)]);
        assert_ne!(bytes(&b.build(idle)), bytes(&fair));
    }

    /// Every one-field change the encoding must see: one guard bound,
    /// one broadcast response entry, one fairness move. Mutants need not
    /// be buildable; only their encoding is compared.
    fn one_field_mutants(t: &GuardedTemplate) -> Vec<GuardedTemplate> {
        let bump = |g: &Guard| match g.clone() {
            Guard::AtMost(p, k) => Guard::AtMost(p, k + 1),
            Guard::AtLeast(p, k) => Guard::AtLeast(p, k + 1),
            Guard::Equals(p, k) => Guard::Equals(p, k + 1),
            Guard::InRange(p, lo, hi) => Guard::InRange(p, lo, hi + 1),
            Guard::StateAtMost(q, k) => Guard::StateAtMost(q, k + 1),
            Guard::StateAtLeast(q, k) => Guard::StateAtLeast(q, k + 1),
            Guard::StateEquals(q, k) => Guard::StateEquals(q, k + 1),
            Guard::StateInRange(q, lo, hi) => Guard::StateInRange(q, lo, hi + 1),
        };
        let mut mutants = Vec::new();
        for (q, edges) in t.guards.iter().enumerate() {
            for (k, guards) in edges.iter().enumerate() {
                for (i, g) in guards.iter().enumerate() {
                    let mut m = t.clone();
                    m.guards[q][k][i] = bump(g);
                    mutants.push(m);
                }
            }
        }
        for (i, b) in t.broadcasts.iter().enumerate() {
            for (j, g) in b.guards.iter().enumerate() {
                let mut m = t.clone();
                m.broadcasts[i].guards[j] = bump(g);
                mutants.push(m);
            }
            for q in 0..b.response.len() {
                let mut m = t.clone();
                let r = &mut m.broadcasts[i].response[q];
                *r = (*r + 1) % t.num_states() as u32;
                if t.num_states() > 1 {
                    mutants.push(m);
                }
            }
        }
        for (i, d) in t.fairness.iter().enumerate() {
            for j in 0..d.moves.len() {
                let mut m = t.clone();
                m.fairness[i].moves[j].1 += 1;
                mutants.push(m);
            }
        }
        mutants
    }

    #[test]
    fn encoding_is_equal_exactly_when_workloads_are() {
        // Random templates over every guard kind, broadcasts and
        // fairness (seeds repeat, so equal pairs occur too), plus the
        // gallery and its fair variants.
        let config = RandomGuardedConfig {
            max_fairness: 2,
            ..RandomGuardedConfig::default()
        };
        let mut templates: Vec<GuardedTemplate> = (0..48u64)
            .map(|i| random_guarded_template(&mut StdRng::seed_from_u64(i % 32), &config))
            .collect();
        templates.extend([
            mutex_template(),
            mutex_template().with_fairness("release", [(2, 0)]),
            ring_station_template(3, 1),
            ring_station_template(3, 2),
            ring_station_template(24, 3),
            barrier_template(),
            msi_template(),
            wakeup_template(),
        ]);
        let encodings: Vec<Vec<u8>> = templates.iter().map(bytes).collect();
        let mut mutated = 0;
        for (a, ea) in templates.iter().zip(&encodings) {
            for (b, eb) in templates.iter().zip(&encodings) {
                assert_eq!(ea == eb, a == b, "{a:?} vs {b:?}");
            }
            for m in one_field_mutants(a) {
                assert_ne!(m, *a);
                assert_ne!(bytes(&m), *ea, "one-field change to {a:?}");
                mutated += 1;
            }
        }
        assert!(mutated > 100, "only {mutated} mutants exercised");

        // Specs: equal exactly when `==`, and one threshold moves the
        // bytes of the whole workload.
        let t = mutex_template();
        let specs = [
            CountingSpec::new(),
            CountingSpec::standard(&t),
            CountingSpec::standard(&t),
            CountingSpec::exhaustive(&t, 3),
            CountingSpec::new().with_at_least("crit", 2),
            CountingSpec::new().with_at_least("crit", 3),
            CountingSpec::new().with_zero("crit"),
            CountingSpec::new().with_exactly_one("crit"),
        ];
        for a in &specs {
            for b in &specs {
                assert_eq!(workload_bytes(&t, a) == workload_bytes(&t, b), a == b);
            }
        }
    }

    #[test]
    fn shared_prop_across_states() {
        // Two distinct local states carrying the same proposition count
        // jointly toward its occupancy.
        let mut b = GuardedBuilder::new();
        let x = b.state("x", ["busy"]);
        let y = b.state("y", ["busy"]);
        b.edge(x, y);
        b.edge(y, x);
        let t = b.build(x);
        assert_eq!(t.states_with("busy"), &[0, 1]);
        assert_eq!(t.prop_count(&CounterState::new(vec![3, 4]), "busy"), 7);
    }
}
