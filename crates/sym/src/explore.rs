//! On-the-fly exploration of the counter-abstracted state space.
//!
//! [`CounterSystem`] is the abstract transition system itself: initial
//! occupancy vector and successor generation, never materializing more
//! than the reachable frontier. [`CounterSystem::kripke`] runs a BFS and
//! freezes the reachable abstract graph as an ordinary
//! [`icstar_kripke::Kripke`] labeled with the counting atoms of a
//! [`CountingSpec`] — after which the stock `icstar_mc` checkers run on it
//! unchanged.
//!
//! An abstract transition either moves *one* copy along one (enabled)
//! local transition, mirroring the interleaving semantics of
//! [`icstar_nets::interleave`], or fires a **broadcast move**
//! ([`icstar_sym::Broadcast`](crate::Broadcast)): one initiating copy
//! steps while every other copy simultaneously follows the response map —
//! on occupancy vectors a single O(|S|) rewrite, in the sequential BFS
//! and the sharded exploration alike. Abstract states with no enabled
//! move (possible only under guards, or at `n = 0`) receive a stuttering
//! self-loop so the transition relation stays total, as the paper
//! requires.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use icstar_kripke::{Kripke, StateId};
use icstar_telemetry::{FlightRecorder, Registry, SpanContext};

use crate::counter::{CounterPacking, CounterState, PackedCounter};
use crate::labels::CountingSpec;
use crate::moves::MoveState;
use crate::plan::LabelPlan;
use crate::template::GuardedTemplate;

/// The counter abstraction of `n` identical copies of a template: an
/// on-the-fly abstract transition system.
///
/// # Examples
///
/// ```
/// use icstar_sym::{CounterSystem, mutex_template};
///
/// let sys = CounterSystem::new(mutex_template(), 1000);
/// let init = sys.initial();
/// assert_eq!(init.count(0), 1000);
/// // One abstract move: some copy goes idle -> try.
/// let succs = sys.successors(&init);
/// assert_eq!(succs.len(), 1);
/// assert_eq!(succs[0].counts(), &[999, 1, 0]);
/// ```
#[derive(Clone, Debug)]
pub struct CounterSystem {
    template: GuardedTemplate,
    n: u32,
    packing: CounterPacking,
    telemetry: Registry,
    trace: Option<(FlightRecorder, SpanContext)>,
}

impl CounterSystem {
    /// The abstraction of `n` copies of `template`. `n = 0` is the empty
    /// composition: a single stuttering state.
    ///
    /// Exploration metrics (`sym.explore.*`) go to
    /// [`Registry::global`]; use [`CounterSystem::with_telemetry`] to
    /// redirect them.
    pub fn new(template: GuardedTemplate, n: u32) -> Self {
        let packing = CounterPacking::new(template.num_states(), n);
        CounterSystem {
            template,
            n,
            packing,
            telemetry: Registry::global().clone(),
            trace: None,
        }
    }

    /// Redirects this system's exploration metrics to `registry` —
    /// services publish into their own registry, tests isolate counts.
    #[must_use]
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = registry;
        self
    }

    /// Attaches a causal-trace parent: the sharded exploration then
    /// records one `shard[i]` span per worker (with `tid = i` and the
    /// shard's arrival/state counts as attributes) under `parent` in
    /// `recorder`, making shard imbalance directly visible in a single
    /// job's trace. Without this, exploration records no spans — only
    /// the aggregate `sym.explore.*` metrics.
    #[must_use]
    pub fn with_trace(mut self, recorder: FlightRecorder, parent: SpanContext) -> Self {
        self.trace = Some((recorder, parent));
        self
    }

    /// The template being composed.
    pub fn template(&self) -> &GuardedTemplate {
        &self.template
    }

    /// The number of composed copies `n`.
    pub fn size(&self) -> u32 {
        self.n
    }

    /// The packed-key layout for this system's counter vectors.
    pub fn packing(&self) -> &CounterPacking {
        &self.packing
    }

    /// The initial abstract state: all `n` copies in the template's
    /// initial local state.
    pub fn initial(&self) -> CounterState {
        CounterState::all_in(self.template.num_states(), self.template.initial(), self.n)
    }

    /// The distinct abstract successors of `state`, in deterministic
    /// order. Always non-empty: a state with no enabled move yields a
    /// stuttering `[state]`.
    ///
    /// The moves come from the one move enumerator shared with the
    /// representative construction and the fairness compiler, which
    /// yields each enabled `(from, to)` local-state pair once. Two
    /// single-copy moves yield the same occupancy vector only if they
    /// share that pair (distinct sources change distinct entries) —
    /// except self-moves `q → q`, which all collapse onto `state` itself.
    /// Single moves therefore need one self-move flag, not whole-vector
    /// comparisons.
    ///
    /// Broadcast moves follow the single-copy moves: each enabled
    /// broadcast is one O(|S|) whole-vector rewrite
    /// ([`CounterState::broadcast`]) — an abstract transition costs the
    /// same whether it synchronizes zero copies or a million. Broadcast
    /// results can coincide with each other or with single-copy results
    /// (e.g. an identity response map *is* a single move), so they are
    /// deduplicated by vector comparison against the handful of
    /// successors already emitted.
    pub fn successors(&self, state: &CounterState) -> Vec<CounterState> {
        let mut out: Vec<CounterState> = Vec::new();
        let mut self_move_seen = false;
        state.for_each_move(&self.template, |m| {
            if m.broadcast.is_some() {
                let next = state.apply(&m);
                if !out.contains(&next) {
                    out.push(next);
                }
            } else if m.src != m.tgt {
                out.push(state.apply(&m));
            } else if !self_move_seen {
                // A self-move leaves the occupancy unchanged; all such
                // moves (from any source) are one abstract edge.
                self_move_seen = true;
                out.push(state.clone());
            }
        });
        if out.is_empty() {
            out.push(state.clone());
        }
        out
    }

    /// A readable name for an abstract state: non-empty local states with
    /// their occupancy, e.g. `idle^2|crit^1`.
    pub fn state_name(&self, state: &CounterState) -> String {
        let mut name = String::new();
        self.push_state_name(state, &mut name);
        name
    }

    /// Appends [`CounterSystem::state_name`] to `out`.
    pub(crate) fn push_state_name(&self, state: &CounterState, out: &mut String) {
        let start = out.len();
        for (q, &c) in state.counts().iter().enumerate() {
            if c > 0 {
                if out.len() > start {
                    out.push('|');
                }
                let _ = write!(out, "{}^{}", self.template.base().state_name(q as u32), c);
            }
        }
        if out.len() == start {
            out.push_str("empty");
        }
    }

    /// Materializes the reachable abstract graph as a [`Kripke`] labeled
    /// with the counting atoms of `spec`.
    ///
    /// The result has at most `binom(n + |Q| - 1, |Q| - 1)` states —
    /// polynomial in `n` for a fixed template — instead of the `|Q|^n`
    /// states of the explicit composition.
    pub fn kripke(&self, spec: &CountingSpec) -> Kripke {
        self.kripke_with_states(spec).0
    }

    /// [`CounterSystem::kripke`] plus the occupancy vector of every
    /// state, indexed by [`StateId`] (position `i` is the vector of state
    /// `i`). The fairness compiler ([`crate::fairness`]) uses the vectors
    /// to re-enumerate each state's moves and flag the fair ones.
    pub fn kripke_with_states(&self, spec: &CountingSpec) -> (Kripke, Vec<CounterState>) {
        let started = Instant::now();
        let graph = explore(self.initial(), &self.packing, |state| {
            self.successors(state)
        });
        // Exploration telemetry is flushed once after the sweep: the hot
        // loop itself touches no atomics. Every successor arrival is one
        // edge.
        self.flush_explore_metrics(
            graph.states.len() as u64,
            graph.succ_edges.len() as u64,
            started,
        );
        self.telemetry
            .gauge("sym.explore.frontier_peak")
            .set_max(graph.frontier_peak as i64);
        let kripke = self.freeze(
            spec,
            &graph.states,
            graph.succ_heads,
            graph.succ_edges,
            StateId(0),
        );
        (kripke, graph.states)
    }

    /// Labels and names explored states and freezes them with their CSR
    /// successor lists: `states[i]` becomes state `i`. The sequential and
    /// sharded builds share this step.
    fn freeze(
        &self,
        spec: &CountingSpec,
        states: &[CounterState],
        succ_heads: Vec<u32>,
        succ_edges: Vec<StateId>,
        init: StateId,
    ) -> Kripke {
        let plan = LabelPlan::new(spec, &self.template, 0);
        let mut labeler = plan.labeler(states.len());
        let names = states
            .iter()
            .map(|state| {
                labeler.push(state.counts(), &[]);
                self.state_name(state)
            })
            .collect();
        let (atoms, labels) = labeler.finish();
        Kripke::from_csr(atoms, labels, succ_heads, succ_edges, init, names)
            .expect("counter exploration is stutter-completed, hence total")
    }

    /// Publishes one exploration's aggregate counts:
    /// `sym.explore.states` (distinct states discovered) vs
    /// `sym.explore.arrivals` (successor arrivals, duplicates included)
    /// give the dedup ratio; `sym.explore.build_ns` over
    /// `sym.explore.states` gives states/sec.
    fn flush_explore_metrics(&self, states: u64, arrivals: u64, started: Instant) {
        self.telemetry.counter("sym.explore.builds").inc();
        self.telemetry.counter("sym.explore.states").add(states);
        self.telemetry.counter("sym.explore.arrivals").add(arrivals);
        self.telemetry
            .histogram("sym.explore.build_ns")
            .record_duration(started.elapsed());
    }

    /// Materializes the same structure as [`CounterSystem::kripke`], but
    /// explores the reachable space with `shards` cooperating threads.
    ///
    /// Packed keys are partitioned by hash: each shard owns the states
    /// hashing to it, deduplicates arrivals against its own map (no shared
    /// mutable state), expands the new ones, and routes every successor to
    /// its owner's channel. A global in-flight counter (incremented before
    /// each send, decremented after processing) detects termination: when
    /// it reaches zero no state is queued or being expanded anywhere, so
    /// all shards stop. The per-shard state sets and edge lists are then
    /// merged and frozen in a canonical order.
    ///
    /// The result is **deterministic** — states sorted by occupancy
    /// vector, edges in per-state successor order — and *isomorphic* to
    /// the single-threaded structure (same states, labels, and edges;
    /// only the state numbering differs), for any `shards ≥ 1` and any
    /// thread interleaving. `shards == 1` falls back to the sequential
    /// BFS.
    pub fn kripke_sharded(&self, spec: &CountingSpec, shards: usize) -> Kripke {
        self.kripke_sharded_with_states(spec, shards).0
    }

    /// [`CounterSystem::kripke_sharded`] plus the id-ordered occupancy
    /// vectors, exactly as [`CounterSystem::kripke_with_states`] returns
    /// them for the sequential sweep.
    pub fn kripke_sharded_with_states(
        &self,
        spec: &CountingSpec,
        shards: usize,
    ) -> (Kripke, Vec<CounterState>) {
        if shards <= 1 {
            return self.kripke_with_states(spec);
        }
        let started = Instant::now();
        let (discovered, arrivals) = self.explore_sharded(shards);
        self.flush_explore_metrics(discovered.len() as u64, arrivals, started);

        let ids: HashMap<PackedCounter, StateId> = discovered
            .iter()
            .enumerate()
            .map(|(i, (state, _))| (self.packing.pack(state), StateId(i as u32)))
            .collect();
        let mut succ_heads = Vec::with_capacity(discovered.len() + 1);
        succ_heads.push(0u32);
        let mut succ_edges = Vec::new();
        for (_, succs) in &discovered {
            succ_edges.extend(succs.iter().map(|key| ids[key]));
            succ_heads.push(succ_edges.len() as u32);
        }
        let init = ids[&self.packing.pack(&self.initial())];
        drop(ids);
        let states: Vec<CounterState> = discovered.into_iter().map(|(state, _)| state).collect();
        let kripke = self.freeze(spec, &states, succ_heads, succ_edges, init);
        (kripke, states)
    }

    /// The parallel reachability sweep behind
    /// [`CounterSystem::kripke_sharded`]: returns every reachable state
    /// with its packed successor keys, sorted by occupancy vector, plus
    /// the total successor-arrival count. Each shard records its own
    /// wall time into `sym.explore.shard_ns` on exit, so imbalance
    /// between shards is visible as histogram spread.
    fn explore_sharded(&self, shards: usize) -> (Vec<(CounterState, Vec<PackedCounter>)>, u64) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};

        let shard_of = |key: &PackedCounter| -> usize {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            (h.finish() % shards as u64) as usize
        };
        let shard_of = &shard_of;

        let mut txs: Vec<Sender<CounterState>> = Vec::with_capacity(shards);
        let mut rxs: Vec<Receiver<CounterState>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel();
            txs.push(tx);
            rxs.push(rx);
        }

        // States sent but not yet fully expanded. Incrementing *before*
        // every send and decrementing only *after* a state's successors
        // have all been sent keeps the counter positive while any work
        // exists, so `pending == 0` is a sound termination signal.
        let pending = AtomicUsize::new(1);
        let init = self.initial();
        txs[shard_of(&self.packing.pack(&init))]
            .send(init)
            .expect("receiver is alive");

        let shard_ns = self.telemetry.histogram("sym.explore.shard_ns");
        let (mut discovered, arrivals): (Vec<(CounterState, Vec<PackedCounter>)>, u64) =
            std::thread::scope(|s| {
                let handles: Vec<_> = rxs
                    .into_iter()
                    .enumerate()
                    .map(|(shard_idx, rx)| {
                        let txs = txs.clone();
                        let pending = &pending;
                        let shard_ns = shard_ns.clone();
                        let trace = self.trace.clone();
                        s.spawn(move || {
                            // The shard's trace span (if a parent was
                            // attached): opened here, closed — and thereby
                            // recorded, with this shard's counts, into the
                            // ring and `sym.explore.shard_ns` — when the
                            // worker exits. Untraced, the shard is
                            // plain-timed into the same histogram.
                            let shard_span = trace.map(|(recorder, parent)| {
                                let mut span =
                                    recorder.scope_under(parent, format!("shard[{shard_idx}]"));
                                span.set_tid(shard_idx as u32);
                                span.set_histogram(shard_ns.clone());
                                span
                            });
                            let shard_started = Instant::now();
                            let mut arrivals = 0u64;
                            let mut seen: std::collections::HashSet<PackedCounter> =
                                std::collections::HashSet::new();
                            let mut mine: Vec<(CounterState, Vec<PackedCounter>)> = Vec::new();
                            loop {
                                // Block (kernel-parked) until a state arrives,
                                // re-checking the termination counter once per
                                // millisecond — long enough that starved
                                // shards cost ~nothing, short enough that the
                                // post-completion drain is invisible next to
                                // any real exploration.
                                match rx.recv_timeout(std::time::Duration::from_millis(1)) {
                                    Ok(state) => {
                                        arrivals += 1;
                                        let key = self.packing.pack(&state);
                                        if seen.insert(key) {
                                            let succs = self.successors(&state);
                                            let keys: Vec<PackedCounter> = succs
                                                .iter()
                                                .map(|succ| self.packing.pack(succ))
                                                .collect();
                                            for (succ, skey) in succs.into_iter().zip(&keys) {
                                                pending.fetch_add(1, Ordering::SeqCst);
                                                txs[shard_of(skey)]
                                                    .send(succ)
                                                    .expect("peer exits only at pending == 0");
                                            }
                                            mine.push((state, keys));
                                        }
                                        pending.fetch_sub(1, Ordering::SeqCst);
                                    }
                                    Err(RecvTimeoutError::Timeout) => {
                                        if pending.load(Ordering::SeqCst) == 0 {
                                            break;
                                        }
                                    }
                                    Err(RecvTimeoutError::Disconnected) => break,
                                }
                            }
                            match shard_span {
                                Some(mut span) => {
                                    span.attr("arrivals", arrivals.to_string());
                                    span.attr("states", mine.len().to_string());
                                }
                                None => shard_ns.record_duration(shard_started.elapsed()),
                            }
                            (mine, arrivals)
                        })
                    })
                    .collect();
                drop(txs);
                let mut all = Vec::new();
                let mut arrivals = 0u64;
                for h in handles {
                    let (mine, shard_arrivals) = h.join().expect("shard worker panicked");
                    all.extend(mine);
                    arrivals += shard_arrivals;
                }
                (all, arrivals)
            });
        discovered.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        // The init send is a bootstrap, not a successor arrival; keep the
        // count comparable with the sequential BFS's.
        (discovered, arrivals.saturating_sub(1))
    }
}

/// A reachable graph with dense ids in BFS discovery order: `states[i]`
/// is state `i`, the initial state is state 0, and the successors of
/// state `i` are `succ_edges[succ_heads[i]..succ_heads[i + 1]]` — CSR
/// form, ready for [`Kripke::from_csr`].
pub(crate) struct Explored<S> {
    pub(crate) states: Vec<S>,
    pub(crate) succ_heads: Vec<u32>,
    pub(crate) succ_edges: Vec<StateId>,
    /// The most states discovered but not yet expanded at any one time.
    pub(crate) frontier_peak: usize,
}

/// Breadth-first exploration from `init`. States are expanded in the
/// order they are discovered, so each state's successor list (in
/// `successors` order, duplicates kept) is appended straight to the CSR
/// arrays. Each state's dedup key ([`MoveState::key`]) is written into a
/// reused buffer; only a new state allocates its [`PackedCounter`].
pub(crate) fn explore<S: MoveState>(
    init: S,
    packing: &CounterPacking,
    mut successors: impl FnMut(&S) -> Vec<S>,
) -> Explored<S> {
    let mut ids: HashMap<PackedCounter, StateId> = HashMap::new();
    let mut buf = Vec::new();
    init.key(packing, &mut buf);
    ids.insert(PackedCounter::from_words(&buf), StateId(0));
    let mut graph = Explored {
        states: vec![init],
        succ_heads: vec![0],
        succ_edges: Vec::new(),
        frontier_peak: 0,
    };
    let mut head = 0;
    while head < graph.states.len() {
        graph.frontier_peak = graph.frontier_peak.max(graph.states.len() - head);
        for next in successors(&graph.states[head]) {
            next.key(packing, &mut buf);
            let to = match ids.get(buf.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = StateId(graph.states.len() as u32);
                    ids.insert(PackedCounter::from_words(&buf), id);
                    graph.states.push(next);
                    id
                }
            };
            graph.succ_edges.push(to);
        }
        graph.succ_heads.push(graph.succ_edges.len() as u32);
        head += 1;
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::at_least_atom;
    use crate::template::{mutex_template, GuardedTemplate};
    use icstar_nets::fig41_template;

    #[test]
    fn free_two_state_template_has_linear_abstract_space() {
        // Explicit: 2^n states. Abstract: n + 1 occupancy vectors.
        let t = GuardedTemplate::free(fig41_template());
        for n in 0..=6u32 {
            let sys = CounterSystem::new(t.clone(), n);
            let k = sys.kripke(&CountingSpec::standard(&t));
            assert_eq!(k.num_states() as u32, n + 1, "n = {n}");
            k.validate().unwrap();
        }
    }

    #[test]
    fn mutex_guard_bounds_critical_occupancy() {
        let t = mutex_template();
        let sys = CounterSystem::new(t.clone(), 5);
        let spec = CountingSpec::standard(&t);
        let k = sys.kripke(&spec);
        k.validate().unwrap();
        // The guard keeps #crit <= 1 in every reachable abstract state, so
        // the `crit_ge2` atom never appears.
        let crit2 = at_least_atom("crit", 2);
        assert!(k.states().all(|s| !k.satisfies_atom(s, &crit2)));
        // Reachable: (#try, #crit) with #crit <= 1 — 2n + 1 states.
        assert_eq!(k.num_states(), 11);
    }

    #[test]
    fn n_zero_is_a_single_stuttering_state() {
        let t = mutex_template();
        let sys = CounterSystem::new(t, 0);
        let init = sys.initial();
        assert_eq!(init.total(), 0);
        assert_eq!(sys.successors(&init), vec![init.clone()]);
        let k = sys.kripke(&CountingSpec::standard(sys.template()));
        assert_eq!(k.num_states(), 1);
        k.validate().unwrap();
        assert_eq!(sys.state_name(&init), "empty");
    }

    #[test]
    fn successors_deduplicate_equal_moves() {
        // Two parallel local transitions a -> b produce one abstract move.
        let mut b = crate::template::GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let bb = b.state("b", ["b"]);
        b.edge(a, bb);
        b.edge(a, bb);
        b.edge(bb, bb);
        let t = b.build(a);
        let sys = CounterSystem::new(t, 3);
        assert_eq!(sys.successors(&sys.initial()).len(), 1);
    }

    #[test]
    fn sharded_exploration_matches_sequential() {
        // Same states (by name), same labels, same edge set — for every
        // shard count, on guarded, free, and broadcast templates alike.
        use std::collections::BTreeSet;
        for t in [
            mutex_template(),
            GuardedTemplate::free(fig41_template()),
            crate::template::ring_station_template(3, 2),
            crate::workloads::barrier_template(),
            crate::workloads::msi_template(),
            crate::workloads::wakeup_template(),
        ] {
            let spec = CountingSpec::standard(&t);
            for n in [0u32, 1, 7, 40] {
                let sys = CounterSystem::new(t.clone(), n);
                let seq = sys.kripke(&spec);
                for shards in [2usize, 3, 8] {
                    let par = sys.kripke_sharded(&spec, shards);
                    par.validate().unwrap();
                    assert_eq!(par.num_states(), seq.num_states());
                    assert_eq!(par.num_transitions(), seq.num_transitions());
                    let snapshot = |k: &icstar_kripke::Kripke| {
                        let mut states = BTreeSet::new();
                        let mut edges = BTreeSet::new();
                        for s in k.states() {
                            let mut atoms = k.label_atoms(s);
                            atoms.sort();
                            states.insert((k.state_name(s).to_string(), atoms));
                            for &d in k.successors(s) {
                                edges.insert((
                                    k.state_name(s).to_string(),
                                    k.state_name(d).to_string(),
                                ));
                            }
                        }
                        (states, edges, k.state_name(k.initial()).to_string())
                    };
                    assert_eq!(snapshot(&par), snapshot(&seq), "shards = {shards}, n = {n}");
                }
            }
        }
    }

    #[test]
    fn broadcast_successors_rewrite_the_whole_vector() {
        let t = crate::workloads::barrier_template();
        let sys = CounterSystem::new(t, 5);
        // Everyone at the phase-0 barrier: the only moves are the spin
        // self-loop and the release broadcast flipping all 5 copies.
        let at_bar = CounterState::new(vec![0, 5, 0, 0]);
        let succs = sys.successors(&at_bar);
        assert_eq!(succs.len(), 2);
        assert_eq!(succs[0], at_bar, "spin");
        assert_eq!(succs[1].counts(), &[0, 0, 5, 0], "synchronized release");
        // One copy still working: the broadcast is guard-blocked.
        let working = CounterState::new(vec![1, 4, 0, 0]);
        assert!(sys.successors(&working).iter().all(|s| s.count(2) == 0));
    }

    #[test]
    fn identity_broadcast_deduplicates_against_single_moves() {
        // A broadcast whose response map is the identity is abstractly
        // the same edge as the plain move it shadows.
        let mut b = crate::template::GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let c = b.state("c", ["c"]);
        b.edge(a, c);
        b.edge(c, c);
        b.broadcast(a, c, []);
        let t = b.build(a);
        let sys = CounterSystem::new(t, 3);
        assert_eq!(sys.successors(&sys.initial()).len(), 1);
    }

    #[test]
    fn sharded_output_is_deterministic() {
        let t = mutex_template();
        let sys = CounterSystem::new(t.clone(), 25);
        let spec = CountingSpec::standard(&t);
        let a = sys.kripke_sharded(&spec, 4);
        for shards in [2usize, 4, 7] {
            let b = sys.kripke_sharded(&spec, shards);
            // States are frozen in sorted occupancy order, so the result
            // is bit-for-bit reproducible whatever the shard count.
            assert_eq!(a.num_states(), b.num_states());
            for s in a.states() {
                assert_eq!(a.state_name(s), b.state_name(s));
                assert_eq!(a.label_atoms(s), b.label_atoms(s));
                assert_eq!(a.successors(s), b.successors(s));
            }
            assert_eq!(a.initial(), b.initial());
        }
    }

    #[test]
    fn exploration_publishes_metrics() {
        let registry = icstar_telemetry::Registry::new();
        let t = mutex_template();
        let sys = CounterSystem::new(t.clone(), 5).with_telemetry(registry.clone());
        let spec = CountingSpec::standard(&t);
        let k = sys.kripke(&spec);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sym.explore.builds"), Some(1));
        assert_eq!(
            snap.counter("sym.explore.states"),
            Some(k.num_states() as u64)
        );
        // Arrivals count every generated successor: exactly the edge
        // count of the materialized graph, and >= distinct states since
        // duplicates are what deduplication removes.
        assert_eq!(
            snap.counter("sym.explore.arrivals"),
            Some(k.num_transitions() as u64)
        );
        assert!(snap.counter("sym.explore.arrivals") >= snap.counter("sym.explore.states"));
        assert!(snap.gauge("sym.explore.frontier_peak").unwrap() > 0);
        assert_eq!(snap.histogram("sym.explore.build_ns").unwrap().count, 1);

        // The sharded sweep publishes the same aggregates plus one
        // shard_ns sample per shard.
        let sharded = icstar_telemetry::Registry::new();
        let sys = CounterSystem::new(t.clone(), 5).with_telemetry(sharded.clone());
        sys.kripke_sharded(&spec, 3);
        let snap = sharded.snapshot();
        assert_eq!(snap.counter("sym.explore.builds"), Some(1));
        assert_eq!(
            snap.counter("sym.explore.states"),
            Some(k.num_states() as u64)
        );
        assert_eq!(
            snap.counter("sym.explore.arrivals"),
            Some(k.num_transitions() as u64)
        );
        assert_eq!(snap.histogram("sym.explore.shard_ns").unwrap().count, 3);
    }

    #[test]
    fn traced_sharded_exploration_records_one_span_per_shard() {
        let recorder = icstar_telemetry::FlightRecorder::with_capacity(64);
        let t = mutex_template();
        let spec = CountingSpec::standard(&t);
        let build = recorder.scope("build");
        let parent = build.context();
        let shards = 3usize;
        CounterSystem::new(t, 25)
            .with_trace(recorder.clone(), parent)
            .kripke_sharded(&spec, shards);
        drop(build);
        let spans = recorder.spans_for(parent.trace);
        let shard_spans: Vec<_> = spans
            .iter()
            .filter(|e| e.name.starts_with("shard["))
            .collect();
        assert_eq!(shard_spans.len(), shards);
        let mut names: Vec<_> = shard_spans.iter().map(|e| e.name.clone()).collect();
        names.sort();
        assert_eq!(names, ["shard[0]", "shard[1]", "shard[2]"]);
        for span in &shard_spans {
            assert_eq!(span.parent, Some(parent.span), "attached under build");
            assert!(span.attrs.iter().any(|(k, _)| k == "arrivals"));
            assert!(span.attrs.iter().any(|(k, _)| k == "states"));
        }
        // tid carries the shard index, so Perfetto lanes separate.
        let tids: std::collections::BTreeSet<u32> = shard_spans.iter().map(|e| e.tid).collect();
        assert_eq!(tids, (0..shards as u32).collect());
        // Untraced systems record nothing.
        let quiet = icstar_telemetry::FlightRecorder::with_capacity(64);
        CounterSystem::new(mutex_template(), 10)
            .kripke_sharded(&CountingSpec::standard(&mutex_template()), 2);
        assert!(quiet.is_empty());
    }

    #[test]
    fn state_names_show_occupancy() {
        let t = mutex_template();
        let sys = CounterSystem::new(t, 4);
        let s = CounterState::new(vec![3, 0, 1]);
        assert_eq!(sys.state_name(&s), "idle^3|crit^1");
    }

    #[test]
    fn guard_deadlock_is_stutter_completed() {
        // One state whose only transition is guarded impossibly.
        let mut b = crate::template::GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        b.edge_guarded(a, a, [crate::template::Guard::at_least("a", 99)]);
        let t = b.build(a);
        let sys = CounterSystem::new(t, 2);
        let init = sys.initial();
        assert_eq!(sys.successors(&init), vec![init.clone()]);
        let k = sys.kripke(&CountingSpec::standard(sys.template()));
        assert_eq!(k.num_states(), 1);
        k.validate().unwrap();
    }
}
