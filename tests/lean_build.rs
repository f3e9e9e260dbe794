//! The lean abstract build against a reference build.
//!
//! The counter, sharded and representative structures are labeled from
//! a compiled label plan and frozen straight from CSR. This suite
//! rebuilds each of them the plain way — an independent BFS, every
//! state's atoms listed by `CountingSpec::atoms_for_counter` (or, for
//! tracked copies, one `p[c]` atom per local label) and interned through
//! `KripkeBuilder` — and demands the two agree exactly: the initial
//! state, every state's name, label and ordered successors, and the atom
//! table itself (ids in order of first appearance).
//!
//! Inputs: every gallery template of `docs/WORKLOADS.md` and a batch of
//! random guarded templates with broadcasts, at n ∈ {0, 1, 2, 7, 40},
//! under the standard spec and an exhaustive one that also names a
//! proposition no local state carries.
//!
//! Compiled fairness gets the same treatment: the gallery's weakly fair
//! variants and random fair templates, at n ∈ {1, 2, 7, 40}, compiled
//! onto the counter structure and widths 1–2 must equal a reference
//! that walks every declaration's move pairs state by state, and must
//! meet the `FairReq` contract on the structure they were compiled for.

use std::collections::{BTreeSet, HashMap, HashSet};

use icstar_kripke::{Atom, Kripke, KripkeBuilder};
use icstar_mc::fair::TransFairness;
use icstar_nets::fig41_template;
use icstar_sym::arb::{random_guarded_template, RandomGuardedConfig};
use icstar_sym::fairness::{counter_fairness, rep_fairness};
use icstar_sym::{
    barrier_template, counter_graph, msi_template, mutex_template, rep_graph,
    representative_with_states, ring_station_template, wakeup_template, CounterState,
    CounterSystem, CountingSpec, GuardedTemplate, RepState, REPRESENTATIVE_INDEX,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [u32; 5] = [0, 1, 2, 7, 40];

fn templates() -> Vec<(String, GuardedTemplate)> {
    let mut all = vec![
        ("fig41".to_string(), GuardedTemplate::free(fig41_template())),
        ("mutex".to_string(), mutex_template()),
        ("ring-station".to_string(), ring_station_template(4, 1)),
        ("barrier".to_string(), barrier_template()),
        ("msi".to_string(), msi_template()),
        ("wakeup".to_string(), wakeup_template()),
    ];
    let cfg = RandomGuardedConfig::default();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(12_000 + seed);
        all.push((
            format!("random seed {seed}"),
            random_guarded_template(&mut rng, &cfg),
        ));
    }
    all
}

fn specs(t: &GuardedTemplate) -> Vec<CountingSpec> {
    vec![
        CountingSpec::standard(t),
        CountingSpec::exhaustive(t, 3).with_zero("ghost"),
    ]
}

/// The reachable states in BFS discovery order, found without any of
/// the build's own bookkeeping.
fn bfs<S: Clone + Eq + std::hash::Hash>(init: S, succs: impl Fn(&S) -> Vec<S>) -> Vec<S> {
    let mut seen: HashSet<S> = HashSet::from([init.clone()]);
    let mut order = vec![init];
    let mut head = 0;
    while head < order.len() {
        for next in succs(&order[head]) {
            if seen.insert(next.clone()) {
                order.push(next);
            }
        }
        head += 1;
    }
    order
}

/// Builds a structure over `order` (state `i` is `order[i]`) through
/// `KripkeBuilder`, with each state's name and atom list from `describe`.
fn reference<S: Clone + Eq + std::hash::Hash>(
    order: &[S],
    init: &S,
    succs: impl Fn(&S) -> Vec<S>,
    describe: impl Fn(&S) -> (String, Vec<Atom>),
) -> Kripke {
    let mut b = KripkeBuilder::new();
    let mut ids = HashMap::new();
    for s in order {
        let (name, atoms) = describe(s);
        ids.insert(s.clone(), b.state_labeled(name, atoms));
    }
    for s in order {
        for next in succs(s) {
            b.edge(ids[s], ids[&next]);
        }
    }
    b.build(ids[init]).expect("reference structure is total")
}

fn assert_same(got: &Kripke, want: &Kripke, ctx: &str) {
    got.validate().unwrap();
    assert_eq!(got.num_states(), want.num_states(), "{ctx}: state count");
    assert_eq!(got.initial(), want.initial(), "{ctx}: initial state");
    let table = |k: &Kripke| k.atoms().iter().map(|(_, a)| a.clone()).collect::<Vec<_>>();
    assert_eq!(table(got), table(want), "{ctx}: atoms()");
    for s in want.states() {
        assert_eq!(got.state_name(s), want.state_name(s), "{ctx}: name of {s}");
        assert_eq!(
            got.label_atoms(s),
            want.label_atoms(s),
            "{ctx}: label of {s}"
        );
        assert_eq!(got.label(s), want.label(s), "{ctx}: label bits of {s}");
        assert_eq!(
            got.successors(s),
            want.successors(s),
            "{ctx}: successors of {s}"
        );
    }
}

fn counter_reference(sys: &CounterSystem, spec: &CountingSpec, order: &[CounterState]) -> Kripke {
    reference(
        order,
        &sys.initial(),
        |s| sys.successors(s),
        |s| (sys.state_name(s), spec.atoms_for_counter(sys.template(), s)),
    )
}

/// The representative semantics, restated move by move: one tracked
/// copy moves, one abstracted copy moves, or a broadcast fires (from a
/// tracked or an abstracted initiator) with everyone else responding.
fn rep_successors(t: &GuardedTemplate, s: &RepState) -> Vec<RepState> {
    let total = s.total_counts(t.num_states());
    let mut out: Vec<RepState> = Vec::new();
    let mut push = |next: RepState| {
        if !out.contains(&next) {
            out.push(next);
        }
    };
    for (c, &q) in s.locals.iter().enumerate() {
        for (k, &q2) in t.successors(q).iter().enumerate() {
            if t.enabled(&total, q, k) {
                let mut locals = s.locals.clone();
                locals[c] = q2;
                push(RepState {
                    locals,
                    others: s.others.clone(),
                });
            }
        }
    }
    for q in 0..t.num_states() as u32 {
        if s.others.count(q) == 0 {
            continue;
        }
        for (k, &q2) in t.successors(q).iter().enumerate() {
            if t.enabled(&total, q, k) {
                push(RepState {
                    locals: s.locals.clone(),
                    others: s.others.move_one(q, q2),
                });
            }
        }
    }
    for bc in t.broadcasts() {
        if !t.broadcast_enabled(&total, bc) {
            continue;
        }
        let responded = || -> Vec<u32> { s.locals.iter().map(|&l| bc.response_of(l)).collect() };
        for (c, &q) in s.locals.iter().enumerate() {
            if q == bc.source() {
                let mut locals = responded();
                locals[c] = bc.target();
                push(RepState {
                    locals,
                    others: s.others.respond(bc.response()),
                });
            }
        }
        if s.others.count(bc.source()) > 0 {
            push(RepState {
                locals: responded(),
                others: s.others.broadcast(bc.source(), bc.target(), bc.response()),
            });
        }
    }
    if out.is_empty() {
        out.push(s.clone());
    }
    out
}

fn rep_reference(sys: &CounterSystem, spec: &CountingSpec, width: u32) -> Kripke {
    let t = sys.template();
    let init = RepState {
        locals: vec![t.initial(); width as usize],
        others: CounterState::all_in(t.num_states(), t.initial(), sys.size() - width),
    };
    let order = bfs(init.clone(), |s| rep_successors(t, s));
    reference(
        &order,
        &init,
        |s| rep_successors(t, s),
        |s| {
            let mut atoms = Vec::new();
            for (c, &l) in s.locals.iter().enumerate() {
                for p in t.labels(l) {
                    atoms.push(Atom::indexed(p.clone(), REPRESENTATIVE_INDEX + c as u32));
                }
            }
            atoms.extend(spec.atoms_for_counter(t, &s.total_counts(t.num_states())));
            let locals: Vec<&str> = s.locals.iter().map(|&l| t.state_name(l)).collect();
            let name = format!("rep={}|{}", locals.join(","), sys.state_name(&s.others));
            (name, atoms)
        },
    )
}

#[test]
fn counter_and_sharded_builds_match_the_reference() {
    for (name, t) in templates() {
        for spec in specs(&t) {
            for n in SIZES {
                let sys = CounterSystem::new(t.clone(), n);
                let order = bfs(sys.initial(), |s| sys.successors(s));
                let ctx = format!("{name}, n = {n}");
                let (got, states) = sys.kripke_with_states(&spec);
                assert_eq!(states, order, "{ctx}: state vectors");
                assert_same(&got, &counter_reference(&sys, &spec, &order), &ctx);

                // The sharded build numbers states in occupancy order.
                let mut sorted = order.clone();
                sorted.sort();
                let want = counter_reference(&sys, &spec, &sorted);
                for shards in [2usize, 3] {
                    let (got, states) = sys.kripke_sharded_with_states(&spec, shards);
                    assert_eq!(states, sorted, "{ctx}, {shards} shards: state vectors");
                    assert_same(&got, &want, &format!("{ctx}, {shards} shards"));
                }
            }
        }
    }
}

#[test]
fn representative_builds_match_the_reference() {
    for (name, t) in templates() {
        for spec in specs(&t) {
            for n in SIZES {
                for width in (1..=2).filter(|&w| w <= n) {
                    let sys = CounterSystem::new(t.clone(), n);
                    let (got, _) = representative_with_states(&sys, &spec, width).unwrap();
                    let want: Vec<u32> = (0..width).map(|c| REPRESENTATIVE_INDEX + c).collect();
                    assert_eq!(got.indices(), want.as_slice());
                    assert_same(
                        got.kripke(),
                        &rep_reference(&sys, &spec, width),
                        &format!("{name}, n = {n}, width {width}"),
                    );
                }
            }
        }
    }
}

const FAIR_SIZES: [u32; 4] = [1, 2, 7, 40];

/// The gallery's weakly fair variants (the liveness column of
/// `docs/WORKLOADS.md`) and random templates with fairness declarations.
fn fair_templates() -> Vec<(String, GuardedTemplate)> {
    let mut all = vec![
        (
            "fig41".to_string(),
            GuardedTemplate::free(fig41_template()).with_fairness("fall", [(0, 1)]),
        ),
        (
            "mutex".to_string(),
            mutex_template().with_fairness("enter", [(1, 2)]),
        ),
        (
            "ring-station".to_string(),
            ring_station_template(4, 1).with_fairness("advance", [(0, 1), (1, 2), (2, 3), (3, 0)]),
        ),
        (
            "barrier".to_string(),
            barrier_template()
                .with_fairness("arrive", [(0, 1), (2, 3)])
                .with_fairness("release", [(1, 2), (3, 0)]),
        ),
        (
            "msi".to_string(),
            msi_template().with_fairness("writeback", [(2, 0)]),
        ),
        (
            "wakeup".to_string(),
            wakeup_template().with_fairness("wake", [(0, 1)]),
        ),
    ];
    let cfg = RandomGuardedConfig {
        max_fairness: 2,
        ..RandomGuardedConfig::default()
    };
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(14_000 + seed);
        let t = random_guarded_template(&mut rng, &cfg);
        if t.is_fair() {
            all.push((format!("random seed {seed}"), t));
        }
    }
    assert!(all.len() > 12, "too few random fair templates");
    all
}

/// A requirement as plain data: released states and edges.
type Req = (Vec<usize>, BTreeSet<(u32, u32)>);

fn reqs(fair: &TransFairness) -> Vec<Req> {
    fair.reqs()
        .iter()
        .map(|r| (r.states().iter().collect(), r.edges().clone()))
        .collect()
}

/// Weak fairness compiled the per-group way: for every declaration,
/// every state and every declared `(src, tgt)` pair, flag each
/// transition a plain edge or a broadcast realizes, and release the
/// states where none is enabled. `fired(state, src, tgt)` lists the
/// successors realizing the pair from `state`, by a plain edge or a
/// broadcast.
fn fairness_reference<S: Clone + Eq + std::hash::Hash>(
    t: &GuardedTemplate,
    states: &[S],
    fired: impl Fn(&S, u32, u32) -> Vec<S>,
) -> Vec<Req> {
    let index: HashMap<&S, u32> = states.iter().zip(0u32..).collect();
    t.fairness()
        .iter()
        .map(|d| {
            let mut released = Vec::new();
            let mut edges = BTreeSet::new();
            for (i, s) in states.iter().enumerate() {
                let mut any = false;
                for &(src, tgt) in d.moves() {
                    for next in fired(s, src, tgt) {
                        any = true;
                        edges.insert((i as u32, index[&next]));
                    }
                }
                if !any {
                    released.push(i);
                }
            }
            (released, edges)
        })
        .collect()
}

/// Whether some plain edge `src -> tgt` is enabled at occupancy `total`.
fn plain_enabled(t: &GuardedTemplate, total: &CounterState, src: u32, tgt: u32) -> bool {
    t.successors(src)
        .iter()
        .enumerate()
        .any(|(k, &q2)| q2 == tgt && t.enabled(total, src, k))
}

fn counter_fairness_reference(t: &GuardedTemplate, states: &[CounterState]) -> Vec<Req> {
    fairness_reference(t, states, |c, src, tgt| {
        let mut out = Vec::new();
        if c.count(src) == 0 {
            return out;
        }
        if plain_enabled(t, c, src, tgt) {
            out.push(c.move_one(src, tgt));
        }
        for bc in t.broadcasts() {
            if bc.source() == src && bc.target() == tgt && t.broadcast_enabled(c, bc) {
                out.push(c.broadcast(src, tgt, bc.response()));
            }
        }
        out
    })
}

fn rep_fairness_reference(t: &GuardedTemplate, states: &[RepState]) -> Vec<Req> {
    fairness_reference(t, states, |s, src, tgt| {
        let total = s.total_counts(t.num_states());
        let mut out = Vec::new();
        let tracked = s.locals.iter().enumerate().filter(|&(_, &q)| q == src);
        if plain_enabled(t, &total, src, tgt) {
            for (c, _) in tracked.clone() {
                let mut locals = s.locals.clone();
                locals[c] = tgt;
                out.push(RepState {
                    locals,
                    others: s.others.clone(),
                });
            }
            if s.others.count(src) > 0 {
                out.push(RepState {
                    locals: s.locals.clone(),
                    others: s.others.move_one(src, tgt),
                });
            }
        }
        for bc in t.broadcasts() {
            if bc.source() != src || bc.target() != tgt || !t.broadcast_enabled(&total, bc) {
                continue;
            }
            let responded =
                || -> Vec<u32> { s.locals.iter().map(|&l| bc.response_of(l)).collect() };
            for (c, _) in tracked.clone() {
                let mut locals = responded();
                locals[c] = tgt;
                out.push(RepState {
                    locals,
                    others: s.others.respond(bc.response()),
                });
            }
            if s.others.count(src) > 0 {
                out.push(RepState {
                    locals: responded(),
                    others: s.others.broadcast(src, tgt, bc.response()),
                });
            }
        }
        out
    })
}

#[test]
fn fairness_compilation_matches_the_per_group_reference() {
    for (name, t) in fair_templates() {
        let spec = CountingSpec::standard(&t);
        for n in FAIR_SIZES {
            let sys = CounterSystem::new(t.clone(), n);
            let ctx = format!("{name}, n = {n}");
            let (_, states) = sys.kripke_with_states(&spec);
            assert_eq!(
                reqs(&counter_fairness(&sys, &states)),
                counter_fairness_reference(&t, &states),
                "{ctx}: counter"
            );
            for width in (1..=2).filter(|&w| w <= n) {
                let (_, states) = representative_with_states(&sys, &spec, width).unwrap();
                assert_eq!(
                    reqs(&rep_fairness(&sys, &states)),
                    rep_fairness_reference(&t, &states),
                    "{ctx}, width {width}"
                );
            }
        }
    }
}

/// `FairReq`'s contract on the structure it was compiled for: every
/// requirement edge is a transition, and the released states are
/// exactly those with no outgoing requirement edge.
fn assert_contract(k: &Kripke, fair: &TransFairness, groups: usize, ctx: &str) {
    assert_eq!(
        fair.reqs().len(),
        groups,
        "{ctx}: one requirement per group"
    );
    for (g, req) in fair.reqs().iter().enumerate() {
        let mut sources = HashSet::new();
        for &(s, d) in req.edges() {
            let succs = k.successors(icstar_kripke::StateId(s));
            assert!(
                succs.contains(&icstar_kripke::StateId(d)),
                "{ctx}, group {g}: edge {s} -> {d} is no transition"
            );
            sources.insert(s as usize);
        }
        for s in 0..k.num_states() {
            assert_eq!(
                req.states().contains(s),
                !sources.contains(&s),
                "{ctx}, group {g}: state {s} released iff no requirement edge leaves it"
            );
        }
    }
}

#[test]
fn compiled_fairness_meets_the_fair_req_contract() {
    for (name, t) in fair_templates() {
        let spec = CountingSpec::standard(&t);
        let groups = t.fairness().len();
        for n in FAIR_SIZES {
            let sys = CounterSystem::new(t.clone(), n);
            let ctx = format!("{name}, n = {n}");
            let g = counter_graph(&sys, &spec);
            assert_contract(&g.kripke, &g.fairness, groups, &format!("{ctx}: counter"));
            for width in (1..=2).filter(|&w| w <= n) {
                let g = rep_graph(&sys, &spec, width).unwrap();
                assert_contract(
                    g.kripke.kripke(),
                    &g.fairness,
                    groups,
                    &format!("{ctx}, width {width}"),
                );
            }
        }
    }
}
