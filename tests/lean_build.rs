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

use std::collections::{HashMap, HashSet};

use icstar_kripke::{Atom, Kripke, KripkeBuilder};
use icstar_nets::fig41_template;
use icstar_sym::arb::{random_guarded_template, RandomGuardedConfig};
use icstar_sym::{
    barrier_template, msi_template, mutex_template, representative_with_states,
    ring_station_template, wakeup_template, CounterState, CounterSystem, CountingSpec,
    GuardedTemplate, RepState, REPRESENTATIVE_INDEX,
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
