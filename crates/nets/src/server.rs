//! A client–server family: `n` identical clients and one *distinguished*
//! server.
//!
//! The paper's framework indexes the identical processes only; the server
//! contributes plain (non-indexed) atomic propositions. This family
//! exercises exactly that mix — and, unlike the token ring, its service
//! discipline is unordered, so the 2-client base case is sound (there is
//! no "queued behind" observable; contrast `ring`).
//!
//! Local client states: `idle → req → srv → idle`; the server is `free`
//! or busy serving one client. Global rules:
//!
//! 1. an idle client issues a request;
//! 2. the free server picks *any* requesting client (nondeterministic);
//! 3. the served client finishes, freeing the server.

use std::collections::HashMap;

use icstar_kripke::{Atom, Index, IndexedKripke, KripkeBuilder, StateId};
use icstar_logic::parse_state;

use crate::formulas::NamedFormula;

/// Per-client local state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Client {
    Idle,
    Requesting,
    Served,
}

/// Builds the reachable global structure of the `n`-client system.
///
/// Indexed atoms: `idle_i`, `req_i`, `srv_i`. Plain atom: `free` (the
/// server is idle).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn client_server(n: u32) -> IndexedKripke {
    assert!(n > 0, "need at least one client");
    let initial = vec![Client::Idle; n as usize];

    let successors = |s: &Vec<Client>| -> Vec<Vec<Client>> {
        let busy = s.contains(&Client::Served);
        let mut out = Vec::new();
        for (k, &c) in s.iter().enumerate() {
            match c {
                // Rule 1: request.
                Client::Idle => {
                    let mut t = s.clone();
                    t[k] = Client::Requesting;
                    out.push(t);
                }
                // Rule 2: the free server admits any requester.
                Client::Requesting if !busy => {
                    let mut t = s.clone();
                    t[k] = Client::Served;
                    out.push(t);
                }
                Client::Requesting => {}
                // Rule 3: service completes.
                Client::Served => {
                    let mut t = s.clone();
                    t[k] = Client::Idle;
                    out.push(t);
                }
            }
        }
        out
    };

    let label = |s: &Vec<Client>| -> Vec<Atom> {
        let mut atoms = Vec::new();
        if !s.contains(&Client::Served) {
            atoms.push(Atom::plain("free"));
        }
        for (k, &c) in s.iter().enumerate() {
            let i = (k + 1) as Index;
            atoms.push(match c {
                Client::Idle => Atom::indexed("idle", i),
                Client::Requesting => Atom::indexed("req", i),
                Client::Served => Atom::indexed("srv", i),
            });
        }
        atoms
    };

    let mut b = KripkeBuilder::new();
    let mut ids: HashMap<Vec<Client>, StateId> = HashMap::new();
    let mut queue: Vec<Vec<Client>> = Vec::new();
    let add = |s: Vec<Client>,
               b: &mut KripkeBuilder,
               ids: &mut HashMap<Vec<Client>, StateId>,
               queue: &mut Vec<Vec<Client>>|
     -> StateId {
        if let Some(&id) = ids.get(&s) {
            return id;
        }
        let name: String = s
            .iter()
            .map(|c| match c {
                Client::Idle => 'i',
                Client::Requesting => 'r',
                Client::Served => 's',
            })
            .collect();
        let id = b.state_labeled(name, label(&s));
        ids.insert(s.clone(), id);
        queue.push(s);
        id
    };
    let init = add(initial, &mut b, &mut ids, &mut queue);
    let mut head = 0;
    while head < queue.len() {
        let s = queue[head].clone();
        head += 1;
        let from = ids[&s];
        for t in successors(&s) {
            let to = add(t, &mut b, &mut ids, &mut queue);
            b.edge(from, to);
        }
    }
    IndexedKripke::new(
        b.build(init).expect("client-server structure is total"),
        (1..=n).collect(),
    )
}

/// The specification of the client–server family (all closed restricted
/// ICTL*).
pub fn server_properties() -> Vec<NamedFormula> {
    let named = |name: &'static str, description: &'static str, src: &str| NamedFormula {
        name,
        description,
        formula: parse_state(src).unwrap_or_else(|e| panic!("bad formula {src:?}: {e}")),
    };
    vec![
        named(
            "srv-excl",
            "the server serves at most one client at a time",
            "forall i. AG(srv[i] -> one(srv))",
        ),
        named(
            "srv-busy",
            "a served client means the server is not free",
            "forall i. AG(srv[i] -> !free)",
        ),
        named(
            "srv-possible",
            "a requesting client can always eventually be served",
            "forall i. AG(req[i] -> EF srv[i])",
        ),
        named(
            "srv-progress",
            "service always completes",
            "forall i. AG(srv[i] -> AF idle[i])",
        ),
        named(
            "srv-persistent",
            "a request stays pending until served",
            "forall i. AG(req[i] -> A[req[i] U srv[i]] | EG req[i])",
        ),
        named(
            // Negative control: without fairness the server may starve a
            // client forever, so guaranteed service FAILS.
            "srv-no-starvation",
            "every request is eventually served (fails: no fairness)",
            "forall i. AG(req[i] -> AF srv[i])",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_bisim::{indexed_correspond, IndexRelation};
    use icstar_mc::IndexedChecker;

    #[test]
    fn state_count_is_3_to_n_minus_overbooked() {
        // States = all client vectors with at most one Served.
        // |S| = 2^n (no served) + n * 2^(n-1) (one served).
        for n in 1..=6u32 {
            let m = client_server(n);
            let expected = (1usize << n) + (n as usize) * (1usize << (n - 1));
            assert_eq!(m.kripke().num_states(), expected, "n = {n}");
            m.kripke().validate().unwrap();
        }
    }

    #[test]
    fn specification_verdicts() {
        let m = client_server(3);
        let mut chk = IndexedChecker::new(&m);
        for f in server_properties() {
            let expected = f.name != "srv-no-starvation";
            assert_eq!(
                chk.holds(&f.formula).unwrap(),
                expected,
                "{} should be {expected}",
                f.name
            );
        }
    }

    #[test]
    fn two_client_base_case_is_sound_here() {
        // Unlike the ring, the unordered service discipline makes the
        // 2-client instance a valid base for every larger size.
        let base = client_server(2);
        for n in 3..=5u32 {
            let big = client_server(n);
            let inrel = IndexRelation::two_vs_many(&(1..=n).collect::<Vec<_>>());
            assert_eq!(
                indexed_correspond(&base, &big, &inrel),
                Ok(()),
                "2-client base vs {n} clients"
            );
        }
    }

    #[test]
    fn one_client_base_fails() {
        // With a single client the server never races: EG req[i] (the
        // starvation branch) is unreachable, so 1 vs 2 must fail.
        let base = client_server(1);
        let big = client_server(2);
        let inrel = IndexRelation::new([(1, 1), (1, 2)]);
        assert!(indexed_correspond(&base, &big, &inrel).is_err());
    }

    #[test]
    fn fairness_rescues_no_starvation() {
        // Without fairness the scheduler can starve client 1 forever; under
        // the constraint "client 1 is served infinitely often or is not
        // requesting", guaranteed service holds.
        use icstar_kripke::bits::BitSet;
        use icstar_mc::fair::{FairReq, TransFairness};

        let m = client_server(3);
        let k = m.kripke();
        let srv1 = Atom::indexed("srv", 1);
        let req1 = Atom::indexed("req", 1);
        let not_req1_or_served = BitSet::from_iter_with_capacity(
            k.num_states(),
            k.states()
                .filter(|&s| !k.satisfies_atom(s, &req1) || k.satisfies_atom(s, &srv1))
                .map(|s| s.idx()),
        );
        // Plain AF srv1 from a requesting state: fails.
        let mut chk = icstar_mc::Checker::new(k);
        let f = icstar_logic::parse_state("AG(req[1] -> AF srv[1])").unwrap();
        assert!(!chk.holds(&f).unwrap());
        // Fair AF: from every state where client 1 requests, every FAIR
        // path serves it.
        let fair = TransFairness::new([FairReq::new(not_req1_or_served, [])]);
        let fair_af_srv1 = icstar_mc::Checker::fair(k, &fair)
            .sat(&icstar_logic::parse_state("AF srv[1]").unwrap())
            .unwrap();
        for s in k.states() {
            if k.satisfies_atom(s, &req1) {
                assert!(
                    fair_af_srv1.contains(s.idx()),
                    "fair service must be guaranteed at {}",
                    k.state_name(s)
                );
            }
        }
    }

    #[test]
    fn free_atom_is_plain() {
        let m = client_server(2);
        let k = m.kripke();
        assert!(k.satisfies_atom(k.initial(), &Atom::plain("free")));
        // Some reachable state has the server busy.
        let busy = k
            .states()
            .any(|s| !k.satisfies_atom(s, &Atom::plain("free")));
        assert!(busy);
    }
}
