//! The Kripke × Büchi product and its emptiness check.
//!
//! `E φ` holds at state `s` iff the product of the structure with the
//! automaton for `φ` has, from some compatible initial pair `(s, q₀)`, a
//! path reaching a *non-trivial* strongly connected component that
//! intersects every acceptance set. SCCs are found with the crate's one
//! iterative Tarjan (`tarjan`, shared with
//! [`eg_fair`](crate::fair::eg_fair)); the satisfying-state set falls out
//! of a reverse reachability pass, so the whole labeling is computed in
//! one product exploration.

use std::collections::HashMap;

use icstar_kripke::bits::BitSet;
use icstar_kripke::path::Lasso;
use icstar_kripke::{Kripke, StateId};

use crate::buchi::Gba;

/// The explored product automaton, retaining enough structure to label
/// states and extract witnesses.
pub struct Product<'a> {
    m: &'a Kripke,
    gba: &'a Gba,
    /// Product nodes as (kripke state, gba node).
    nodes: Vec<(u32, u32)>,
    index: HashMap<(u32, u32), u32>,
    adj: Vec<Vec<u32>>,
    /// SCC id per node (by Tarjan; ids are in reverse topological order).
    comp: Vec<u32>,
    /// Whether each node lies in an accepting SCC.
    in_accepting: Vec<bool>,
    /// Whether each node can reach an accepting SCC.
    can_accept: Vec<bool>,
}

fn compatible(gba: &Gba, lit_sat: &[BitSet], s: u32, q: usize) -> bool {
    let node = &gba.nodes[q];
    node.pos
        .iter()
        .all(|l| lit_sat[l.idx()].contains(s as usize))
        && node
            .neg
            .iter()
            .all(|l| !lit_sat[l.idx()].contains(s as usize))
}

impl<'a> Product<'a> {
    /// Explores the product of `m` with `gba`, where `lit_sat[l]` is the
    /// set of structure states satisfying literal `l`.
    ///
    /// # Panics
    ///
    /// Panics if some literal id of the automaton has no entry in
    /// `lit_sat`.
    pub fn explore(m: &'a Kripke, gba: &'a Gba, lit_sat: &[BitSet]) -> Self {
        let mut nodes: Vec<(u32, u32)> = Vec::new();
        let mut index: HashMap<(u32, u32), u32> = HashMap::new();
        let mut adj: Vec<Vec<u32>> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();

        let add = |s: u32,
                   q: u32,
                   nodes: &mut Vec<(u32, u32)>,
                   adj: &mut Vec<Vec<u32>>,
                   index: &mut HashMap<(u32, u32), u32>,
                   stack: &mut Vec<u32>|
         -> u32 {
            if let Some(&id) = index.get(&(s, q)) {
                return id;
            }
            let id = nodes.len() as u32;
            nodes.push((s, q));
            adj.push(Vec::new());
            index.insert((s, q), id);
            stack.push(id);
            id
        };

        // Seed with every compatible (state, initial-node) pair: we label
        // all states at once.
        for s in m.states() {
            for &q in &gba.initial {
                if compatible(gba, lit_sat, s.0, q) {
                    add(s.0, q as u32, &mut nodes, &mut adj, &mut index, &mut stack);
                }
            }
        }
        while let Some(id) = stack.pop() {
            let (s, q) = nodes[id as usize];
            for &t in m.successors(StateId(s)) {
                for &q2 in &gba.nodes[q as usize].succs {
                    if compatible(gba, lit_sat, t.0, q2) {
                        let id2 = add(t.0, q2 as u32, &mut nodes, &mut adj, &mut index, &mut stack);
                        adj[id as usize].push(id2);
                    }
                }
            }
        }

        let (comp, num_comps) = tarjan(nodes.len(), |_| true, |u| adj[u as usize].iter().copied());
        let n = nodes.len();
        // An SCC is accepting iff it has an internal edge (it hosts a
        // cycle) and a member in every acceptance set.
        let mut accepting_comp = vec![false; num_comps];
        for (u, outs) in adj.iter().enumerate() {
            if outs.iter().any(|&v| comp[v as usize] == comp[u]) {
                accepting_comp[comp[u] as usize] = true;
            }
        }
        for set in &gba.acceptance {
            let mut hit = vec![false; num_comps];
            for (u, &(_, q)) in nodes.iter().enumerate() {
                if set.contains(&(q as usize)) {
                    hit[comp[u] as usize] = true;
                }
            }
            for (acc, h) in accepting_comp.iter_mut().zip(hit) {
                *acc &= h;
            }
        }
        let in_accepting: Vec<bool> = (0..n).map(|u| accepting_comp[comp[u] as usize]).collect();

        // Reverse reachability from accepting SCC members.
        let mut radj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (u, outs) in adj.iter().enumerate() {
            for &v in outs {
                radj[v as usize].push(u as u32);
            }
        }
        let mut can_accept = in_accepting.clone();
        let mut work: Vec<u32> = (0..n as u32).filter(|&u| can_accept[u as usize]).collect();
        while let Some(u) = work.pop() {
            for &p in &radj[u as usize] {
                if !can_accept[p as usize] {
                    can_accept[p as usize] = true;
                    work.push(p);
                }
            }
        }

        Product {
            m,
            gba,
            nodes,
            index,
            adj,
            comp,
            in_accepting,
            can_accept,
        }
    }

    /// The set of structure states where `E φ` holds.
    pub fn e_states(&self) -> BitSet {
        let mut out = BitSet::new(self.m.num_states());
        for (u, &(s, q)) in self.nodes.iter().enumerate() {
            if self.can_accept[u] && self.gba.initial.contains(&(q as usize)) {
                out.insert(s as usize);
            }
        }
        out
    }

    /// Number of product nodes explored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the explored product is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Extracts an ultimately periodic witness path for `E φ` from `from`,
    /// if one exists: a lasso whose run through the automaton is
    /// accepting.
    pub fn witness(&self, from: StateId) -> Option<Lasso> {
        // Pick a compatible initial product node that can reach acceptance.
        let start = self.gba.initial.iter().find_map(|&q| {
            self.index
                .get(&(from.0, q as u32))
                .copied()
                .filter(|&u| self.can_accept[u as usize])
        })?;
        // BFS to some node inside an accepting SCC.
        let entry = self.bfs_path(start, |u| self.in_accepting[u as usize])?;
        let scc = self.comp[*entry.last().expect("path non-empty") as usize];
        // Build a cycle within the SCC visiting every acceptance set.
        let anchor = *entry.last().expect("path non-empty");
        let mut cycle_nodes: Vec<u32> = vec![anchor];
        let mut cur = anchor;
        for set in &self.gba.acceptance {
            if !set.is_empty() {
                let seg = self.bfs_path_in_scc(cur, scc, |u| {
                    set.contains(&(self.nodes[u as usize].1 as usize))
                })?;
                cycle_nodes.extend_from_slice(&seg[1..]);
                cur = *cycle_nodes.last().expect("non-empty");
            }
        }
        // Close the cycle back to the anchor with at least one step.
        let back = self.bfs_path_in_scc_at_least_one_step(cur, scc, anchor)?;
        cycle_nodes.extend_from_slice(&back[1..]);
        // cycle_nodes now starts and ends at anchor.
        cycle_nodes.pop();
        let stem: Vec<StateId> = entry[..entry.len() - 1]
            .iter()
            .map(|&u| StateId(self.nodes[u as usize].0))
            .collect();
        let cycle: Vec<StateId> = cycle_nodes
            .iter()
            .map(|&u| StateId(self.nodes[u as usize].0))
            .collect();
        Some(Lasso::new(stem, cycle))
    }

    /// BFS from `start` to any node satisfying `goal`; returns the node
    /// path including both endpoints.
    fn bfs_path(&self, start: u32, goal: impl Fn(u32) -> bool) -> Option<Vec<u32>> {
        if goal(start) {
            return Some(vec![start]);
        }
        let n = self.nodes.len();
        let mut prev: Vec<u32> = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::from([start]);
        prev[start as usize] = start;
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u as usize] {
                if prev[v as usize] == u32::MAX {
                    prev[v as usize] = u;
                    if goal(v) {
                        return Some(backtrack(&prev, start, v));
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }

    fn bfs_path_in_scc(
        &self,
        start: u32,
        scc: u32,
        goal: impl Fn(u32) -> bool,
    ) -> Option<Vec<u32>> {
        if goal(start) {
            return Some(vec![start]);
        }
        self.bfs_restricted(start, scc, goal)
    }

    fn bfs_path_in_scc_at_least_one_step(
        &self,
        start: u32,
        scc: u32,
        target: u32,
    ) -> Option<Vec<u32>> {
        // One explicit first step, then BFS (allows start == target with a
        // real cycle).
        for &v in &self.adj[start as usize] {
            if self.comp[v as usize] != scc {
                continue;
            }
            if v == target {
                return Some(vec![start, v]);
            }
            if let Some(mut rest) = self.bfs_restricted(v, scc, |u| u == target) {
                let mut path = vec![start];
                path.append(&mut rest);
                return Some(path);
            }
        }
        None
    }

    fn bfs_restricted(&self, start: u32, scc: u32, goal: impl Fn(u32) -> bool) -> Option<Vec<u32>> {
        if goal(start) {
            return Some(vec![start]);
        }
        let n = self.nodes.len();
        let mut prev: Vec<u32> = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::from([start]);
        prev[start as usize] = start;
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u as usize] {
                if self.comp[v as usize] != scc || prev[v as usize] != u32::MAX {
                    continue;
                }
                prev[v as usize] = u;
                if goal(v) {
                    return Some(backtrack(&prev, start, v));
                }
                queue.push_back(v);
            }
        }
        None
    }
}

fn backtrack(prev: &[u32], start: u32, end: u32) -> Vec<u32> {
    let mut path = vec![end];
    let mut cur = end;
    while cur != start {
        cur = prev[cur as usize];
        path.push(cur);
    }
    path.reverse();
    path
}

/// Iterative Tarjan over the nodes `0..n` for which `member` holds,
/// following only edges between members. Returns each node's SCC id
/// (`u32::MAX` for non-members; ids in reverse topological order) and the
/// number of SCCs.
pub(crate) fn tarjan<I: Iterator<Item = u32>>(
    n: usize,
    member: impl Fn(u32) -> bool,
    succs: impl Fn(u32) -> I,
) -> (Vec<u32>, usize) {
    let mut comp = vec![u32::MAX; n];
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut next_comp = 0u32;
    // Explicit DFS: (node, its successors not yet followed).
    let mut call: Vec<(u32, I)> = Vec::new();
    for root in 0..n as u32 {
        if !member(root) || index[root as usize] != u32::MAX {
            continue;
        }
        let mut opening = Some(root);
        loop {
            if let Some(v) = opening.take() {
                index[v as usize] = next_index;
                low[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v as usize] = true;
                call.push((v, succs(v)));
            }
            let Some((u, rest)) = call.last_mut() else {
                break;
            };
            let u = *u;
            if let Some(v) = rest.find(|&v| member(v)) {
                if index[v as usize] == u32::MAX {
                    opening = Some(v);
                } else if on_stack[v as usize] {
                    low[u as usize] = low[u as usize].min(index[v as usize]);
                }
                continue;
            }
            call.pop();
            if let Some(&(parent, _)) = call.last() {
                low[parent as usize] = low[parent as usize].min(low[u as usize]);
            }
            if low[u as usize] == index[u as usize] {
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w as usize] = false;
                    comp[w as usize] = next_comp;
                    if w == u {
                        break;
                    }
                }
                next_comp += 1;
            }
        }
    }
    (comp, next_comp as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buchi::{ltl_to_gba, LitId};
    use icstar_kripke::{Atom, KripkeBuilder};
    use icstar_logic::Nnf;
    use std::rc::Rc;

    fn lit(i: u32) -> Nnf<LitId> {
        Nnf::Lit {
            atom: LitId(i),
            negated: false,
        }
    }

    /// s0(p) -> s1() -> s2(q) -> s2 ; s1 -> s1
    fn chain() -> (Kripke, Vec<BitSet>) {
        let mut b = KripkeBuilder::new();
        let s0 = b.state_labeled("s0", [Atom::plain("p")]);
        let s1 = b.state("s1");
        let s2 = b.state_labeled("s2", [Atom::plain("q")]);
        b.edge(s0, s1);
        b.edge(s1, s2);
        b.edge(s1, s1);
        b.edge(s2, s2);
        let m = b.build(s0).unwrap();
        // lit 0 = p, lit 1 = q
        let p = BitSet::from_iter_with_capacity(3, [0usize]);
        let q = BitSet::from_iter_with_capacity(3, [2usize]);
        (m, vec![p, q])
    }

    #[test]
    fn ef_q_via_product() {
        let (m, lits) = chain();
        // F q
        let f = Nnf::Until(Rc::new(Nnf::True), Rc::new(lit(1)));
        let gba = ltl_to_gba(&f);
        let prod = Product::explore(&m, &gba, &lits);
        let sat = prod.e_states();
        // all states can reach q (s1 may loop but EXISTS a path).
        assert_eq!(sat.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn eg_not_q() {
        let (m, lits) = chain();
        // G !q
        let f = Nnf::Release(
            Rc::new(Nnf::False),
            Rc::new(Nnf::Lit {
                atom: LitId(1),
                negated: true,
            }),
        );
        let gba = ltl_to_gba(&f);
        let prod = Product::explore(&m, &gba, &lits);
        let sat = prod.e_states();
        // s1 can loop forever avoiding q; s0 can go to s1. s2 cannot.
        assert_eq!(sat.iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn until_with_obligation() {
        let (m, lits) = chain();
        // p U q : s0 has p but its successor s1 has neither p nor q, so
        // the until fails at s0. It holds at s2 (q now). At s1: no p, no q
        // -> fails.
        let f = Nnf::Until(Rc::new(lit(0)), Rc::new(lit(1)));
        let gba = ltl_to_gba(&f);
        let prod = Product::explore(&m, &gba, &lits);
        let sat = prod.e_states();
        assert_eq!(sat.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn witness_is_a_real_satisfying_lasso() {
        let (m, lits) = chain();
        let f = Nnf::Until(Rc::new(Nnf::True), Rc::new(lit(1)));
        let gba = ltl_to_gba(&f);
        let prod = Product::explore(&m, &gba, &lits);
        let w = prod.witness(StateId(0)).expect("witness exists");
        assert!(w.is_path_of(&m));
        assert_eq!(w.first(), StateId(0));
        // The witness must actually visit q (state 2).
        let visits_q = w
            .stem
            .iter()
            .chain(w.cycle.iter())
            .any(|&s| s == StateId(2));
        assert!(visits_q);
    }

    #[test]
    fn no_witness_when_unsatisfied() {
        let (m, lits) = chain();
        // G p fails everywhere except... s0 has p but successors don't.
        let f = Nnf::Release(Rc::new(Nnf::False), Rc::new(lit(0)));
        let gba = ltl_to_gba(&f);
        let prod = Product::explore(&m, &gba, &lits);
        assert!(prod.e_states().is_empty());
        assert!(prod.witness(StateId(0)).is_none());
    }

    #[test]
    fn tarjan_on_simple_graph() {
        // 0 -> 1 -> 2 -> 0 (one SCC), 3 -> 0 (own SCC)
        let adj: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![0], vec![0]];
        let (comp, count) = tarjan(adj.len(), |_| true, |u| adj[u as usize].iter().copied());
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[3], comp[0]);
    }

    #[test]
    fn tarjan_self_loop_and_isolated() {
        let adj: Vec<Vec<u32>> = vec![vec![0], vec![]];
        let (comp, _) = tarjan(adj.len(), |_| true, |u| adj[u as usize].iter().copied());
        assert_ne!(comp[0], comp[1]);
    }
}
