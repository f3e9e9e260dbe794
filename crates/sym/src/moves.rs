//! The move relation, written out once.
//!
//! Every abstract transition — of the counter structure, of a width-`k`
//! representative structure, and of the fairness edges compiled onto
//! either — is the image of one *local move* under the symmetry
//! quotient: some copy takes an enabled `src → tgt` step of the
//! template, alone or as the initiator of a broadcast. [`for_each_move`]
//! enumerates those moves for a state given by its tracked copies' local
//! states and its abstracted copies' occupancy; the counter structure is
//! the case with no tracked copies. Guards and broadcast guards are
//! evaluated here and nowhere else in the abstraction pipeline; the
//! explicit oracle ([`crate::crosscheck::guarded_interleave`],
//! [`crate::fairness::explicit_fairness`]) keeps its own deliberately
//! separate copy as the independent reference.
//!
//! [`MoveState`] gives each state kind its one `apply` (the successor a
//! move leads to) and its dedup key, so the BFS, the successor
//! functions and the fairness compiler all speak the same encoding.

use crate::counter::{CounterPacking, CounterState};
use crate::rep::RepState;
use crate::template::{Broadcast, GuardedTemplate};

/// Which copy fires a move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mover {
    /// The tracked copy at this position of the state's local states.
    Tracked(usize),
    /// One of the counter-abstracted copies.
    Abstracted,
}

/// One enabled local move: a copy steps `src → tgt`, alone or as the
/// initiator of `broadcast`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Move<'t> {
    pub(crate) src: u32,
    pub(crate) tgt: u32,
    pub(crate) mover: Mover,
    /// The broadcast this move initiates; `None` for a single-copy move.
    pub(crate) broadcast: Option<&'t Broadcast>,
}

/// Calls `visit` once for every enabled move of a state whose tracked
/// copies sit in `locals` and whose abstracted copies have occupancy
/// `others`. `total` is the occupancy of all copies — what guards read.
///
/// Order: single-copy moves of the tracked copies (copy order, then
/// edge order), single-copy moves of the abstracted copies (source
/// order, then edge order), then every enabled broadcast in declaration
/// order, tracked initiators before an abstracted one. Parallel edges
/// with one target are one move: it is yielded at the first enabled
/// edge.
pub(crate) fn for_each_move<'t>(
    t: &'t GuardedTemplate,
    locals: &[u32],
    others: &CounterState,
    total: &CounterState,
    mut visit: impl FnMut(Move<'t>),
) {
    let mut single = |src: u32, mover: Mover| {
        let succs = t.successors(src);
        for (k, &tgt) in succs.iter().enumerate() {
            let first = |j: usize| succs[j] == tgt && t.enabled(total, src, j);
            if first(k) && !(0..k).any(first) {
                visit(Move {
                    src,
                    tgt,
                    mover,
                    broadcast: None,
                });
            }
        }
    };
    for (c, &q) in locals.iter().enumerate() {
        single(q, Mover::Tracked(c));
    }
    for q in 0..t.num_states() as u32 {
        if others.count(q) > 0 {
            single(q, Mover::Abstracted);
        }
    }
    for bc in t.broadcasts() {
        let src = bc.source();
        if total.count(src) == 0 || !t.broadcast_enabled(total, bc) {
            continue;
        }
        let initiators = locals
            .iter()
            .enumerate()
            .filter(|&(_, &q)| q == src)
            .map(|(c, _)| Mover::Tracked(c))
            .chain((others.count(src) > 0).then_some(Mover::Abstracted));
        for mover in initiators {
            visit(Move {
                src,
                tgt: bc.target(),
                mover,
                broadcast: Some(bc),
            });
        }
    }
}

/// A state kind of the abstraction: how its moves are enumerated, what
/// state a move leads to, and the packed key the BFS dedups it by.
pub(crate) trait MoveState: Sized {
    /// Visits every enabled move of `self` ([`for_each_move`]).
    fn for_each_move<'t>(&self, t: &'t GuardedTemplate, visit: impl FnMut(Move<'t>));

    /// The state `m` leads to.
    fn apply(&self, m: &Move<'_>) -> Self;

    /// Writes the dedup key of `self` into `key`, replacing its contents.
    fn key(&self, packing: &CounterPacking, key: &mut Vec<u64>);
}

/// Counter states: every copy is abstracted.
impl MoveState for CounterState {
    fn for_each_move<'t>(&self, t: &'t GuardedTemplate, visit: impl FnMut(Move<'t>)) {
        for_each_move(t, &[], self, self, visit);
    }

    fn apply(&self, m: &Move<'_>) -> Self {
        match m.broadcast {
            None => self.move_one(m.src, m.tgt),
            Some(b) => self.broadcast(m.src, m.tgt, b.response()),
        }
    }

    fn key(&self, packing: &CounterPacking, key: &mut Vec<u64>) {
        packing.pack_into(self, key);
    }
}

/// Representative states: a broadcast moves every tracked copy that is
/// not its initiator along the response map, as it does the abstracted
/// ones.
impl MoveState for RepState {
    fn for_each_move<'t>(&self, t: &'t GuardedTemplate, visit: impl FnMut(Move<'t>)) {
        let total = self.total_counts(t.num_states());
        for_each_move(t, &self.locals, &self.others, &total, visit);
    }

    fn apply(&self, m: &Move<'_>) -> Self {
        let mut locals = match m.broadcast {
            None => self.locals.clone(),
            Some(b) => self.locals.iter().map(|&l| b.response_of(l)).collect(),
        };
        let others = match (m.mover, m.broadcast) {
            (Mover::Abstracted, _) => self.others.apply(m),
            (Mover::Tracked(c), None) => {
                locals[c] = m.tgt;
                self.others.clone()
            }
            (Mover::Tracked(c), Some(b)) => {
                locals[c] = m.tgt;
                self.others.respond(b.response())
            }
        };
        RepState { locals, others }
    }

    /// The packed occupancy of the abstracted copies followed by one
    /// word per tracked copy's local state.
    fn key(&self, packing: &CounterPacking, key: &mut Vec<u64>) {
        packing.pack_into(&self.others, key);
        key.extend(self.locals.iter().map(|&l| u64::from(l)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::GuardedBuilder;

    fn moves(t: &GuardedTemplate, s: &RepState) -> Vec<(u32, u32, Mover, bool)> {
        let mut out = Vec::new();
        s.for_each_move(t, |m| {
            out.push((m.src, m.tgt, m.mover, m.broadcast.is_some()))
        });
        out
    }

    #[test]
    fn moves_come_in_mover_then_broadcast_order() {
        // a -> b twice (parallel edges), b -> a, and a broadcast a -> b
        // sending everyone else to b.
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let bb = b.state("b", ["b"]);
        b.edge(a, bb);
        b.edge(a, bb);
        b.edge(bb, a);
        b.broadcast(a, bb, [(a, bb)]);
        let t = b.build(a);
        let s = RepState {
            locals: vec![a, bb],
            others: CounterState::new(vec![2, 0]),
        };
        use Mover::{Abstracted, Tracked};
        assert_eq!(
            moves(&t, &s),
            [
                (a, bb, Tracked(0), false),
                (bb, a, Tracked(1), false),
                (a, bb, Abstracted, false),
                (a, bb, Tracked(0), true),
                (a, bb, Abstracted, true),
            ]
        );
        // Applying the abstracted broadcast flips the tracked copy in a.
        let m = Move {
            src: a,
            tgt: bb,
            mover: Abstracted,
            broadcast: Some(&t.broadcasts()[0]),
        };
        let next = s.apply(&m);
        assert_eq!(next.locals, [bb, bb]);
        assert_eq!(next.others.counts(), &[0, 2]);
    }

    #[test]
    fn a_parallel_edge_counts_once_its_guard_opens() {
        // Two a -> b edges; only the second is enabled at this occupancy.
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let bb = b.state("b", ["b"]);
        b.edge_guarded(a, bb, [crate::template::Guard::at_least("b", 1)]);
        b.edge(a, bb);
        b.edge(bb, bb);
        let t = b.build(a);
        let mut seen = Vec::new();
        CounterState::new(vec![3, 0]).for_each_move(&t, |m| seen.push((m.src, m.tgt)));
        assert_eq!(seen, [(a, bb)]);
    }
}
