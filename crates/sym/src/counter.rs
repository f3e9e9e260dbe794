//! Counter vectors and their packed encoding.
//!
//! A global state of `n` identical copies is abstracted to its *occupancy
//! vector*: how many copies currently sit in each local state. The vector
//! forgets *which* copy is where — exactly the information full symmetry
//! makes irrelevant — collapsing the `|Q|^n` global states to at most
//! `binom(n + |Q| - 1, |Q| - 1)` counter states.
//!
//! [`CounterPacking`] stores a counter vector in a fixed number of machine
//! words (the style of `icstar_kripke::bits`): each local state gets a
//! fixed-width bit field just wide enough for counts `0..=n`. Packed
//! counters are the hash keys of the on-the-fly exploration, keeping the
//! frontier compact at `n` in the tens of thousands.

use std::borrow::Borrow;
use std::fmt;

/// The occupancy vector of one abstract global state: `counts[q]` copies
/// currently sit in local state `q`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CounterState {
    counts: Vec<u32>,
}

impl CounterState {
    /// Wraps an explicit occupancy vector.
    pub fn new(counts: Vec<u32>) -> Self {
        CounterState { counts }
    }

    /// The all-in-one-state vector: `n` copies in local state `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `initial >= num_locals`.
    pub fn all_in(num_locals: usize, initial: u32, n: u32) -> Self {
        assert!((initial as usize) < num_locals, "unknown local state");
        let mut counts = vec![0; num_locals];
        counts[initial as usize] = n;
        CounterState { counts }
    }

    /// The per-local-state occupancy counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The occupancy of one local state.
    pub fn count(&self, q: u32) -> u32 {
        self.counts[q as usize]
    }

    /// Total number of copies, `Σ_q counts[q]`.
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// The vector after moving one copy from local state `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if no copy sits in `from`.
    pub fn move_one(&self, from: u32, to: u32) -> CounterState {
        assert!(
            self.counts[from as usize] > 0,
            "no copy in local state {from}"
        );
        let mut counts = self.counts.clone();
        counts[from as usize] -= 1;
        counts[to as usize] += 1;
        CounterState { counts }
    }

    /// The vector after *every* copy simultaneously follows the response
    /// map: a copy in local state `q` lands in `response[q]`. This is the
    /// whole-vector rewrite at the heart of broadcast moves — O(|S|),
    /// independent of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `response` has the wrong length.
    pub fn respond(&self, response: &[u32]) -> CounterState {
        assert_eq!(
            response.len(),
            self.counts.len(),
            "response map length mismatch"
        );
        let mut counts = vec![0u32; self.counts.len()];
        for (q, &c) in self.counts.iter().enumerate() {
            counts[response[q] as usize] += c;
        }
        CounterState { counts }
    }

    /// The vector after a broadcast step: one initiating copy moves from
    /// `from` to `to` while every *other* copy in state `q` moves to
    /// `response[q]`, all simultaneously. Still O(|S|).
    ///
    /// # Panics
    ///
    /// Panics if no copy sits in `from` or `response` has the wrong
    /// length.
    pub fn broadcast(&self, from: u32, to: u32, response: &[u32]) -> CounterState {
        assert!(
            self.counts[from as usize] > 0,
            "no copy in local state {from}"
        );
        assert_eq!(
            response.len(),
            self.counts.len(),
            "response map length mismatch"
        );
        let mut counts = vec![0u32; self.counts.len()];
        for (q, &c) in self.counts.iter().enumerate() {
            let c = if q == from as usize { c - 1 } else { c };
            counts[response[q] as usize] += c;
        }
        counts[to as usize] += 1;
        CounterState { counts }
    }
}

impl fmt::Debug for CounterState {
    /// Renders only the non-zero entries, e.g. `#{0:3, 2:1}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{{")?;
        let mut first = true;
        for (q, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{q}:{c}")?;
                first = false;
            }
        }
        write!(f, "}}")
    }
}

/// A counter vector packed into machine words, used as a compact dedup key
/// during exploration.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PackedCounter(Box<[u64]>);

impl PackedCounter {
    /// A key holding exactly `words` — e.g. a buffer filled by
    /// [`CounterPacking::pack_into`], possibly extended with more words.
    pub(crate) fn from_words(words: &[u64]) -> Self {
        PackedCounter(words.into())
    }
}

/// Keys hash and compare as their word slices, so maps keyed by
/// [`PackedCounter`] accept `&[u64]` lookups.
impl Borrow<[u64]> for PackedCounter {
    fn borrow(&self) -> &[u64] {
        &self.0
    }
}

/// The fixed-width field layout packing counter vectors for one system
/// (`num_locals` local states, counts up to `max_count`).
#[derive(Clone, Copy, Debug)]
pub struct CounterPacking {
    bits: u32,
    slots: usize,
}

impl CounterPacking {
    /// A layout for vectors of `num_locals` counts in `0..=max_count`.
    pub fn new(num_locals: usize, max_count: u32) -> Self {
        // Width of the largest representable count; at least one bit so
        // that the degenerate n = 0 system still has a well-formed key.
        let bits = 32 - max_count.leading_zeros().min(31);
        CounterPacking {
            bits: bits.max(1),
            slots: num_locals,
        }
    }

    /// Bits per count field.
    pub fn bits_per_count(&self) -> u32 {
        self.bits
    }

    /// Number of `u64` words per packed counter.
    pub fn words(&self) -> usize {
        ((self.slots as u64 * self.bits as u64).div_ceil(64)).max(1) as usize
    }

    /// Packs a counter vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector has the wrong length or a count exceeds the
    /// layout's field width.
    pub fn pack(&self, state: &CounterState) -> PackedCounter {
        let mut words = Vec::with_capacity(self.words());
        self.pack_into(state, &mut words);
        PackedCounter(words.into_boxed_slice())
    }

    /// Packs a counter vector into `words`, replacing its contents — the
    /// allocation-free form of [`CounterPacking::pack`]. A `HashMap`
    /// keyed by [`PackedCounter`] can be probed with `&words[..]`
    /// directly, so exploration allocates a key only for a new state.
    ///
    /// # Panics
    ///
    /// As for [`CounterPacking::pack`].
    pub(crate) fn pack_into(&self, state: &CounterState, words: &mut Vec<u64>) {
        let counts = state.counts();
        assert_eq!(counts.len(), self.slots, "counter length mismatch");
        words.clear();
        words.resize(self.words(), 0);
        for (i, &c) in counts.iter().enumerate() {
            debug_assert!(
                self.bits == 64 || (c as u64) < (1u64 << self.bits),
                "count {c} exceeds {} bits",
                self.bits
            );
            let bit = i as u64 * self.bits as u64;
            let (word, off) = ((bit / 64) as usize, (bit % 64) as u32);
            words[word] |= (c as u64) << off;
            let spill = off + self.bits;
            if spill > 64 {
                words[word + 1] |= (c as u64) >> (64 - off);
            }
        }
    }

    /// Recovers the counter vector from a packed key.
    pub fn unpack(&self, packed: &PackedCounter) -> CounterState {
        let mask = if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        };
        let mut counts = Vec::with_capacity(self.slots);
        for i in 0..self.slots {
            let bit = i as u64 * self.bits as u64;
            let (word, off) = ((bit / 64) as usize, (bit % 64) as u32);
            let mut v = word_at(packed, word) >> off;
            let spill = off + self.bits;
            if spill > 64 {
                v |= word_at(packed, word + 1) << (64 - off);
            }
            counts.push((v & mask) as u32);
        }
        CounterState::new(counts)
    }
}

fn word_at(packed: &PackedCounter, i: usize) -> u64 {
    packed.0.get(i).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn move_one_conserves_total() {
        let s = CounterState::all_in(3, 0, 5);
        assert_eq!(s.counts(), &[5, 0, 0]);
        assert_eq!(s.total(), 5);
        let t = s.move_one(0, 2);
        assert_eq!(t.counts(), &[4, 0, 1]);
        assert_eq!(t.total(), 5);
        // Self-move is the identity.
        assert_eq!(s.move_one(0, 0), s);
    }

    #[test]
    #[should_panic(expected = "no copy")]
    fn move_from_empty_state_panics() {
        CounterState::all_in(2, 0, 1).move_one(1, 0);
    }

    #[test]
    fn respond_rewrites_the_whole_vector() {
        let s = CounterState::new(vec![3, 2, 1]);
        // 0 -> 1, 1 -> 1, 2 -> 0: states 0 and 1 merge into 1.
        assert_eq!(s.respond(&[1, 1, 0]).counts(), &[1, 5, 0]);
        // The identity map is a no-op.
        assert_eq!(s.respond(&[0, 1, 2]), s);
        assert_eq!(s.respond(&[1, 1, 0]).total(), s.total());
    }

    #[test]
    fn broadcast_moves_initiator_and_responders() {
        // Initiator 0 -> 2; everyone else in 0 responds to 1, state 1
        // stays, state 2 stays.
        let s = CounterState::new(vec![3, 1, 0]);
        let t = s.broadcast(0, 2, &[1, 1, 2]);
        assert_eq!(t.counts(), &[0, 3, 1]);
        assert_eq!(t.total(), s.total());
        // An identity response makes a broadcast just a single move.
        assert_eq!(s.broadcast(0, 2, &[0, 1, 2]), s.move_one(0, 2));
        // The lone copy case: nobody responds.
        let one = CounterState::new(vec![1, 0]);
        assert_eq!(one.broadcast(0, 1, &[1, 0]).counts(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "no copy")]
    fn broadcast_from_empty_state_panics() {
        CounterState::new(vec![0, 1]).broadcast(0, 1, &[1, 1]);
    }

    #[test]
    fn pack_roundtrip() {
        let packing = CounterPacking::new(4, 10_000);
        for counts in [
            vec![10_000, 0, 0, 0],
            vec![0, 0, 0, 10_000],
            vec![2_500, 2_500, 2_500, 2_500],
            vec![1, 9_998, 0, 1],
        ] {
            let s = CounterState::new(counts);
            assert_eq!(packing.unpack(&packing.pack(&s)), s);
        }
    }

    #[test]
    fn pack_roundtrip_cross_word_fields() {
        // 5 slots * 14 bits = 70 bits: one field straddles the word seam.
        let packing = CounterPacking::new(5, 10_000);
        assert_eq!(packing.words(), 2);
        let s = CounterState::new(vec![9_999, 1_234, 42, 7_777, 1]);
        assert_eq!(packing.unpack(&packing.pack(&s)), s);
    }

    #[test]
    fn pack_into_reuses_the_buffer_and_probes_maps() {
        let packing = CounterPacking::new(5, 10_000);
        let mut ids = std::collections::HashMap::new();
        let a = CounterState::new(vec![9_999, 1_234, 42, 7_777, 1]);
        ids.insert(packing.pack(&a), 7u32);
        let mut buf = vec![u64::MAX; 9];
        packing.pack_into(&a, &mut buf);
        assert_eq!(buf.len(), packing.words());
        assert_eq!(ids.get(buf.as_slice()), Some(&7));
        assert_eq!(PackedCounter::from_words(&buf), packing.pack(&a));
        packing.pack_into(&CounterState::new(vec![0, 0, 0, 0, 1]), &mut buf);
        assert_eq!(ids.get(buf.as_slice()), None);
    }

    #[test]
    fn packed_keys_distinguish_states() {
        let packing = CounterPacking::new(3, 7);
        let a = packing.pack(&CounterState::new(vec![1, 2, 4]));
        let b = packing.pack(&CounterState::new(vec![4, 2, 1]));
        assert_ne!(a, b);
    }

    #[test]
    fn zero_capacity_layout_is_total() {
        let packing = CounterPacking::new(2, 0);
        assert_eq!(packing.bits_per_count(), 1);
        let s = CounterState::new(vec![0, 0]);
        assert_eq!(packing.unpack(&packing.pack(&s)), s);
    }

    #[test]
    fn debug_shows_nonzero_entries() {
        let s = CounterState::new(vec![3, 0, 1]);
        assert_eq!(format!("{s:?}"), "#{0:3, 2:1}");
    }
}
