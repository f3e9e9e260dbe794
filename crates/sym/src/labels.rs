//! Threshold and counting propositions for abstract states.
//!
//! Abstract (counter) states are labeled with *counting atoms* derived
//! from local-proposition occupancy:
//!
//! * `#p ≥ k` — at least `k` copies satisfy `p` (a plain atom named
//!   `p_ge{k}`, see [`at_least_atom`]);
//! * `#p = 0` — no copy satisfies `p` (a plain atom named `p_eq0`, see
//!   [`none_atom`]);
//! * `Θ p` — *exactly one* copy satisfies `p`, reusing the paper's
//!   [`Atom::ExactlyOne`] extension directly.
//!
//! A [`CountingSpec`] selects which of these atoms a materialized
//! structure carries. Because the abstraction is exact, any CTL* formula
//! over the selected atoms has the same truth value on the abstract
//! structure as on the explicit `n`-process composition.

use std::collections::BTreeSet;

use icstar_kripke::Atom;
use icstar_logic::{build, StateFormula};

use crate::counter::CounterState;
use crate::fingerprint::{encode_spec, fnv1a};
use crate::template::GuardedTemplate;

/// The plain atom `p_ge{k}` meaning `#p ≥ k`.
///
/// # Panics
///
/// Panics if `k == 0` (the threshold `#p ≥ 0` is vacuous; use
/// [`at_least`] which returns `True` for it).
pub fn at_least_atom(prop: &str, k: u32) -> Atom {
    assert!(k > 0, "#p >= 0 is vacuously true and has no atom");
    Atom::plain(format!("{prop}_ge{k}"))
}

/// The plain atom `p_eq0` meaning `#p = 0`.
pub fn none_atom(prop: &str) -> Atom {
    Atom::plain(format!("{prop}_eq0"))
}

/// The formula `#p ≥ k`. Total in `k`: the `k = 0` threshold is `True`.
pub fn at_least(prop: &str, k: u32) -> StateFormula {
    if k == 0 {
        StateFormula::True
    } else {
        build::prop(format!("{prop}_ge{k}"))
    }
}

/// The formula `#p ≤ k`, i.e. `¬(#p ≥ k + 1)`.
///
/// The spec labeling the structure must include the `k + 1` threshold for
/// `prop` (see [`CountingSpec::with_at_least`]).
pub fn at_most(prop: &str, k: u32) -> StateFormula {
    at_least(prop, k + 1).not()
}

/// The formula `#p = 0`.
pub fn none(prop: &str) -> StateFormula {
    build::prop(format!("{prop}_eq0"))
}

/// The formula `Θ p`: exactly one copy satisfies `p`.
pub fn exactly_one(prop: &str) -> StateFormula {
    build::one(prop)
}

/// Which counting atoms a materialized abstract structure carries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CountingSpec {
    /// `(prop, k)` pairs with `k ≥ 1`, each yielding the atom `p_ge{k}`.
    at_least: BTreeSet<(String, u32)>,
    /// Props yielding the atom `p_eq0`.
    zero: BTreeSet<String>,
    /// Props yielding the `Θ p` atom.
    exactly_one: BTreeSet<String>,
}

impl CountingSpec {
    /// An empty spec (structures labeled with no atoms at all).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the threshold atom `#prop ≥ k`. A `k` of zero is accepted and
    /// ignored (the threshold is vacuous), keeping the builder total.
    pub fn with_at_least(mut self, prop: impl Into<String>, k: u32) -> Self {
        if k > 0 {
            self.at_least.insert((prop.into(), k));
        }
        self
    }

    /// Adds the emptiness atom `#prop = 0`.
    pub fn with_zero(mut self, prop: impl Into<String>) -> Self {
        self.zero.insert(prop.into());
        self
    }

    /// Adds the `Θ prop` (exactly one) atom.
    pub fn with_exactly_one(mut self, prop: impl Into<String>) -> Self {
        self.exactly_one.insert(prop.into());
        self
    }

    /// The default spec for a template: for every local proposition `p`,
    /// the thresholds `#p ≥ 1` and `#p ≥ 2`, plus `#p = 0` and `Θ p`.
    ///
    /// This is enough for mutual-exclusion-style properties (`at_most(p, 1)`
    /// needs the `≥ 2` threshold) on any template.
    pub fn standard(template: &GuardedTemplate) -> Self {
        let mut spec = CountingSpec::new();
        for p in template.props() {
            spec = spec
                .with_at_least(p, 1)
                .with_at_least(p, 2)
                .with_zero(p)
                .with_exactly_one(p);
        }
        spec
    }

    /// A spec with *every* threshold `1..=up_to` for every proposition,
    /// plus `#p = 0` and `Θ p`. With `up_to = n` the labeling determines
    /// the full occupancy vector of every proposition — the
    /// finest-grained (and most expensive) labeling, used by the
    /// cross-validation oracle.
    pub fn exhaustive(template: &GuardedTemplate, up_to: u32) -> Self {
        let mut spec = CountingSpec::new();
        for p in template.props() {
            spec = spec.with_zero(p).with_exactly_one(p);
            for k in 1..=up_to {
                spec = spec.with_at_least(p, k);
            }
        }
        spec
    }

    /// The `(prop, k)` threshold entries (`#prop ≥ k`, `k ≥ 1`), in
    /// sorted order. Together with [`CountingSpec::zero_props`] and
    /// [`CountingSpec::exactly_one_props`] this exposes the full spec
    /// contents, so external serializers (e.g. `icstar-wire`) can print a
    /// spec and rebuild it with the `with_*` constructors.
    ///
    /// # Examples
    ///
    /// ```
    /// use icstar_sym::CountingSpec;
    ///
    /// let spec = CountingSpec::new().with_at_least("crit", 2).with_at_least("try", 1);
    /// let entries: Vec<(&str, u32)> = spec.at_least_entries().collect();
    /// assert_eq!(entries, vec![("crit", 2), ("try", 1)]);
    /// ```
    pub fn at_least_entries(&self) -> impl Iterator<Item = (&str, u32)> {
        self.at_least.iter().map(|(p, k)| (p.as_str(), *k))
    }

    /// The props carrying the emptiness atom `#p = 0`, in sorted order.
    pub fn zero_props(&self) -> impl Iterator<Item = &str> {
        self.zero.iter().map(String::as_str)
    }

    /// The props carrying the `Θ p` (exactly one) atom, in sorted order.
    pub fn exactly_one_props(&self) -> impl Iterator<Item = &str> {
        self.exactly_one.iter().map(String::as_str)
    }

    /// Whether the spec emits no atoms at all.
    pub fn is_empty(&self) -> bool {
        self.at_least.is_empty() && self.zero.is_empty() && self.exactly_one.is_empty()
    }

    /// Every atom this spec can emit, in a stable order.
    pub fn atom_universe(&self) -> Vec<Atom> {
        let mut atoms = Vec::new();
        for (p, k) in &self.at_least {
            atoms.push(at_least_atom(p, *k));
        }
        for p in &self.zero {
            atoms.push(none_atom(p));
        }
        for p in &self.exactly_one {
            atoms.push(Atom::exactly_one(p.clone()));
        }
        atoms
    }

    /// The atoms labeling an abstract state, given each proposition's
    /// occupancy through `count`.
    pub fn atoms_for(&self, mut count: impl FnMut(&str) -> u32) -> Vec<Atom> {
        let mut atoms = Vec::new();
        for (p, k) in &self.at_least {
            if count(p) >= *k {
                atoms.push(at_least_atom(p, *k));
            }
        }
        for p in &self.zero {
            if count(p) == 0 {
                atoms.push(none_atom(p));
            }
        }
        for p in &self.exactly_one {
            if count(p) == 1 {
                atoms.push(Atom::exactly_one(p.clone()));
            }
        }
        atoms
    }

    /// A stable 64-bit fingerprint: FNV-1a over the spec section of the
    /// canonical workload encoding
    /// ([`workload_bytes`](crate::workload_bytes)); see
    /// [`GuardedTemplate::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        encode_spec(&mut bytes, self);
        fnv1a(&bytes)
    }

    /// The atoms labeling the abstract state `counts` of `template`.
    pub fn atoms_for_counter(
        &self,
        template: &GuardedTemplate,
        counts: &CounterState,
    ) -> Vec<Atom> {
        self.atoms_for(|p| template.prop_count(counts, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::mutex_template;

    #[test]
    fn atom_names() {
        assert_eq!(at_least_atom("c", 2).to_string(), "c_ge2");
        assert_eq!(none_atom("c").to_string(), "c_eq0");
    }

    #[test]
    #[should_panic(expected = "vacuously true")]
    fn zero_threshold_atom_rejected() {
        at_least_atom("c", 0);
    }

    #[test]
    fn zero_threshold_formula_is_true() {
        assert_eq!(at_least("c", 0), StateFormula::True);
        assert_eq!(at_least("c", 1).to_string(), "c_ge1");
        assert_eq!(at_most("c", 1).to_string(), "!c_ge2");
        assert_eq!(none("c").to_string(), "c_eq0");
        assert_eq!(exactly_one("c").to_string(), "one(c)");
    }

    #[test]
    fn spec_ignores_zero_threshold() {
        let spec = CountingSpec::new().with_at_least("c", 0);
        assert_eq!(spec, CountingSpec::new());
    }

    #[test]
    fn standard_spec_covers_all_props() {
        let t = mutex_template();
        let spec = CountingSpec::standard(&t);
        let universe = spec.atom_universe();
        for p in ["idle", "try", "crit"] {
            assert!(universe.contains(&at_least_atom(p, 1)));
            assert!(universe.contains(&at_least_atom(p, 2)));
            assert!(universe.contains(&none_atom(p)));
            assert!(universe.contains(&Atom::exactly_one(p)));
        }
        assert_eq!(universe.len(), 12);
    }

    #[test]
    fn atoms_for_counter_thresholds() {
        let t = mutex_template();
        let spec = CountingSpec::standard(&t);
        let atoms = spec.atoms_for_counter(&t, &CounterState::new(vec![2, 0, 1]));
        assert!(atoms.contains(&at_least_atom("idle", 1)));
        assert!(atoms.contains(&at_least_atom("idle", 2)));
        assert!(atoms.contains(&none_atom("try")));
        assert!(atoms.contains(&Atom::exactly_one("crit")));
        assert!(!atoms.contains(&at_least_atom("crit", 2)));
        assert!(!atoms.contains(&none_atom("idle")));
    }

    #[test]
    fn spec_fingerprint_tracks_equality() {
        let bytes = |spec: &CountingSpec| {
            let mut out = Vec::new();
            encode_spec(&mut out, spec);
            out
        };
        let t = mutex_template();
        assert_eq!(
            bytes(&CountingSpec::standard(&t)),
            bytes(&CountingSpec::standard(&t))
        );
        assert_ne!(
            bytes(&CountingSpec::standard(&t)),
            bytes(&CountingSpec::exhaustive(&t, 4))
        );
        assert_ne!(
            bytes(&CountingSpec::new().with_zero("p")),
            bytes(&CountingSpec::new().with_exactly_one("p"))
        );
        assert_ne!(
            bytes(&CountingSpec::new().with_at_least("p", 2)),
            bytes(&CountingSpec::new().with_at_least("p", 3)),
            "a threshold is part of the encoding"
        );
    }

    #[test]
    fn exhaustive_spec_has_all_thresholds() {
        let t = mutex_template();
        let spec = CountingSpec::exhaustive(&t, 4);
        let universe = spec.atom_universe();
        for k in 1..=4 {
            assert!(universe.contains(&at_least_atom("crit", k)));
        }
        // 3 props * (4 thresholds + eq0 + one(..)).
        assert_eq!(universe.len(), 18);
    }
}
