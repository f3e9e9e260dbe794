//! The service's certificate store: one cutoff certificate (or refusal)
//! per (workload, formula) pair.
//!
//! Certificates are the service's O(1) answer path: once a formula's
//! stabilization point `c` is certified
//! ([`SymEngine::certify_cutoff`]), **every** size `n ≥ c` — including
//! the unbounded `all_from` form — is answered from the stored verdict
//! without building or checking anything. Refusals are cached too:
//! re-deriving "this family does not stabilize" on every unbounded
//! request would repeat the full scan.
//!
//! Keys are the workload's canonical bytes (the same [`Workload`] the
//! [`GraphCache`](crate::GraphCache) keys on) plus the formula's text,
//! so equal workloads from different callers share certificates, and a
//! certificate answers only the exact workload it was computed for.

use std::collections::HashMap;
use std::sync::Mutex;

use icstar_logic::StateFormula;
use icstar_sym::{CutoffCertificate, SymEngine};

use crate::cache::Workload;
use crate::stats::ServiceStats;

/// A certification outcome: the certificate, or the refusal's display
/// text.
type Outcome = Result<CutoffCertificate, String>;

/// A concurrent map from (workload, formula text) to certification
/// outcomes. Certification runs *outside* the lock (it builds and
/// compares structures); on a race the first insert wins so every
/// caller sees one consistent outcome.
#[derive(Default)]
pub(crate) struct CertStore {
    slots: Mutex<HashMap<(Workload, String), Outcome>>,
}

impl CertStore {
    /// The cached outcome for this pair, if any — never certifies.
    /// The bounded-size fast path uses this: a certificate a previous
    /// (unbounded) job paid for answers `n ≥ c` for free, but a plain
    /// `sizes` job never triggers the certification scan itself.
    pub(crate) fn cached(&self, workload: &Workload, f: &StateFormula) -> Option<Outcome> {
        let slots = self.slots.lock().expect("cert store poisoned");
        slots.get(&(workload.clone(), f.to_string())).cloned()
    }

    /// The outcome for this pair, certifying on `engine` (outside the
    /// lock) on first request; `workload` must be the engine's. A
    /// freshly issued certificate bumps `serve.cutoff.certified`.
    pub(crate) fn get_or_certify(
        &self,
        workload: &Workload,
        engine: &SymEngine,
        f: &StateFormula,
        stats: &ServiceStats,
    ) -> Outcome {
        if let Some(outcome) = self.cached(workload, f) {
            return outcome;
        }
        let outcome = engine.certify_cutoff(f).map_err(|r| r.to_string());
        let mut slots = self.slots.lock().expect("cert store poisoned");
        slots
            .entry((workload.clone(), f.to_string()))
            .or_insert_with(|| {
                if outcome.is_ok() {
                    stats.cutoffs_certified.inc();
                }
                outcome
            })
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_logic::parse_state;
    use icstar_sym::{
        mutex_template, ring_station_template, Guard, GuardedBuilder, GuardedTemplate,
    };
    use icstar_telemetry::Registry;

    fn keyed(template: GuardedTemplate) -> (Workload, SymEngine) {
        let engine = SymEngine::new(template);
        (Workload::of(engine.template(), engine.spec()), engine)
    }

    #[test]
    fn certifies_once_and_serves_from_cache() {
        let store = CertStore::default();
        let registry = Registry::new();
        let stats = ServiceStats::register(&registry);
        let (w, engine) = keyed(mutex_template());
        let f = parse_state("AG !crit_ge2").unwrap();
        assert!(store.cached(&w, &f).is_none(), "lookup never certifies");
        let cert = store.get_or_certify(&w, &engine, &f, &stats).unwrap();
        assert!(cert.holds);
        assert_eq!(stats.cutoffs_certified.get(), 1);
        // Second request: same certificate, no second certification.
        let again = store.get_or_certify(&w, &engine, &f, &stats).unwrap();
        assert_eq!(again, cert);
        assert_eq!(stats.cutoffs_certified.get(), 1);
        assert_eq!(store.cached(&w, &f), Some(Ok(cert)));
    }

    #[test]
    fn refusals_are_cached_and_not_counted_as_certified() {
        let store = CertStore::default();
        let registry = Registry::new();
        let stats = ServiceStats::register(&registry);
        let (w, engine) = keyed(mutex_template());
        let f = parse_state("AX idle_ge1").unwrap();
        let err = store.get_or_certify(&w, &engine, &f, &stats).unwrap_err();
        assert!(err.contains("fragment"));
        assert_eq!(stats.cutoffs_certified.get(), 0);
        assert_eq!(store.cached(&w, &f), Some(Err(err)));
    }

    /// Certifies `f` for both twins through one store: each must get the
    /// outcome of its own certification, never the other's. The formulas
    /// are picked so the twins' outcomes differ.
    fn assert_twins_certify_apart(a: GuardedTemplate, b: GuardedTemplate, f: &str) {
        let store = CertStore::default();
        let registry = Registry::new();
        let stats = ServiceStats::register(&registry);
        let f = parse_state(f).unwrap();
        let (wa, ea) = keyed(a);
        let (wb, eb) = keyed(b);
        assert_ne!(wa, wb);
        let direct = |e: &SymEngine| e.certify_cutoff(&f).map_err(|r| r.to_string());
        let got_a = store.get_or_certify(&wa, &ea, &f, &stats);
        let got_b = store.get_or_certify(&wb, &eb, &f, &stats);
        assert_ne!(got_a, got_b);
        assert_eq!(got_a, direct(&ea));
        assert_eq!(got_b, direct(&eb));
        let issued = [&got_a, &got_b].iter().filter(|o| o.is_ok()).count();
        assert_eq!(stats.cutoffs_certified.get(), issued as u64);
        assert_eq!(store.cached(&wa, &f), Some(got_a));
        assert_eq!(store.cached(&wb, &f), Some(got_b));
    }

    #[test]
    fn fair_and_unfair_twins_get_separate_certificates() {
        // The twin pair of `tests/persist.rs`: identical but for one
        // fairness declaration.
        let twin = |fair: bool| {
            let mut b = GuardedBuilder::new();
            let q0 = b.state("q0", ["a"]);
            let q1 = b.state("q1", ["b"]);
            b.edge(q0, q0);
            b.edge(q1, q1);
            b.edge(q0, q1);
            b.edge_guarded(q1, q0, [Guard::at_least("b", 1)]);
            if fair {
                b.fair("go", [(q0, q1)]);
            }
            b.build(q0)
        };
        assert_twins_certify_apart(twin(false), twin(true), "AG (a_ge1 | b_ge1)");
    }

    #[test]
    fn twins_differing_in_one_guard_bound_get_separate_certificates() {
        assert_twins_certify_apart(
            ring_station_template(3, 1),
            ring_station_template(3, 2),
            "AG !s1_ge2",
        );
    }

    #[test]
    fn twins_differing_in_one_response_entry_get_separate_certificates() {
        let with_response = |resp: u32| {
            let mut b = GuardedBuilder::new();
            let a = b.state("a", ["a"]);
            let c = b.state("c", ["c"]);
            let d = b.state("d", ["d"]);
            b.edge(a, c);
            b.edge(c, a);
            b.edge(d, d);
            b.broadcast(a, d, [(c, resp)]);
            b.build(a)
        };
        assert_twins_certify_apart(with_response(0), with_response(2), "E[d_eq0 U d_ge2]");
    }
}
