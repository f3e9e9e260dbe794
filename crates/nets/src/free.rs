//! The Section 6 stabilization claim: on free products, formulas with at
//! most `k` levels of index quantifiers cannot distinguish systems with
//! more than `k` processes.
//!
//! The paper: *"if f is a formula with k levels of `⋀_i` and `⋁_i`
//! operators and `M_n` is a Kripke structure obtained as a product of `n`
//! identical processes, then f will hold in `M_n` for `n > k` if and only
//! if f holds in `M_k`"* — easy for free (unsynchronized) products,
//! conjectured in general *in the paper*. For template-defined families
//! the claim is decided per formula by [`SymEngine::certify_cutoff`]
//! (on `GuardedTemplate::free(t)`), which *certifies* a stabilization
//! point `c` through the counter/representative equivalence machinery
//! (with independent re-verification) or refuses with a reason — see
//! `crates/sym/src/cutoff.rs`. What stays here is a second free family
//! to run it on, and tests pinning the claim by brute force on explicit
//! products.
//!
//! [`SymEngine::certify_cutoff`]: ../../icstar_sym/struct.SymEngine.html#method.certify_cutoff

use crate::template::ProcessTemplate;

/// A three-local-state cyclic template (`idle → work → done → idle`) used
/// to exercise the conjecture on a second family.
pub fn cyclic_template() -> ProcessTemplate {
    let mut t = crate::template::TemplateBuilder::new();
    let idle = t.state("idle", ["idle"]);
    let work = t.state("work", ["work"]);
    let done = t.state("done", ["done"]);
    t.edge(idle, work);
    t.edge(work, done);
    t.edge(done, idle);
    t.build(idle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::counting_formula;
    use crate::template::{fig41_template, interleave};
    use icstar_logic::{parse_state, quantifier_depth, StateFormula};
    use icstar_mc::IndexedChecker;

    /// `f`'s truth value on the explicit free product `M_n`, for each `n`
    /// in `sizes`.
    fn values(
        t: &ProcessTemplate,
        f: &StateFormula,
        sizes: std::ops::RangeInclusive<u32>,
    ) -> Vec<bool> {
        sizes
            .map(|n| IndexedChecker::new(&interleave(t, n)).holds(f).unwrap())
            .collect()
    }

    #[test]
    fn counting_formulas_are_consistent_beyond_their_depth() {
        let t = fig41_template();
        for k in 1..=3usize {
            let f = counting_formula(k);
            assert_eq!(quantifier_depth(&f), k);
            let values = values(&t, &f, k as u32 + 1..=k as u32 + 3);
            assert!(
                values.iter().all(|&v| v),
                "f_{k} must hold (constantly) for n > {k}: {values:?}"
            );
        }
    }

    #[test]
    fn boundary_case_m1_differs() {
        // Why the claim is for n > k only: a single process cannot be
        // starved by interleaving, so this depth-1 formula holds in M_1
        // but in no larger free product.
        let t = cyclic_template();
        let f = parse_state("exists i. AF done[i]").unwrap();
        assert_eq!(values(&t, &f, 1..=4), [true, false, false, false]);
    }

    #[test]
    fn depth_one_formulas_consistent_on_cycle() {
        let t = cyclic_template();
        for src in [
            "forall i. AG(idle[i] -> EF work[i])",
            "exists i. AF done[i]",
            "forall i. AG AF (idle[i] | work[i] | done[i])",
            "exists i. EG !done[i]",
        ] {
            let f = parse_state(src).unwrap();
            let values = values(&t, &f, 2..=4);
            assert!(values.windows(2).all(|w| w[0] == w[1]), "{src}: {values:?}");
        }
    }

    #[test]
    fn conjecture_values_recorded_per_size() {
        let t = fig41_template();
        let f = counting_formula(2);
        assert_eq!(values(&t, &f, 3..=5), [true, true, true]);
    }
}
