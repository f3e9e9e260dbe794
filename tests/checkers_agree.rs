//! Cross-validation of the model checker's routes against each other and
//! against the naive lasso oracle.
//!
//! `icstar-mc` has one labeler, [`Checker`], with two routes through it,
//! and a separate oracle:
//!
//! 1. the CTL labeling algorithm (`EG` by SCCs, `EU` by backward search),
//!    over all paths or over the fair paths of a constraint;
//! 2. the CTL* automata route (NNF → Büchi tableau → product emptiness);
//! 3. the naive bounded lasso enumerator.
//!
//! They must agree wherever their domains overlap.

use icstar::icstar_kripke::gen::{random_kripke, RandomConfig};
use icstar::{parse_state, Checker};
use icstar_logic::arb::{random_state_formula, FormulaConfig};
use icstar_logic::{build, PathFormula, StateFormula};
use icstar_mc::ctl::full_set;
use icstar_mc::fair::{FairReq, TransFairness};
use icstar_mc::naive::{eval_on_lasso, naive_e_check, simple_lit};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(states: usize) -> RandomConfig {
    RandomConfig {
        states,
        atom_names: vec!["p".into(), "q".into()],
        label_density: 0.5,
        mean_out_degree: 2.0,
    }
}

/// Semantically equal (fast-path, general-route) formula pairs: the right
/// column's shape forces the Büchi product.
const EQUIVALENT_PAIRS: &[(&str, &str)] = &[
    ("EF p", "E(F F p)"),
    ("AG p", "A(G G p)"),
    ("EG p", "E(G G p)"),
    ("AF q", "A(F F q)"),
    ("E[p U q]", "E(p U (p U q))"),
    ("A[p U q]", "A(p U (p U q))"),
    ("EX p", "E(!!(X p))"),
    ("E(p R q)", "E(!(!p U !q))"),
    ("A(p R q)", "A(!(!p U !q))"),
    ("EF (p & q)", "E(F(p & F(p & q)))"),
];

#[test]
fn ctl_fast_path_agrees_with_buchi_route() {
    let mut rng = StdRng::seed_from_u64(11);
    for trial in 0..25 {
        let m = random_kripke(&mut rng, &config(3 + trial % 5));
        let mut chk = Checker::new(&m);
        for (fast_src, general_src) in EQUIVALENT_PAIRS {
            let fast = parse_state(fast_src).unwrap();
            let general = parse_state(general_src).unwrap();
            let a = chk.sat(&fast).unwrap();
            let b = chk.sat(&general).unwrap();
            assert_eq!(*a, *b, "{fast_src} vs {general_src} on trial {trial}");
        }
    }
}

#[test]
fn random_ctl_formulas_stable_under_double_negation() {
    // ¬¬f must produce the same sat set — exercises both routes through
    // the complement logic.
    let mut rng = StdRng::seed_from_u64(22);
    let fcfg = FormulaConfig {
        max_depth: 4,
        allow_next: true,
        ..FormulaConfig::default()
    };
    for trial in 0..20 {
        let m = random_kripke(&mut rng, &config(3 + trial % 4));
        let mut chk = Checker::new(&m);
        for _ in 0..30 {
            let f = random_state_formula(&mut rng, &fcfg);
            let nn = f.clone().not().not();
            assert_eq!(*chk.sat(&f).unwrap(), *chk.sat(&nn).unwrap(), "{f}");
        }
    }
}

#[test]
fn duality_e_and_a() {
    // A(g) == !E(!g) for random path shapes, via the public API.
    let mut rng = StdRng::seed_from_u64(33);
    for trial in 0..15 {
        let m = random_kripke(&mut rng, &config(4));
        let mut chk = Checker::new(&m);
        for src in ["G p", "F q", "p U q", "G F p", "F G q", "p U (q U p)"] {
            let g = icstar::parse_path(src).unwrap();
            let a_form = StateFormula::All(Box::new(g.clone()));
            let not_e_not = StateFormula::Exists(Box::new(PathFormula::Not(Box::new(g)))).not();
            assert_eq!(
                *chk.sat(&a_form).unwrap(),
                *chk.sat(&not_e_not).unwrap(),
                "duality fails for {src} on trial {trial}"
            );
        }
    }
}

#[test]
fn naive_witness_implies_checker_yes() {
    let mut rng = StdRng::seed_from_u64(44);
    for trial in 0..20 {
        let m = random_kripke(&mut rng, &config(4));
        let mut chk = Checker::new(&m);
        for src in ["F q", "G p", "p U q", "G F p", "F (p & q)", "F G !p"] {
            let p = icstar::parse_path(src).unwrap();
            for s in m.states() {
                let mut lit = simple_lit(&m);
                if let Some(w) = naive_e_check(&m, s, &p, 5, &mut lit) {
                    assert!(w.is_path_of(&m));
                    let e = StateFormula::Exists(Box::new(p.clone()));
                    assert!(
                        chk.holds_at(s, &e).unwrap(),
                        "naive found witness for E({src}) at {s} but checker says no (trial {trial})"
                    );
                }
            }
        }
    }
}

#[test]
fn checker_witnesses_validate_on_the_naive_evaluator() {
    let mut rng = StdRng::seed_from_u64(55);
    for trial in 0..20 {
        let m = random_kripke(&mut rng, &config(5));
        let mut chk = Checker::new(&m);
        for src in ["F q", "p U q", "G F p", "F G q", "G (p -> F q)"] {
            let p = icstar::parse_path(src).unwrap();
            let e = StateFormula::Exists(Box::new(p.clone()));
            let sat = chk.sat(&e).unwrap().clone();
            for s in m.states() {
                if sat.contains(s.idx()) {
                    let w = chk
                        .exists_witness(s, &p)
                        .unwrap()
                        .unwrap_or_else(|| panic!("missing witness for E({src}) at {s}"));
                    assert!(w.is_path_of(&m), "trial {trial}");
                    assert_eq!(w.first(), s);
                    let mut lit = simple_lit(&m);
                    assert!(
                        eval_on_lasso(&w, &p, &mut lit),
                        "witness for E({src}) at {s} fails the naive evaluator (trial {trial}): {w}"
                    );
                } else {
                    assert!(chk.exists_witness(s, &p).unwrap().is_none());
                }
            }
        }
    }
}

/// `f` with every path-quantifier body wrapped in `!!`: no quantifier
/// matches a CTL shape any more, so each goes through the Büchi product
/// (the trick [`EQUIVALENT_PAIRS`] uses for `EX p`).
fn through_buchi(f: &StateFormula) -> StateFormula {
    use StateFormula::*;
    let bin = |a: &StateFormula, b: &StateFormula| {
        (Box::new(through_buchi(a)), Box::new(through_buchi(b)))
    };
    let body = |p: &PathFormula| {
        let p = through_buchi_path(p);
        Box::new(PathFormula::Not(Box::new(PathFormula::Not(Box::new(p)))))
    };
    match f {
        Not(g) => Not(Box::new(through_buchi(g))),
        And(a, b) => {
            let (a, b) = bin(a, b);
            And(a, b)
        }
        Or(a, b) => {
            let (a, b) = bin(a, b);
            Or(a, b)
        }
        Implies(a, b) => {
            let (a, b) = bin(a, b);
            Implies(a, b)
        }
        Iff(a, b) => {
            let (a, b) = bin(a, b);
            Iff(a, b)
        }
        ForallIdx(v, g) => ForallIdx(v.clone(), Box::new(through_buchi(g))),
        ExistsIdx(v, g) => ExistsIdx(v.clone(), Box::new(through_buchi(g))),
        Exists(p) => Exists(body(p)),
        All(p) => All(body(p)),
        True | False | Prop(_) | Indexed(..) | ExactlyOne(_) => f.clone(),
    }
}

fn through_buchi_path(p: &PathFormula) -> PathFormula {
    use PathFormula::*;
    let un = |g: &PathFormula| Box::new(through_buchi_path(g));
    match p {
        State(f) => State(Box::new(through_buchi(f))),
        Not(g) => Not(un(g)),
        And(a, b) => And(un(a), un(b)),
        Or(a, b) => Or(un(a), un(b)),
        Implies(a, b) => Implies(un(a), un(b)),
        Until(a, b) => Until(un(a), un(b)),
        Release(a, b) => Release(un(a), un(b)),
        Eventually(g) => Eventually(un(g)),
        Globally(g) => Globally(un(g)),
        Next(g) => Next(un(g)),
    }
}

#[test]
fn unconstrained_fair_checker_collapses_to_plain_ctl() {
    // The labeling algorithm answers CTL formulas two ways besides its
    // plain one: through the Büchi product (every quantifier body wrapped
    // in `!!`), and under a fairness requirement every state meets —
    // every path is fair, so nothing may change, though the answer now
    // comes through the fair-SCC computation. Both must coincide with
    // the plain labeling on every CTL formula.
    let mut rng = StdRng::seed_from_u64(88);
    let fcfg = FormulaConfig {
        max_depth: 4,
        allow_next: true,
        ctl_only: true,
        ..FormulaConfig::default()
    };
    for trial in 0..20 {
        let m = random_kripke(&mut rng, &config(3 + trial % 5));
        let everywhere = TransFairness::new([FairReq::new(full_set(&m), [])]);
        let mut plain = Checker::new(&m);
        let mut fair = Checker::fair(&m, &everywhere);
        let mut check = |f: &StateFormula| {
            let expected = plain.sat(f).unwrap();
            let buchi = through_buchi(f);
            assert_eq!(
                *expected,
                *plain.sat(&buchi).unwrap(),
                "{f} vs {buchi} on trial {trial}"
            );
            assert_eq!(
                *expected,
                *fair.sat(f).unwrap(),
                "{f} under a vacuous requirement on trial {trial}"
            );
        };
        for fixed in ["EG p", "AF q", "AG AF p", "EG (p | EF q)", "A[p U q]"] {
            check(&parse_state(fixed).unwrap());
        }
        for _ in 0..20 {
            check(&random_state_formula(&mut rng, &fcfg));
        }
    }
}

#[test]
fn boolean_identities_hold() {
    let mut rng = StdRng::seed_from_u64(66);
    let m = random_kripke(&mut rng, &config(5));
    let mut chk = Checker::new(&m);
    let p = build::prop("p");
    let q = build::prop("q");
    // De Morgan and friends across the checker.
    let pairs = [
        (
            p.clone().and(q.clone()).not(),
            p.clone().not().or(q.clone().not()),
        ),
        (p.clone().implies(q.clone()), p.clone().not().or(q.clone())),
        (
            p.clone().iff(q.clone()),
            p.clone()
                .implies(q.clone())
                .and(q.clone().implies(p.clone())),
        ),
    ];
    for (a, b) in pairs {
        assert_eq!(*chk.sat(&a).unwrap(), *chk.sat(&b).unwrap(), "{a} vs {b}");
    }
}

#[test]
fn fixpoint_unfolding_identities() {
    // EF f == f | EX EF f ; EG f == f & EX EG f ; A[f U g] == g | (f & AX A[f U g])
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..10 {
        let m = random_kripke(&mut rng, &config(5));
        let mut chk = Checker::new(&m);
        for (lhs, rhs) in [
            ("EF p", "p | EX EF p"),
            ("EG p", "p & EX EG p"),
            ("A[p U q]", "q | (p & AX A[p U q])"),
            ("E[p U q]", "q | (p & EX E[p U q])"),
        ] {
            let a = parse_state(lhs).unwrap();
            let b = parse_state(rhs).unwrap();
            assert_eq!(*chk.sat(&a).unwrap(), *chk.sat(&b).unwrap(), "{lhs}");
        }
    }
}
