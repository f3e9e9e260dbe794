//! Benchmark: the counter-abstraction engine (`icstar-sym`).
//!
//! Measures the exponential→polynomial collapse directly: building and
//! checking the abstract structure at n up to 10,000, against the
//! explicit free product whose cost doubles per process.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use icstar::icstar_sym::fairness::{counter_fairness, rep_fairness};
use icstar::icstar_sym::{
    barrier_template, mutex_template, representative_with_states, CounterSystem, CountingSpec,
    GuardedTemplate, SymEngine,
};
use icstar::parse_state;
use icstar_nets::{fig41_template, interleave};
use icstar_serve::{VerifyJob, VerifyService};

fn bench_counter_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("sym/counter-graph");
    group.sample_size(10);
    let t = mutex_template();
    let spec = CountingSpec::standard(&t);
    for n in [100u32, 1_000, 10_000] {
        let sys = CounterSystem::new(t.clone(), n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let k = sys.kripke(&spec);
                assert_eq!(k.num_states() as u32, 2 * n + 1);
                k
            })
        });
    }
    group.finish();
}

fn bench_abstract_vs_explicit(c: &mut Criterion) {
    // Same workload, both routes: the explicit free product (2^n states)
    // vs its counter abstraction (n + 1 states).
    let mut group = c.benchmark_group("sym/abstract-vs-explicit");
    group.sample_size(10);
    let base = fig41_template();
    let gt = GuardedTemplate::free(base.clone());
    let spec = CountingSpec::standard(&gt);
    for n in [8u32, 12, 14] {
        group.bench_with_input(BenchmarkId::new("explicit", n), &n, |b, &n| {
            b.iter(|| interleave(&base, n))
        });
        group.bench_with_input(BenchmarkId::new("abstract", n), &n, |b, &n| {
            b.iter(|| CounterSystem::new(gt.clone(), n).kripke(&spec))
        });
    }
    group.finish();
}

fn bench_sharded_exploration(c: &mut Criterion) {
    // The same materialization, sequential vs sharded: the win is
    // proportional to core count, the overhead is the channel traffic.
    let mut group = c.benchmark_group("sym/sharded-exploration");
    group.sample_size(10);
    let t = mutex_template();
    let spec = CountingSpec::standard(&t);
    for n in [10_000u32, 50_000] {
        let sys = CounterSystem::new(t.clone(), n);
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, &n| {
            b.iter(|| {
                let k = sys.kripke(&spec);
                assert_eq!(k.num_states() as u32, 2 * n + 1);
                k
            })
        });
        let shards = std::thread::available_parallelism().map_or(2, |p| p.get().max(2));
        group.bench_with_input(BenchmarkId::new("sharded", n), &n, |b, &n| {
            b.iter(|| {
                let k = sys.kripke_sharded(&spec, shards);
                assert_eq!(k.num_states() as u32, 2 * n + 1);
                k
            })
        });
    }
    group.finish();
}

fn bench_mutex_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("sym/verify-mutex");
    group.sample_size(10);
    let engine = SymEngine::new(mutex_template());
    let counting = parse_state("AG !crit_ge2").unwrap();
    let indexed = parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap();
    for n in [1_000u32, 10_000] {
        group.bench_with_input(BenchmarkId::new("counting", n), &n, |b, &n| {
            b.iter(|| assert!(engine.check(n, &counting).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, &n| {
            b.iter(|| assert!(engine.check(n, &indexed).unwrap()))
        });
    }
    group.finish();
}

fn bench_representative_width(c: &mut Criterion) {
    // The multi-representative construction: building the width-k
    // structure and answering a depth-k query. Width 2 pays |S|× more
    // states than width 1 — this group pins that factor so regressions
    // in the locals-vector hot path are visible.
    //
    // `check/*` is *cold*: each sample opens a fresh session, so it times
    // the structure's build plus the check. `check-warm/*` builds once
    // outside the samples and times the check alone.
    let mut group = c.benchmark_group("sym/representative-width");
    group.sample_size(10);
    let engine = SymEngine::new(mutex_template());
    let n = 2_000u32;
    for width in [1u32, 2] {
        group.bench_with_input(BenchmarkId::new("build", width), &width, |b, &width| {
            b.iter(|| engine.representative_structure(n, width).unwrap())
        });
    }
    let depth1 = parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap();
    let depth2 = parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap();
    for (label, f) in [("depth1", &depth1), ("depth2", &depth2)] {
        group.bench_with_input(BenchmarkId::new("check", label), &f, |b, f| {
            let mut session = engine.session(n);
            b.iter(|| assert!(session.check(f).unwrap()))
        });
        let mut warm = engine.session(n);
        assert!(warm.check(f).unwrap());
        group.bench_with_input(BenchmarkId::new("check-warm", label), &f, |b, f| {
            b.iter(|| assert!(warm.check(f).unwrap()))
        });
    }
    group.finish();
}

/// The barrier's weakly fair variant: two groups over broadcasts.
fn fair_barrier() -> GuardedTemplate {
    barrier_template()
        .with_fairness("arrive", [(0, 1), (2, 3)])
        .with_fairness("release", [(1, 2), (3, 0)])
}

fn bench_fair_check(c: &mut Criterion) {
    // The fair-fragment route: weak-fairness groups compiled onto the
    // occupancy structures and discharged by the counter-fair checker.
    // Uses the barrier's fair variant (two groups over broadcasts) on a
    // recurrence property that *fails* unfair, so the fairness machinery
    // is genuinely load-bearing here, not a pass-through.
    //
    // `counting/*` and `indexed/*` are *cold*: every `engine.check`
    // builds the structure and compiles fairness before checking.
    // `check-warm/*` builds once outside the samples and times the fair
    // check alone.
    let mut group = c.benchmark_group("sym/fair-check");
    group.sample_size(10);
    let engine = SymEngine::new(fair_barrier());
    let counting = parse_state("AG AF phase1_ge1").unwrap();
    let indexed = parse_state("forall i. AG AF phase1[i]").unwrap();
    for n in [1_000u32, 10_000] {
        group.bench_with_input(BenchmarkId::new("counting", n), &n, |b, &n| {
            b.iter(|| assert!(engine.check(n, &counting).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, &n| {
            b.iter(|| assert!(engine.check(n, &indexed).unwrap()))
        });
        let mut warm = engine.session(n);
        for (label, f) in [("counting", &counting), ("indexed", &indexed)] {
            assert!(warm.check(f).unwrap());
            let id = BenchmarkId::new(format!("check-warm/{label}"), n);
            group.bench_with_input(id, f, |b, f| b.iter(|| assert!(warm.check(f).unwrap())));
        }
    }
    group.finish();
}

fn bench_liveness_check(c: &mut Criterion) {
    // The unfair liveness route: plain mutex `AG AF crit_ge1`, whose `AF`
    // is the `EG` the labeler computes by SCCs. `check-warm/*` builds
    // the counter structure once outside the samples and times the
    // check alone.
    let mut group = c.benchmark_group("sym/liveness-check");
    group.sample_size(10);
    let engine = SymEngine::new(mutex_template());
    let f = parse_state("AG AF crit_ge1").unwrap();
    let n = 10_000u32;
    let mut warm = engine.session(n);
    assert!(warm.check(&f).unwrap());
    group.bench_with_input(BenchmarkId::new("check-warm/mutex", n), &f, |b, f| {
        b.iter(|| assert!(warm.check(f).unwrap()))
    });
    group.finish();
}

fn bench_build_layers(c: &mut Criterion) {
    // One build layer per id, its inputs built once outside the samples.
    // `fairness/*` compiles the fair barrier's groups onto state vectors
    // already explored: `counter_fairness` over the counter structure's,
    // `rep_fairness` over the width-1 representative's.
    let mut group = c.benchmark_group("sym/build-layers");
    group.sample_size(10);
    let t = fair_barrier();
    let spec = CountingSpec::standard(&t);
    let n = 10_000u32;
    let sys = CounterSystem::new(t, n);
    let (_, states) = sys.kripke_with_states(&spec);
    group.bench_with_input(
        BenchmarkId::new("fairness/counter", n),
        &states,
        |b, states| b.iter(|| counter_fairness(&sys, states)),
    );
    let (_, states) = representative_with_states(&sys, &spec, 1).unwrap();
    group.bench_with_input(
        BenchmarkId::new("fairness/rep-w1", n),
        &states,
        |b, states| b.iter(|| rep_fairness(&sys, states)),
    );
    group.finish();
}

fn bench_cross_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("sym/cross-check");
    group.sample_size(10);
    let engine = SymEngine::new(mutex_template());
    for n in [2u32, 3, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| engine.cross_check(n).unwrap())
        });
    }
    group.finish();
}

fn bench_cutoff_detect(c: &mut Criterion) {
    // Certification cost: the scan that finds the stabilization point
    // and the independent re-verification behind it. This is the *cold*
    // price paid once per (template, formula) — the serve layer then
    // answers every size from the certificate.
    let mut group = c.benchmark_group("sym/cutoff-detect");
    group.sample_size(10);
    let mutex = SymEngine::new(mutex_template());
    let mutex_f = parse_state("AG !crit_ge2").unwrap();
    group.bench_function("mutex", |b| {
        b.iter(|| {
            let cert = mutex.certify_cutoff(&mutex_f).unwrap();
            assert_eq!(cert.c, 2);
            cert
        })
    });
    let barrier = SymEngine::new(barrier_template());
    let barrier_f = parse_state("AG (phase1_ge1 -> phase0_eq0)").unwrap();
    group.bench_function("barrier", |b| {
        b.iter(|| {
            let cert = barrier.certify_cutoff(&barrier_f).unwrap();
            assert_eq!(cert.c, 1);
            cert
        })
    });
    group.finish();
}

fn bench_cutoff_answer(c: &mut Criterion) {
    // The O(1) certified path end to end: a warmed certificate answers
    // n = 10^6 through the full submit/report round-trip without
    // building any structure. The median here is submission plumbing,
    // not verification — that is the point.
    let mut group = c.benchmark_group("serve/cutoff-answer");
    group.sample_size(10);
    let service = VerifyService::with_defaults();
    let f = parse_state("AG !crit_ge2").unwrap();
    let warm = service
        .submit(
            VerifyJob::new(mutex_template())
                .all_sizes_from(1)
                .formula("mutex", f.clone()),
        )
        .wait()
        .unwrap();
    assert!(warm.verdicts.iter().any(|v| v.cutoff.is_some()));
    group.bench_function("mutex/1000000", |b| {
        b.iter(|| {
            let report = service
                .submit(
                    VerifyJob::new(mutex_template())
                        .at_size(1_000_000)
                        .formula("mutex", f.clone()),
                )
                .wait()
                .unwrap();
            assert_eq!(report.verdicts[0].cutoff, Some(2));
            report
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_counter_graph,
    bench_abstract_vs_explicit,
    bench_sharded_exploration,
    bench_mutex_verification,
    bench_representative_width,
    bench_fair_check,
    bench_liveness_check,
    bench_build_layers,
    bench_cross_check,
    bench_cutoff_detect,
    bench_cutoff_answer
);
criterion_main!(benches);
