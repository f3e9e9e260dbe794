//! Benchmark: the wire layer (`icstar-wire`).
//!
//! The serialization path (print + parse of jobs) must stay negligible
//! next to verification itself, and the TCP front-end's per-job overhead
//! must stay in microseconds — the round trip here includes submit,
//! queue, check at a tiny size, and report streaming. The
//! `serve/identity` group times the service's workload-identity layer
//! underneath: a structure-cache hit and a certificate-answered job.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use icstar::{parse_state, ServeConfig, VerifyJob, VerifyService};
use icstar_serve::GraphCache;
use icstar_sym::{
    barrier_template, mutex_template, ring_station_template, CountingSpec, SymEngine,
};
use icstar_wire::{parse_job, print_job, WireClient, WireServer};

fn demo_job(sizes: &[u32]) -> VerifyJob {
    VerifyJob::new(mutex_template())
        .at_sizes(sizes.iter().copied())
        .formula("mutex", parse_state("AG !crit_ge2").unwrap())
        .formula(
            "access",
            parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
        )
}

fn bench_print_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire/print-parse");
    group.sample_size(50);
    let small = demo_job(&[100]);
    let big = VerifyJob::new(ring_station_template(24, 3))
        .at_sizes((1..=64).collect::<Vec<u32>>())
        .formula("cap", parse_state("AG !s1_ge2").unwrap());
    for (name, job) in [("mutex-job", &small), ("ring24-job", &big)] {
        let text = print_job(job);
        group.bench_function(format!("print/{name}"), |b| {
            b.iter(|| print_job(black_box(job)))
        });
        group.bench_function(format!("parse/{name}"), |b| {
            b.iter(|| parse_job(black_box(&text)).unwrap())
        });
    }
    group.finish();
}

fn bench_socket_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire/socket-round-trip");
    group.sample_size(20);
    let server = WireServer::bind(
        "127.0.0.1:0",
        VerifyService::start(ServeConfig {
            workers: 2,
            cache_shards: 4,
            exploration_shards: 2,
            sharded_threshold: 1_000_000,
            cache_budget_states: u64::MAX,
            ..ServeConfig::default()
        }),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let job = demo_job(&[10]);
    group.bench_function("submit+result/cached", |b| {
        b.iter(|| {
            let id = client.submit(black_box(&job)).unwrap();
            assert!(client.result(id).unwrap().all_hold());
        })
    });
    group.finish();
}

fn bench_concurrent_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire/concurrent-load");
    group.sample_size(10);
    let server = WireServer::bind(
        "127.0.0.1:0",
        VerifyService::start(ServeConfig {
            workers: 2,
            cache_shards: 4,
            exploration_shards: 2,
            sharded_threshold: 1_000_000,
            cache_budget_states: u64::MAX,
            ..ServeConfig::default()
        }),
    )
    .unwrap();

    // Pipelining amortizes the round trip: 32 submits go down the pipe
    // before the first answer is read, then 32 RESULTs the same way.
    let jobs: Vec<VerifyJob> = (0..32).map(|_| demo_job(&[10])).collect();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    group.bench_function("pipelined-32/submit+result", |b| {
        b.iter(|| {
            let ids = client.submit_pipelined(black_box(&jobs)).unwrap();
            let reports = client.results_pipelined(&ids).unwrap();
            assert!(reports.iter().all(|r| r.all_hold()));
        })
    });

    // 64 persistent connections: the loop's per-tick sweep cost shows
    // up in each round trip once many conversations are open at once.
    let mut clients: Vec<WireClient> = (0..64)
        .map(|_| WireClient::connect(server.local_addr()).unwrap())
        .collect();
    group.bench_function("ping/64-conns", |b| {
        b.iter(|| {
            for client in clients.iter_mut() {
                client.ping().unwrap();
            }
        })
    });
    for client in clients {
        client.quit().unwrap();
    }
    group.finish();
}

/// The service's workload-identity layer: a warmed `GraphCache::counter`
/// hit (encode the workload, look it up), and a bounded in-process job
/// answered entirely from a cached cutoff certificate (no structure is
/// built or checked).
fn bench_identity(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/identity");
    group.sample_size(100);
    for (name, template, n) in [
        ("mutex", mutex_template(), 100),
        ("ring24", ring_station_template(24, 3), 3),
    ] {
        let spec = CountingSpec::standard(&template);
        let engine = SymEngine::with_spec(template.clone(), spec.clone());
        let cache = GraphCache::new(ServeConfig::default().cache_shards);
        cache.counter(&template, &spec, n, || engine.counter_graph(n));
        group.bench_function(format!("cache-hit/{name}"), |b| {
            b.iter(|| {
                cache.counter(black_box(&template), &spec, n, || {
                    unreachable!("the cache is warm")
                })
            })
        });
    }

    let service = VerifyService::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for (name, template, src) in [
        ("mutex", mutex_template(), "AG !crit_ge2"),
        (
            "barrier",
            barrier_template(),
            "AG (phase1_ge1 -> phase0_eq0)",
        ),
    ] {
        let f = parse_state(src).unwrap();
        let certify = VerifyJob::new(template.clone())
            .all_sizes_from(1)
            .formula(name, f.clone());
        assert!(service.submit(certify).wait().unwrap().all_hold());
        let bounded = VerifyJob::new(template).at_size(1_000_000).formula(name, f);
        group.bench_function(format!("cert-answer/{name}"), |b| {
            b.iter(|| {
                let report = service.submit(bounded.clone()).wait().unwrap();
                assert!(report.verdicts[0].cutoff.is_some());
                report
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_print_parse,
    bench_socket_round_trip,
    bench_concurrent_load,
    bench_identity
);
criterion_main!(benches);
