//! Observability end to end: a mutex workload at `n = 100,000` driven
//! through the verification service and the TCP front-end, with every
//! layer's metrics inspected on the way out.
//!
//! Three phases:
//!
//! 1. **Explore** — the service checks a counting + a quantified mutex
//!    property at `n = 100,000`; the telemetry snapshot must show a
//!    nonzero exploration throughput (`sym.explore.states` over
//!    `sym.explore.build_ns`) and one sample in every per-job phase
//!    histogram, with queue wait ≤ total latency.
//! 2. **Wire** — the same registry is fetched over a real TCP socket via
//!    the `METRICS` command and parsed back from the Prometheus text
//!    exposition; the wire view must agree with the in-process one.
//! 3. **Trace** — each job's causal span tree is read back from the
//!    service's flight recorder (`spans_for` on the job's trace id, what
//!    the wire `TRACE <id> [chrome]` command serves); the `check` spans'
//!    own durations must be exactly what `serve.job.check_ns` recorded.
//!
//! Run with: `cargo run --release --example telemetry_demo`

use std::time::Instant;

use icstar::{ServeConfig, VerifyJob, VerifyService};
use icstar_logic::parse_state;
use icstar_sym::mutex_template;
use icstar_wire::{WireClient, WireServer};

const BIG: u32 = 100_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== observability at n = {BIG} ==\n");

    // ---- Phase 1: a large job, metered at every layer ----
    let config = ServeConfig::default();
    let recorder = config.recorder.clone();
    let service = VerifyService::start(config);
    let job = VerifyJob::new(mutex_template())
        .at_size(BIG)
        .formula("mutual exclusion", parse_state("AG !crit_ge2")?)
        .formula(
            "access possibility",
            parse_state("forall i. AG(try[i] -> EF crit[i])")?,
        );
    let mut traces = Vec::new();
    for (label, job) in [("job 1 (cold)", job.clone()), ("job 2 (cached)", job)] {
        let started = Instant::now();
        let handle = service.submit(job);
        traces.push(handle.trace);
        assert!(handle.wait()?.all_hold());
        println!("{label}: verified in {:.2?}", started.elapsed());
    }
    println!();

    let snap = service.telemetry_snapshot();
    let states = snap.counter("sym.explore.states").expect("explore states");
    let build = snap.histogram("sym.explore.build_ns").expect("build times");
    assert!(states > 0 && build.sum > 0, "exploration must be metered");
    let throughput = states as f64 / (build.sum as f64 / 1e9);
    assert!(throughput > 0.0, "nonzero exploration throughput");
    println!(
        "exploration: {states} abstract states in {} builds — {:.0} states/sec",
        build.count, throughput
    );

    let queue = snap.histogram("serve.job.queue_wait_ns").expect("queue");
    let total = snap.histogram("serve.job.total_ns").expect("total");
    assert_eq!(queue.count, 2, "one queue-wait sample per job");
    assert_eq!(total.count, 2, "one total-latency sample per job");
    assert!(
        queue.sum <= total.sum,
        "queue wait is part of total latency"
    );
    for name in ["serve.job.build_ns", "serve.job.check_ns"] {
        let h = snap.histogram(name).expect(name);
        println!("{name}: p50 ≈ {}ns over {} jobs", h.p50(), h.count);
    }
    println!(
        "cache: {} hits / {} misses, hit p50 ≈ {}ns vs miss p50 ≈ {}ns\n",
        snap.counter("serve.cache.hits").unwrap_or(0),
        snap.counter("serve.cache.misses").unwrap_or(0),
        snap.histogram("serve.cache.hit_ns").map_or(0, |h| h.p50()),
        snap.histogram("serve.cache.miss_ns").map_or(0, |h| h.p50()),
    );

    // ---- Phase 2: the same registry over TCP, Prometheus-encoded ----
    let server = WireServer::bind("127.0.0.1:0", service)?;
    let mut client = WireClient::connect(server.local_addr())?;
    let wire = client.metrics()?;
    // The METRICS exposition parses back into the same numbers (names
    // come back wire-mangled: dots become underscores).
    assert_eq!(
        wire.counter("icstar_sym_explore_states"),
        Some(states),
        "the wire view agrees with the in-process snapshot"
    );
    assert_eq!(
        wire.histogram("icstar_serve_job_total_ns").map(|h| h.count),
        Some(2)
    );
    assert_eq!(wire.counter("icstar_wire_cmd_metrics"), Some(1));
    println!(
        "wire: METRICS exported {} metrics over TCP, parsed back loss-free",
        wire.metrics.len()
    );

    client.quit()?;
    server.shutdown();

    // ---- Phase 3: the jobs' span trees, from the flight recorder ----
    let mut spans = 0;
    let mut check_spans_ns = 0;
    for trace in traces {
        let tree = recorder.spans_for(trace);
        assert!(!tree.is_empty(), "every job records its span tree");
        spans += tree.len();
        check_spans_ns += tree
            .iter()
            .filter(|s| s.name == "check")
            .map(|s| s.dur_ns)
            .sum::<u64>();
    }
    let check = snap.histogram("serve.job.check_ns").expect("check");
    assert!(check_spans_ns > 0, "the jobs were checked");
    assert_eq!(
        check.sum, check_spans_ns,
        "serve.job.check_ns records the check spans' own durations"
    );
    println!(
        "trace: {spans} spans across 2 jobs; their check spans account for \
         serve.job.check_ns exactly (TRACE <id> chrome serves them)"
    );
    println!("\ndone: every layer metered, exported, and verified at n = {BIG}.");
    Ok(())
}
