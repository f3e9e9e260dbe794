//! The traced run: replays a fixed prefix of a workload's job list
//! through the public functions of `wire`, `serve`, `sym`, `kripke`,
//! `mc` and `telemetry`, each call wrapped in one of the benchmark's
//! own spans, and reports per-layer totals with their call counts.
//!
//! Every layer is timed on the workload's own inputs. A layer's total
//! is a share of the same jobs' end-to-end time over TCP (`tcp.job_ms`);
//! what the layers on the served path do not explain is printed as
//! `unattributed_ms`. The jobs go over TCP twice, with the client's
//! spans off and on; the throughput difference is the tracing overhead.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use icstar_logic::StateFormula;
use icstar_serve::{GraphCache, ServeConfig, SpillStore, VerdictReport, VerifyJob, VerifyService};
use icstar_sym::fairness::counter_fairness;
use icstar_sym::{
    required_rep_width, CounterGraph, CountingSpec, GuardedTemplate, RepGraph, SymEngine,
    SymSession,
};
use icstar_wire::{parse_job, parse_report, print_job, print_report, WireClient, WireReport};

use crate::e2e;
use crate::gallery::{Kind, Variant};
use crate::jobs::{self, Job, Sizes};
use crate::report::Report;
use crate::spans::Spans;
use crate::{job_list, print_inputs, work_dir, Args};

/// Idle `PING` round trips timed per run.
const PINGS: usize = 200;

/// How many jobs of a workload's list the traced run replays: a fixed
/// count, so per-layer totals compare across commits.
pub fn trace_jobs(workload: &str, smoke: bool) -> usize {
    match (workload, smoke) {
        ("cold-build" | "warm-restart", false) => 30,
        ("cold-build" | "warm-restart", true) => 6,
        (_, false) => 2_000,
        (_, true) => 60,
    }
}

/// A job parsed the way the server parses it, with the spec resolved.
struct Parsed {
    job: VerifyJob,
    spec: CountingSpec,
}

impl Parsed {
    fn of(job: &Job) -> Parsed {
        Parsed::of_text(&job.text())
    }

    fn of_text(text: &str) -> Parsed {
        let job = parse_job(text).expect("generated jobs parse");
        let spec = job
            .spec
            .clone()
            .unwrap_or_else(|| CountingSpec::standard(&job.template));
        Parsed { job, spec }
    }

    fn engine(&self) -> SymEngine {
        SymEngine::with_spec(self.job.template.clone(), self.spec.clone())
    }

    /// The representative widths a check of every formula at `n` needs.
    fn widths(&self, n: u32) -> Vec<u32> {
        let mut w: Vec<u32> = self
            .job
            .formulas
            .iter()
            .filter_map(|(_, f)| required_rep_width(f, n).ok())
            .filter(|&w| w > 0)
            .collect();
        w.sort_unstable();
        w.dedup();
        w
    }
}

/// The structures of one (template, spec, n), built layer by layer.
struct Built {
    counter: Arc<CounterGraph>,
    reps: BTreeMap<u32, Arc<RepGraph>>,
    /// The counter build's time as the server would pay it: the sharded
    /// exploration at or above the sharded threshold, else sequential.
    counter_build: Duration,
    rep_build: Duration,
    restore: Duration,
    cache: GraphCache,
}

/// Everything the traced run accumulates besides its spans.
struct Run {
    spans: Spans,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    /// Layer time on the served path of this workload.
    attributed: Duration,
    states: u64,
    arrivals: u64,
    spill_bytes: u64,
    spilled_states: u64,
    /// `sym.rep` time and calls per representative width.
    rep_by_width: BTreeMap<u32, (Duration, usize)>,
    store: SpillStore,
    store_dir: PathBuf,
    config: ServeConfig,
}

impl Run {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn tally(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Builds the structures of `p` at `n` through each `sym` layer in
    /// turn, spills and restores them, and caches them in a fresh
    /// `GraphCache`, timing one hit per structure.
    fn build(&mut self, p: &Parsed, n: u32, widths: &[u32], job: Option<usize>) -> Built {
        let engine = p.engine();
        let template = &p.job.template;
        let spec = &p.spec;
        let sys = engine.system(n);
        let spans = &self.spans;
        let mut failures = Vec::new();

        // Reachability alone: successors, packing, hash dedup.
        let (reached, _) = spans.time("sym.reach", None, job, || {
            let packing = sys.packing();
            let mut seen = HashSet::new();
            let init = sys.initial();
            seen.insert(packing.pack(&init));
            let mut queue = vec![init];
            let mut head = 0;
            let mut arrivals = 0u64;
            while head < queue.len() {
                for next in sys.successors(&queue[head]) {
                    arrivals += 1;
                    if seen.insert(packing.pack(&next)) {
                        queue.push(next);
                    }
                }
                head += 1;
            }
            (queue, arrivals)
        });
        let (states, arrivals) = reached;
        self.states += states.len() as u64;
        self.arrivals += arrivals;
        spans.time("sym.label", None, job, || {
            states
                .iter()
                .map(|s| spec.atoms_for_counter(template, s).len())
                .sum::<usize>()
        });
        spans.time("sym.name", None, job, || {
            states
                .iter()
                .map(|s| sys.state_name(s).len())
                .sum::<usize>()
        });
        drop(states);
        let ((kripke, states), kripke_time) =
            spans.time("sym.kripke", None, job, || sys.kripke_with_states(spec));
        let (fairness, fairness_time) = spans.time("sym.fairness", None, job, || {
            counter_fairness(&sys, &states)
        });
        drop(states);
        let counter = CounterGraph { kripke, fairness };
        let shards = self.config.exploration_shards;
        let (_, sharded_time) = spans.time("sym.sharded", None, job, || {
            engine.counter_graph_sharded(n, shards).kripke.num_states()
        });
        let counter_build = if n >= self.config.sharded_threshold {
            sharded_time
        } else {
            kripke_time + fairness_time
        };

        let mut reps = BTreeMap::new();
        let mut rep_build = Duration::ZERO;
        for &w in widths {
            let (rep, d) = spans.time("sym.rep", None, job, || engine.representative_graph(n, w));
            rep_build += d;
            let by_width = self.rep_by_width.entry(w).or_default();
            by_width.0 += d;
            by_width.1 += 1;
            match rep {
                Ok(rep) => {
                    reps.insert(w, rep);
                }
                Err(e) => failures.push(format!("width-{w} build at {n}: {e}")),
            }
        }

        // Spill every structure to a scratch store and read it back.
        let mut restore = Duration::ZERO;
        let store = &self.store;
        spans.time("serve.spill", None, job, || {
            store.spill_counter(template, spec, n, &counter)
        });
        self.spill_bytes += file_len(&store.counter_path(template, spec, n));
        self.spilled_states += counter.kripke.num_states() as u64;
        let (back, d) = spans.time("serve.restore", None, job, || {
            store.restore_counter(template, spec, n).is_some()
        });
        restore += d;
        for (&w, rep) in &reps {
            spans.time("serve.spill", None, job, || {
                store.spill_rep(template, spec, n, w, rep)
            });
            self.spill_bytes += file_len(&store.rep_path(template, spec, n, w));
            self.spilled_states += rep.kripke.kripke().num_states() as u64;
            let (ok, d) = spans.time("serve.restore", None, job, || {
                store.restore_rep(template, spec, n, w).is_some()
            });
            restore += d;
            if !ok {
                failures.push(format!("width-{w} restore at {n}"));
            }
        }
        if !back {
            failures.push(format!("counter restore at {n}"));
        }
        for f in failures {
            self.fail(f);
        }

        // Cache every structure, then time one hit per key.
        let cache = GraphCache::new(self.config.cache_shards);
        let counter = cache.counter(template, spec, n, move || counter);
        let reps: BTreeMap<u32, Arc<RepGraph>> = reps
            .into_iter()
            .map(|(w, rep)| {
                let arc = cache
                    .representative(template, spec, n, w, move || Ok(rep))
                    .expect("a built structure caches");
                (w, arc)
            })
            .collect();
        let built = Built {
            counter,
            reps,
            counter_build,
            rep_build,
            restore,
            cache,
        };
        self.cache_hits(p, n, &built, widths, job);
        built
    }

    /// One `GraphCache` hit per structure a job at `n` looks up.
    fn cache_hits(
        &self,
        p: &Parsed,
        n: u32,
        built: &Built,
        widths: &[u32],
        job: Option<usize>,
    ) -> Duration {
        let (t, s) = (&p.job.template, &p.spec);
        let (_, mut total) = self.spans.time("serve.cache_hit", None, job, || {
            built
                .cache
                .counter(t, s, n, || unreachable!("the key is present"))
        });
        for &w in widths {
            total += self
                .spans
                .time("serve.cache_hit", None, job, || {
                    built
                        .cache
                        .representative(t, s, n, w, || unreachable!("the key is present"))
                        .is_ok()
                })
                .1;
        }
        total
    }

    /// Checks `checks` on a session seeded with `built`, timing each
    /// check under `mc.check` or `mc.fair_check`; returns the total.
    fn check(
        &mut self,
        engine: &SymEngine,
        n: u32,
        built: &Built,
        checks: &[(&StateFormula, bool)],
        job: Option<usize>,
    ) -> Duration {
        let mut session = engine.session(n);
        session.seed_counter(Arc::clone(&built.counter));
        for (&w, rep) in &built.reps {
            session.seed_representative(w, Arc::clone(rep));
        }
        self.check_session(&mut session, n, checks, job)
    }

    fn check_session(
        &mut self,
        session: &mut SymSession<'_>,
        n: u32,
        checks: &[(&StateFormula, bool)],
        job: Option<usize>,
    ) -> Duration {
        let mut total = Duration::ZERO;
        for &(f, expected) in checks {
            let mut open = self.spans.open("mc.check", None, job);
            let run = session.check_described(f);
            if run.as_ref().is_ok_and(|r| r.fair) {
                open.name = "mc.fair_check";
            }
            total += self.spans.close(open);
            let result = match run {
                Ok(r) if r.holds == expected => Ok(()),
                Ok(r) => Err(format!("{f} at {n}: got {}, want {expected}", r.holds)),
                Err(e) => Err(format!("{f} at {n}: {e}")),
            };
            self.tally("direct check", result);
        }
        total
    }
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The parsed formulas of a job paired with their expected verdicts.
fn expectations<'a>(p: &'a Parsed, job: &Job) -> Vec<(&'a StateFormula, bool)> {
    p.job
        .formulas
        .iter()
        .zip(&job.checks)
        .map(|((_, f), c)| (f, c.expected))
        .collect()
}

fn connections(args: &Args) -> usize {
    if args.workload == "hot-cache" {
        crate::HOT_CONNECTIONS
    } else {
        1
    }
}

/// What the three replays of the job list observed.
struct Replay {
    /// Per-job TCP latency with the client's spans off, and on (ms).
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    /// The in-process reports, by job index.
    reports: Vec<Option<VerdictReport>>,
    /// Structure-cache lookups of the untraced server's jobs.
    hits: u64,
    lookups: u64,
    /// Service spans recorded per in-process job.
    spans_per_job: f64,
}

/// Replays `jobs` three ways, interleaved job by job so that drift
/// (heap growth, page cache) falls on all three alike: over TCP with
/// the client's spans off, over TCP with them on (a `tcp.job` span with
/// `tcp.submit` and `tcp.result` children), and in process (`submit` →
/// `wait`, timed as `serve.job`). Each path has its own server or
/// service, set up like the measured runs: restarted on the populated
/// directory for warm-restart, warmed for hot-cache.
fn replay(args: &Args, jobs: &[Arc<Job>], warm: &[Arc<Job>], run: &mut Run) -> Replay {
    let conns = connections(args);
    let plain = e2e::start_ready(args.cache_dir.clone());
    let traced = e2e::start_ready(args.cache_dir.clone());
    let service = VerifyService::start(ServeConfig {
        cache_dir: args.cache_dir.clone(),
        ..ServeConfig::default()
    });
    let mut outcomes: Vec<(&str, Result<(), String>)> = Vec::new();
    for server in [&plain, &traced] {
        let out = e2e::closed_loop(server.local_addr(), warm, conns, Duration::MAX);
        outcomes.extend(out.errors.into_iter().map(|e| ("warm", Err(e))));
    }
    for job in warm {
        let parsed = parse_job(&job.text()).expect("generated jobs parse");
        let rep = service.submit(parsed).wait().map_err(|e| e.to_string());
        outcomes.push((
            "warm",
            rep.and_then(|r| e2e::verify(job, &WireReport::from(&r))),
        ));
    }
    let before = plain.stats();

    let next = AtomicUsize::new(0);
    let shared = Mutex::new((
        Vec::new(),
        Vec::new(),
        vec![None; jobs.len()],
        0usize,
        outcomes,
    ));
    let spans = &run.spans;
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let connect = |server: &icstar_wire::WireServer| {
                    WireClient::connect(server.local_addr()).expect("connecting to the server")
                };
                let (mut to_plain, mut to_traced) = (connect(&plain), connect(&traced));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let mut plain_ms = 0.0;
                    let mut traced_ms = 0.0;
                    let mut served = None;
                    let mut events = 0;
                    let mut results = Vec::new();
                    for step in 0..3 {
                        match (i + step) % 3 {
                            0 => {
                                let (dt, rep) = e2e::run_job(&mut to_plain, job);
                                plain_ms = dt.as_secs_f64() * 1e3;
                                results.push(("TCP job", rep.and_then(|r| e2e::verify(job, &r))));
                            }
                            1 => {
                                let root = spans.open("tcp.job", None, Some(i));
                                let (id, _) =
                                    spans.time("tcp.submit", Some(root.id), Some(i), || {
                                        to_traced.submit_text(&job.text())
                                    });
                                let (rep, _) =
                                    spans.time("tcp.result", Some(root.id), Some(i), || {
                                        id.and_then(|id| to_traced.result(id))
                                    });
                                traced_ms = spans.close(root).as_secs_f64() * 1e3;
                                let rep = rep.map_err(|e| e.to_string());
                                results.push((
                                    "traced TCP job",
                                    rep.and_then(|r| e2e::verify(job, &r)),
                                ));
                            }
                            _ => {
                                let parsed = parse_job(&job.text()).expect("generated jobs parse");
                                let ((rep, trace), _) =
                                    spans.time("serve.job", None, Some(i), || {
                                        let handle = service.submit(parsed);
                                        let trace = handle.trace;
                                        (handle.wait(), trace)
                                    });
                                events = spans
                                    .time("telemetry.spans_for", None, Some(i), || {
                                        service.recorder().spans_for(trace).len()
                                    })
                                    .0;
                                let rep = rep.map_err(|e| e.to_string());
                                let check = rep
                                    .as_ref()
                                    .map_err(Clone::clone)
                                    .and_then(|r| e2e::verify(job, &WireReport::from(r)));
                                results.push(("in-process job", check));
                                served = rep.ok();
                            }
                        }
                    }
                    let mut shared = shared.lock().expect("no replay thread panics");
                    shared.0.push(plain_ms);
                    shared.1.push(traced_ms);
                    shared.2[i] = served;
                    shared.3 += events;
                    shared.4.extend(results);
                }
            });
        }
    });
    let after = plain.stats();
    let (plain_ms, traced_ms, reports, events, outcomes) =
        shared.into_inner().expect("no replay thread panics");
    for (what, result) in outcomes {
        run.tally(what, result);
    }
    let hits = after.cache_hits - before.cache_hits;
    Replay {
        plain_ms,
        traced_ms,
        reports,
        hits,
        lookups: hits + after.cache_misses - before.cache_misses,
        spans_per_job: events as f64 / jobs.len().max(1) as f64,
    }
}

pub fn traced(args: &Args) -> Report {
    let w = args.workload.as_str();
    let mut jobs = job_list(w, args);
    jobs.truncate(args.jobs.unwrap_or_else(|| trace_jobs(w, args.smoke)));
    print_inputs(w, &jobs, args);
    let warm = if w == "hot-cache" {
        let (families, _) = jobs::hot_cache(args.seed, 0, &crate::scale(args));
        jobs::warm_jobs(&families)
    } else {
        Vec::new()
    };
    let store_dir = work_dir().join(format!("spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut run = Run {
        spans: Spans::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        attributed: Duration::ZERO,
        states: 0,
        arrivals: 0,
        spill_bytes: 0,
        spilled_states: 0,
        rep_by_width: BTreeMap::new(),
        store: SpillStore::open(&store_dir).expect("opening a scratch spill directory"),
        store_dir,
        config: ServeConfig::default(),
    };
    let mut report = Report::new(w);

    // 1. The jobs over TCP, spans off and on, and in process.
    let replay = replay(args, &jobs, &warm, &mut run);

    // 2. Wire codecs on the same jobs and their reports.
    for (i, (job, rep)) in jobs.iter().zip(&replay.reports).enumerate() {
        let Some(rep) = rep else { continue };
        let text = job.text();
        let (parsed, d) = run
            .spans
            .time("wire.parse_job", None, Some(i), || parse_job(&text));
        run.attributed += d;
        let parsed = parsed.expect("generated jobs parse");
        run.spans
            .time("wire.print_job", None, Some(i), || print_job(&parsed));
        let (printed, d) = run
            .spans
            .time("wire.print_report", None, Some(i), || print_report(rep));
        run.attributed += d;
        let (_, d) = run.spans.time("wire.parse_report", None, Some(i), || {
            parse_report(&printed)
        });
        run.attributed += d;
    }

    // 3. Structures, checks and certificates, layer by layer.
    match w {
        "hot-cache" => hot_layers(args, &jobs, &mut run),
        "all-sizes" => all_sizes_layers(&jobs, &mut run),
        _ => cold_layers(w == "warm-restart", &jobs, &mut run),
    }
    cert_answers(w, &jobs, &mut run);

    // 4. Idle round trips.
    let server = e2e::start_ready(None);
    let mut client = WireClient::connect(server.local_addr()).expect("connecting to the server");
    for _ in 0..PINGS {
        let (ok, _) = run
            .spans
            .time("wire.ping", None, None, || client.ping().is_ok());
        if !ok {
            run.fail("PING".into());
        }
    }
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&run.store_dir);

    // Totals per layer, then the derived shares.
    let totals = run.spans.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    for (name, metric, micros) in LAYER_TIMINGS {
        let (d, calls) = total(name);
        let value = if *micros { us(d) } else { ms(d) };
        let unit = if *micros { "us" } else { "ms" };
        report.metric(metric, value, unit, Some(calls));
        report.metric(&calls_name(metric), calls as f64, "count", None);
    }
    let serve_job = ms(total("serve.job").0);
    let freeze = ms(total("sym.kripke").0)
        - ms(total("sym.reach").0)
        - ms(total("sym.label").0)
        - ms(total("sym.name").0);
    report.metric(
        "kripke.freeze_ms",
        freeze,
        "ms",
        Some(total("sym.kripke").1),
    );
    let tcp_total: f64 = replay.plain_ms.iter().sum();
    let tcp_jobs = replay.plain_ms.len();
    report.metric("tcp.job_ms", tcp_total, "ms", Some(tcp_jobs));
    report.metric(
        "wire.overhead_ms",
        tcp_total - serve_job,
        "ms",
        Some(tcp_jobs),
    );
    let served_path = ms(run.attributed)
        - ms(total("wire.parse_job").0)
        - ms(total("wire.print_report").0)
        - ms(total("wire.parse_report").0);
    report.metric(
        "serve.overhead_ms",
        serve_job - served_path,
        "ms",
        Some(total("serve.job").1),
    );
    report.metric(
        "unattributed_ms",
        tcp_total - ms(run.attributed),
        "ms",
        Some(tcp_jobs),
    );
    let ratio = replay.hits as f64 / replay.lookups.max(1) as f64;
    report.metric(
        "serve.cache_hit_ratio",
        ratio,
        "ratio",
        Some(replay.lookups as usize),
    );
    report.metric(
        "telemetry.spans_per_job",
        replay.spans_per_job,
        "count",
        Some(jobs.len()),
    );
    let per_state = run.spill_bytes as f64 / run.spilled_states.max(1) as f64;
    report.metric(
        "serve.spill_bytes_per_state",
        per_state,
        "B/state",
        Some(run.spilled_states as usize),
    );
    report.metric("sym.states", run.states as f64, "count", None);
    report.metric("sym.edges", run.arrivals as f64, "count", None);
    let dedup = run.states as f64 / run.arrivals.max(1) as f64;
    report.metric(
        "sym.dedup_ratio",
        dedup,
        "ratio",
        Some(run.arrivals as usize),
    );
    // A closed loop of c connections completes c jobs per mean latency.
    let conns = connections(args) as f64;
    let untraced = conns * 1e3 * tcp_jobs as f64 / tcp_total;
    let traced_total: f64 = replay.traced_ms.iter().sum();
    let traced = conns * 1e3 * replay.traced_ms.len() as f64 / traced_total;
    report.metric("tcp.jobs_per_s", untraced, "1/s", Some(tcp_jobs));
    report.metric(
        "tcp.traced_jobs_per_s",
        traced,
        "1/s",
        Some(replay.traced_ms.len()),
    );
    report.metric(
        "tcp.tracing_overhead",
        1.0 - traced / untraced,
        "share",
        None,
    );
    for (w, (d, calls)) in &run.rep_by_width {
        println!("detail {w} sym.rep_w{w}_ms {} ms calls={calls}", ms(*d));
    }

    let trace_file = work_dir().join(format!("trace-{w}-{}.json", args.seed));
    if let Err(e) = std::fs::write(&trace_file, run.spans.chrome_json()) {
        eprintln!("perfbench: writing {}: {e}", trace_file.display());
    }
    println!("{w}: spans written to {}", trace_file.display());
    for e in &run.errors {
        eprintln!("{w}: {e}");
    }
    report.attempted = run.attempted;
    report.failed = run.failed;
    report.correct = run.failed == 0 && run.attempted > 0;
    report
}

/// (span name, metric name, reported in microseconds).
const LAYER_TIMINGS: &[(&str, &str, bool)] = &[
    ("wire.ping", "wire.ping_us", true),
    ("wire.print_job", "wire.print_job_us", true),
    ("wire.parse_job", "wire.parse_job_us", true),
    ("wire.print_report", "wire.print_report_us", true),
    ("wire.parse_report", "wire.parse_report_us", true),
    ("serve.job", "serve.job_ms", false),
    ("serve.cache_hit", "serve.cache_hit_us", true),
    ("serve.cert_answer", "serve.cert_answer_us", true),
    ("serve.spill", "serve.spill_ms", false),
    ("serve.restore", "serve.restore_ms", false),
    ("sym.reach", "sym.reach_ms", false),
    ("sym.label", "sym.label_ms", false),
    ("sym.name", "sym.name_ms", false),
    ("sym.kripke", "sym.kripke_ms", false),
    ("sym.fairness", "sym.fairness_ms", false),
    ("sym.sharded", "sym.sharded_ms", false),
    ("sym.rep", "sym.rep_ms", false),
    ("sym.certify", "sym.certify_ms", false),
    ("mc.check", "mc.check_ms", false),
    ("mc.fair_check", "mc.fair_check_ms", false),
    ("telemetry.spans_for", "telemetry.spans_for_us", true),
];

/// `sym.reach_ms` → `sym.reach_calls`.
fn calls_name(metric: &str) -> String {
    let stem = metric.rsplit_once('_').map_or(metric, |(s, _)| s);
    format!("{stem}_calls")
}

/// cold-build and warm-restart: every job is its own (template, n);
/// its structures are built layer by layer, then its formulas checked.
/// The served path is the build (cold-build) or the restore
/// (warm-restart), then the checks.
fn cold_layers(restore_path: bool, jobs: &[Arc<Job>], run: &mut Run) {
    for (i, job) in jobs.iter().enumerate() {
        let p = Parsed::of(job);
        let n = job.n().expect("cold jobs are bounded");
        let widths = p.widths(n);
        let built = run.build(&p, n, &widths, Some(i));
        run.attributed += if restore_path {
            built.restore
        } else {
            built.counter_build + built.rep_build
        };
        let checks = expectations(&p, job);
        let check = run.check(&p.engine(), n, &built, &checks, Some(i));
        run.attributed += check;
    }
}

/// hot-cache: the warmed families are built once (set-up, not on the
/// served path); every job then costs cache hits and checks.
fn hot_layers(args: &Args, jobs: &[Arc<Job>], run: &mut Run) {
    let (families, _) = jobs::hot_cache(args.seed, 0, &crate::scale(args));
    let warm = jobs::warm_jobs(&families);
    let mut built: HashMap<String, (Parsed, Built)> = HashMap::new();
    for job in &warm {
        let p = Parsed::of(job);
        let n = job.n().expect("hot jobs are bounded");
        let widths = p.widths(n);
        let b = run.build(&p, n, &widths, None);
        built.insert(family_key(job), (p, b));
    }
    for (i, job) in jobs.iter().enumerate() {
        let (family, b) = &built[&family_key(job)];
        let p = Parsed::of(job);
        let n = job.n().expect("hot jobs are bounded");
        let widths = p.widths(n);
        let hit = run.cache_hits(family, n, b, &widths, Some(i));
        let checks = expectations(&p, job);
        let check = run.check(&family.engine(), n, b, &checks, Some(i));
        run.attributed += hit + check;
    }
}

fn family_key(job: &Job) -> String {
    format!("{}@{:?}", job.variant.name(), job.n())
}

/// all-sizes: each write certifies its triple (the served path). The
/// structures certification builds, sizes `floor ..= c + 1 + samples`,
/// are then built layer by layer and the formula checked on them.
fn all_sizes_layers(jobs: &[Arc<Job>], run: &mut Run) {
    let mut fair_sizes = HashSet::new();
    for (i, job) in jobs.iter().enumerate() {
        if !matches!(job.sizes, Sizes::From(_)) {
            continue;
        }
        let p = Parsed::of(job);
        let engine = p.engine();
        let (_, f) = &p.job.formulas[0];
        let (cert, d) = run
            .spans
            .time("sym.certify", None, Some(i), || engine.certify_cutoff(f));
        run.attributed += d;
        let cert = match cert {
            Ok(c) => c,
            Err(e) => {
                run.tally("certify", Err(e.to_string()));
                continue;
            }
        };
        run.tally(
            "certify",
            if cert.holds {
                Ok(())
            } else {
                Err(format!("{f}: certified false"))
            },
        );
        let top = cert.c + 1 + cert.evidence.samples.len() as u32;
        for n in cert.evidence.floor..=top {
            let widths = p.widths(n);
            let b = run.build(&p, n, &widths, Some(i));
            let checks = expectations(&p, job);
            run.check(&engine, n, &b, &checks, Some(i));
            if fair_sizes.insert((job.variant.row, n)) {
                fair_checks(job.variant.row, n, i, run);
            }
        }
    }
}

/// all-sizes asks no fair job, so `mc.fair_check` is timed on the
/// weakly fair variant of the same template at the same size, asking
/// its liveness rows (all of which hold there).
fn fair_checks(row: usize, n: u32, job: usize, run: &mut Run) {
    let variant = Variant { row, fair: true };
    let liveness: String = variant
        .questions()
        .iter()
        .enumerate()
        .filter(|(_, q)| q.1 == Kind::Liveness)
        .map(|(k, q)| format!("check \"l{k}\": {};\n", q.0))
        .collect();
    let text = format!("{}sizes {n};\n{liveness}}}\n", jobs::head(variant, None));
    let p = Parsed::of_text(&text);
    let engine = p.engine();
    let mut session = engine.session(n);
    session.seed_counter(Arc::new(engine.counter_graph(n)));
    for w in p.widths(n) {
        match engine.representative_graph(n, w) {
            Ok(rep) => {
                session.seed_representative(w, Arc::new(rep));
            }
            Err(e) => run.fail(format!("fair width-{w} build at {n}: {e}")),
        }
    }
    let checks: Vec<(&StateFormula, bool)> =
        p.job.formulas.iter().map(|(_, f)| (f, true)).collect();
    run.check_session(&mut session, n, &checks, Some(job));
}

/// `serve.cert_answer`: bounded jobs answered from a certificate, on an
/// in-process service. all-sizes times its own reads after their
/// triples' writes; the other workloads certify each gallery
/// certified-cutoff formula of the rows they use (timed as
/// `sym.certify`), then ask it at each plain job's size.
fn cert_answers(workload: &str, jobs: &[Arc<Job>], run: &mut Run) {
    let service = VerifyService::start(ServeConfig::default());
    let submit = |text: &str| {
        let parsed = parse_job(text).expect("generated jobs parse");
        service.submit(parsed).wait().map_err(|e| e.to_string())
    };
    if workload == "all-sizes" {
        for (i, job) in jobs.iter().enumerate() {
            let text = job.text();
            let rep = if job.n().is_some() {
                run.spans
                    .time("serve.cert_answer", None, Some(i), || submit(&text))
                    .0
            } else {
                submit(&text)
            };
            run.tally(
                "certificate answer",
                rep.and_then(|r| e2e::verify(job, &WireReport::from(&r))),
            );
        }
        return;
    }
    let mut certified = HashSet::new();
    for (i, job) in jobs.iter().enumerate() {
        let Some(n) = job.n().filter(|_| !job.variant.fair) else {
            continue;
        };
        let row = job.variant.row();
        let head = jobs::head(job.variant, None);
        let checks: String = row
            .certified
            .iter()
            .enumerate()
            .map(|(k, f)| format!("check \"c{k}\": {f};\n"))
            .collect();
        if certified.insert(job.variant.row) {
            let text = format!("{head}sizes 1..*;\n{checks}}}\n");
            let template: GuardedTemplate = parse_job(&text).expect("parses").template;
            let engine = SymEngine::new(template);
            for f in row.certified {
                let f = icstar_logic::parse_state(f).expect("gallery formulas parse");
                run.spans.time("sym.certify", None, None, || {
                    engine.certify_cutoff(&f).is_ok()
                });
            }
            run.tally("certify", submit(&text).and_then(|r| all_hold(&r)));
        }
        let text = format!("{head}sizes {n};\n{checks}}}\n");
        let (rep, _) = run
            .spans
            .time("serve.cert_answer", None, Some(i), || submit(&text));
        run.tally(
            "certificate answer",
            rep.and_then(|r| {
                all_hold(&r)?;
                if r.verdicts.iter().all(|v| v.cutoff.is_some_and(|c| c <= n)) {
                    Ok(())
                } else {
                    Err(format!("not answered from a certificate at {n}"))
                }
            }),
        );
    }
}

fn all_hold(r: &VerdictReport) -> Result<(), String> {
    if r.all_hold() {
        Ok(())
    } else {
        Err(format!("{:?}", WireReport::from(r)))
    }
}
