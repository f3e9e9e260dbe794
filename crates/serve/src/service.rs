//! The verification service: a job queue drained by a fixed worker pool.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::AtomicU64;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use icstar_kripke::Kripke;
use icstar_logic::{has_index_quantifier, StateFormula};
use icstar_sym::{required_rep_width, CounterGraph, CountingSpec, SymEngine, SymSession};
use icstar_telemetry::{
    FlightRecorder, Registry, SpanContext, TelemetrySnapshot, TraceId, TraceScope,
};

use crate::cache::{GraphCache, Workload};
use crate::certs::CertStore;
use crate::job::{JobVerdict, VerdictReport, VerifyJob};
use crate::stats::{ServiceStats, StatsSnapshot};

/// Tuning knobs for a [`VerifyService`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Independent lock domains of the structure cache.
    pub cache_shards: usize,
    /// Threads used by one sharded exploration
    /// ([`icstar_sym::CounterSystem::kripke_sharded`]).
    pub exploration_shards: usize,
    /// Family sizes at or above this materialize with the sharded
    /// exploration; smaller ones use the sequential BFS (coordination
    /// overhead would dominate).
    pub sharded_threshold: u32,
    /// Abstract-state budget of the structure cache: once the total
    /// state count of materialized cached structures exceeds this,
    /// least-recently-used entries are evicted (weighted by state
    /// count — see [`GraphCache::with_budget`]). `u64::MAX` (the
    /// default) disables eviction.
    pub cache_budget_states: u64,
    /// The registry this service's metrics land in (`serve.*`, plus the
    /// `sym.*` metrics of every engine the workers run). Defaults to a
    /// **fresh** registry. Give each service its own registry: the
    /// cache and the flight recorder adopt their counters under fixed
    /// names, so [`VerifyService::start`] on a registry another service
    /// already publishes into panics in `Registry::adopt_counter`. The
    /// process-wide `Registry::global()` suits one service per process.
    pub telemetry: Registry,
    /// The flight recorder every job's spans land in — the ring the
    /// `TRACE` wire command reads. Defaults to a fresh recorder with
    /// [`DEFAULT_TRACE_CAPACITY`](icstar_telemetry::DEFAULT_TRACE_CAPACITY)
    /// span slots; pass `FlightRecorder::with_capacity` to size it, or a
    /// clone of an existing recorder to share one ring across services.
    pub recorder: FlightRecorder,
    /// Directory the structure cache persists to (see
    /// [`SpillStore`](crate::SpillStore)): materialized graphs spill to
    /// versioned, checksummed files and memory misses probe the disk
    /// before re-exploring, so restarts and replicas sharing the
    /// directory warm-start. `None` (the default) keeps the cache purely
    /// in-memory. An unopenable directory degrades silently to `None` —
    /// persistence is an optimization, never load-bearing.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    /// Workers sized to the machine, 16 cache shards, sharding from
    /// `n = 20_000` up.
    ///
    /// Exploration shards default to *half* the cores (at least 2): with
    /// a core-sized worker pool, each concurrent large materialization
    /// spawning a full core-count of threads would oversubscribe the
    /// machine quadratically. Half-sized explorations keep two
    /// simultaneous large builds at saturation, not thrash; structurally
    /// equal workloads never build twice anyway (the cache deduplicates
    /// in-flight builds).
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        ServeConfig {
            workers: cores.max(2),
            cache_shards: 16,
            exploration_shards: (cores / 2).max(2),
            sharded_threshold: 20_000,
            cache_budget_states: u64::MAX,
            telemetry: Registry::new(),
            recorder: FlightRecorder::new(),
            cache_dir: None,
        }
    }
}

/// Why a [`JobHandle`] could not produce a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The worker processing the job disappeared before reporting (the
    /// service was dropped mid-job, or the worker panicked).
    JobLost,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::JobLost => write!(f, "the job's worker exited before reporting"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A claim ticket for one submitted job.
#[derive(Debug)]
pub struct JobHandle {
    /// The id the report will carry.
    pub id: u64,
    /// The trace every span of this job is recorded under — pass it to
    /// [`FlightRecorder::spans_for`] (via
    /// [`VerifyService::recorder`]) to reconstruct the job's causal
    /// tree. Client-supplied on [`VerifyService::submit_traced`],
    /// freshly minted otherwise.
    pub trace: TraceId,
    rx: mpsc::Receiver<VerdictReport>,
}

impl JobHandle {
    /// Blocks until the job's report arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::JobLost`] if the worker died before reporting.
    pub fn wait(self) -> Result<VerdictReport, ServeError> {
        self.rx.recv().map_err(|_| ServeError::JobLost)
    }

    /// The report, if it has already arrived (never blocks): `Ok(None)`
    /// while the job is still in flight.
    ///
    /// # Errors
    ///
    /// [`ServeError::JobLost`] if the worker died before reporting — a
    /// polling caller must see job loss too, or it would poll forever.
    pub fn try_wait(&self) -> Result<Option<VerdictReport>, ServeError> {
        match self.rx.try_recv() {
            Ok(report) => Ok(Some(report)),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(ServeError::JobLost),
        }
    }
}

struct QueuedJob {
    id: u64,
    job: VerifyJob,
    reply: mpsc::Sender<VerdictReport>,
    /// The `queue_wait` span, opened when `submit` accepted the job and
    /// closed by the worker that picks it up; it feeds
    /// `serve.job.queue_wait_ns`.
    queue_wait: TraceScope,
    /// The root `job` span, open from submission to report. Children
    /// parent on its context as the job progresses; the worker closes
    /// it last, when the job's outcome is known.
    root: TraceScope,
}

/// Everything the workers share.
struct Inner {
    cache: GraphCache,
    /// Cutoff certificates (and refusals), one per (template, spec,
    /// formula) triple — the O(1) answer path for `n ≥ c`.
    certs: CertStore,
    stats: ServiceStats,
    config: ServeConfig,
    /// Where workers announce finished job ids (set by
    /// [`VerifyService::set_completion_notifier`]); `None` until a
    /// completion-driven caller registers. Sent for every outcome —
    /// served, panicked, dropped handle — so a waiter never sleeps
    /// through a loss.
    notify: Mutex<Option<mpsc::Sender<u64>>>,
}

/// A concurrent verification service: callers [`submit`](VerifyService::submit)
/// [`VerifyJob`]s from any thread; a fixed pool of workers drains the
/// queue, shares materialized structures through the
/// [`GraphCache`](crate::GraphCache), and sends each job's
/// [`VerdictReport`] back through its [`JobHandle`].
///
/// Dropping the service closes the queue and joins the workers; jobs
/// already queued are still processed first.
///
/// # Examples
///
/// ```
/// use icstar_logic::parse_state;
/// use icstar_serve::{VerifyJob, VerifyService};
/// use icstar_sym::mutex_template;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = VerifyService::with_defaults();
/// let job = VerifyJob::new(mutex_template())
///     .at_sizes([10, 100])
///     .formula("mutex", parse_state("AG !crit_ge2")?);
/// // Two submissions of the same family: the second is served from cache.
/// let a = service.submit(job.clone());
/// let b = service.submit(job);
/// assert!(a.wait()?.all_hold());
/// assert!(b.wait()?.all_hold());
/// assert!(service.stats().cache_hits > 0);
/// # Ok(())
/// # }
/// ```
pub struct VerifyService {
    /// `Some` until shutdown; dropping it closes the queue.
    tx: Option<mpsc::Sender<QueuedJob>>,
    workers: Vec<JoinHandle<()>>,
    inner: Arc<Inner>,
    next_id: AtomicU64,
}

impl VerifyService {
    /// Starts the worker pool described by `config`.
    pub fn start(config: ServeConfig) -> Self {
        let (tx, rx) = mpsc::channel::<QueuedJob>();
        let rx = Arc::new(Mutex::new(rx));
        let store = config
            .cache_dir
            .as_ref()
            .and_then(|dir| crate::SpillStore::open(dir).ok());
        let cache = GraphCache::with_store(config.cache_shards, config.cache_budget_states, store);
        cache.publish_metrics(&config.telemetry);
        let stats = ServiceStats::register(&config.telemetry);
        stats.workers_total.set(config.workers.max(1) as i64);
        let inner = Arc::new(Inner {
            cache,
            certs: CertStore::default(),
            stats,
            config: config.clone(),
            notify: Mutex::new(None),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("icstar-serve-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only while waiting; release
                        // before processing so peers can pick up work.
                        let msg = { rx.lock().expect("queue poisoned").recv() };
                        match msg {
                            Ok(q) => {
                                let QueuedJob {
                                    id,
                                    job,
                                    reply,
                                    mut queue_wait,
                                    mut root,
                                } = q;
                                let worker = i as u32;
                                inner.stats.queue_depth.dec();
                                queue_wait.set_tid(worker);
                                drop(queue_wait);
                                root.set_tid(worker);
                                let ctx = root.context();
                                inner.stats.workers_busy.inc();
                                // Isolate panics: a pathological job must
                                // not shrink the pool (each dead worker
                                // would be one forever, until every
                                // submission reports JobLost). All shared
                                // state is atomics + the build-once cache,
                                // which tolerates an abandoned build, so
                                // unwinding past it is safe.
                                let report =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        process(&inner, id, job, ctx, worker)
                                    }));
                                inner.stats.workers_busy.dec();
                                // The root `job` span is recorded even for
                                // a panicked job — its trace is often the
                                // only evidence of what the job was doing.
                                let outcome = if report.is_ok() { "ok" } else { "panicked" };
                                root.attr("id", id.to_string());
                                root.attr("outcome", outcome);
                                let total = root.finish();
                                if let Ok(report) = report {
                                    inner.stats.jobs_completed.inc();
                                    inner.stats.total_ns.record_duration(total);
                                    // The caller may have dropped its
                                    // handle; the work still counts.
                                    let _ = reply.send(report);
                                } else {
                                    // On panic the reply sender must drop
                                    // *before* the notification below, so
                                    // a woken waiter's try_wait sees the
                                    // loss, not an empty channel.
                                    drop(reply);
                                }
                                // Announce completion last — report (or
                                // loss) first, wake-up second, so a
                                // completion-driven front-end polling on
                                // the notification always finds the
                                // outcome. Sent for every job, served or
                                // panicked.
                                let notify =
                                    inner.notify.lock().expect("notifier poisoned").clone();
                                if let Some(notify) = notify {
                                    let _ = notify.send(id);
                                }
                                // On panic the job's handle reports
                                // JobLost; its latency is deliberately
                                // not recorded (the phase histograms
                                // describe served jobs).
                            }
                            Err(_) => break, // queue closed: shut down
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        VerifyService {
            tx: Some(tx),
            workers,
            inner,
            next_id: AtomicU64::new(0),
        }
    }

    /// Starts a service with [`ServeConfig::default`].
    pub fn with_defaults() -> Self {
        Self::start(ServeConfig::default())
    }

    /// Enqueues a job and returns the handle its report will arrive on.
    /// Never blocks on the workers. The job records its spans under a
    /// freshly minted trace (see [`JobHandle::trace`]); use
    /// [`submit_traced`](VerifyService::submit_traced) to join a trace
    /// the caller already owns.
    pub fn submit(&self, job: VerifyJob) -> JobHandle {
        self.submit_traced(job, None)
    }

    /// Like [`submit`](VerifyService::submit), but records the job's
    /// spans under `trace` when one is given — the propagation point for
    /// a caller (e.g. the wire server) whose own spans should parent the
    /// job's in one causal tree. With `None` a fresh trace is minted.
    pub fn submit_traced(&self, job: VerifyJob, trace: Option<TraceId>) -> JobHandle {
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (reply, rx) = mpsc::channel();
        self.inner.stats.jobs_submitted.inc();
        self.inner.stats.queue_depth.inc();
        let recorder = &self.inner.config.recorder;
        let trace = trace.unwrap_or_else(|| recorder.new_trace());
        // Both spans start now and end on a worker thread, so neither
        // joins this thread's nesting stack.
        let root = recorder.scope_detached(trace, None, "job");
        let mut queue_wait =
            recorder.scope_detached(trace, Some(root.context().span), "queue_wait");
        queue_wait.set_histogram(self.inner.stats.queue_wait_ns.clone());
        let queued = QueuedJob {
            id,
            job,
            reply,
            queue_wait,
            root,
        };
        if let Some(tx) = &self.tx {
            // Failure means every worker has died; the handle will then
            // report `JobLost`, and the job never waited or ran.
            if let Err(mpsc::SendError(lost)) = tx.send(queued) {
                lost.queue_wait.cancel();
                lost.root.cancel();
            }
        }
        JobHandle { id, trace, rx }
    }

    /// Registers where workers announce finished job ids: after a job's
    /// report is delivered (or its worker panicked and the handle will
    /// report loss), its id is sent on `tx`. One notifier per service —
    /// registering again replaces the previous one. The send happens
    /// strictly *after* the outcome is observable through the job's
    /// handle, so a completion-driven caller (the wire server's event
    /// loop) can `try_wait` on notification without a lost-wakeup race.
    pub fn set_completion_notifier(&self, tx: mpsc::Sender<u64>) {
        *self.inner.notify.lock().expect("notifier poisoned") = Some(tx);
    }

    /// A point-in-time view of the service counters. Reads the same
    /// registry handles [`VerifyService::telemetry_snapshot`] exports —
    /// the flat snapshot is a stable legacy view, not a second ledger.
    ///
    /// `jobs_completed` is read before `jobs_submitted`: both only grow
    /// and a job is submitted before it completes, so a job submitted and
    /// finished between the two reads cannot make `jobs_completed`
    /// exceed `jobs_submitted`.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.inner.stats;
        let total = s.total_ns.snapshot();
        let jobs_completed = s.jobs_completed.get();
        StatsSnapshot {
            jobs_submitted: s.jobs_submitted.get(),
            jobs_completed,
            formulas_checked: s.formulas_checked.get(),
            cache_hits: self.inner.cache.hits(),
            cache_misses: self.inner.cache.misses(),
            cached_structures: self.inner.cache.len() as u64,
            cached_abstract_states: self.inner.cache.abstract_states(),
            cache_evictions: self.inner.cache.evictions(),
            evicted_abstract_states: self.inner.cache.evicted_states(),
            sharded_explorations: s.sharded_explorations.get(),
            cutoffs_certified: s.cutoffs_certified.get(),
            cutoff_answers: s.cutoff_answers.get(),
            p50_total_ns: total.p50(),
            p99_total_ns: total.p99(),
        }
    }

    /// The registry this service publishes its metrics into (the one
    /// from [`ServeConfig::telemetry`]).
    pub fn telemetry(&self) -> &Registry {
        &self.inner.config.telemetry
    }

    /// The flight recorder this service's jobs record into (the one from
    /// [`ServeConfig::recorder`]) — read a job's causal tree with
    /// [`FlightRecorder::spans_for`] on [`JobHandle::trace`].
    pub fn recorder(&self) -> &FlightRecorder {
        &self.inner.config.recorder
    }

    /// A coherent snapshot of every registered metric, with the cache
    /// occupancy gauges (`serve.cache.structures`,
    /// `serve.cache.abstract_states`) refreshed first — occupancy is a
    /// property of the cache's maps, not an event stream, so it is
    /// sampled here rather than maintained on the hot path.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let registry = &self.inner.config.telemetry;
        registry
            .gauge("serve.cache.structures")
            .set(self.inner.cache.len() as i64);
        registry
            .gauge("serve.cache.abstract_states")
            .set(self.inner.cache.abstract_states().min(i64::MAX as u64) as i64);
        // Same reasoning for the flight recorder's occupancy gauge
        // (`telemetry.trace.retained`, plus adopting the dropped
        // counter): sampled at snapshot time, not maintained per record.
        self.inner.config.recorder.publish_metrics(registry);
        registry.snapshot()
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Closes the queue, drains queued jobs, and joins the workers.
    /// Equivalent to dropping the service, but explicit.
    pub fn shutdown(self) {}
}

impl Drop for VerifyService {
    fn drop(&mut self) {
        self.tx = None; // close the queue: workers exit after draining
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Closes a `cache_lookup` span, tagging its outcome and filing its
/// duration under `serve.cache.miss_ns` if *this* fetch ran the build,
/// `serve.cache.hit_ns` otherwise. An in-flight wait (the builder is a
/// peer) counts as a hit — an honest, slow one; the tail of
/// `serve.cache.hit_ns` is contention, not lookup cost. Returns the
/// duration for the job's `serve.job.build_ns` total.
fn finish_lookup(mut lookup: TraceScope, built: bool, stats: &ServiceStats) -> Duration {
    let (outcome, histogram) = if built {
        ("miss", &stats.cache_miss_ns)
    } else {
        ("hit", &stats.cache_hit_ns)
    };
    lookup.attr("outcome", outcome);
    lookup.set_histogram(histogram.clone());
    lookup.finish()
}

/// Runs one job: for every size, fetch-or-build the needed structures
/// through the cache — the counter graph, plus one representative
/// structure per distinct width the job's formulas require — then check
/// every formula on a session seeded with them.
///
/// Every phase records a span under the job's `root` context —
/// `cache_lookup` (with its hit/miss outcome), `build` (only when this
/// worker actually materialized; under it, the sharded exploration's
/// `shard[i]` spans), and `check` — all on the flight recorder, tagged
/// with this worker's index as the Chrome-trace lane. The per-job phase
/// histograms (`serve.job.build_ns` / `serve.job.check_ns`, one sample
/// per job) are the sums of the `cache_lookup` and `check` spans'
/// durations.
fn process(
    inner: &Inner,
    id: u64,
    job: VerifyJob,
    root: SpanContext,
    worker: u32,
) -> VerdictReport {
    let VerifyJob {
        template,
        spec,
        sizes,
        all_from,
        formulas,
    } = job;
    let spec = spec.unwrap_or_else(|| CountingSpec::standard(&template));
    let engine =
        SymEngine::with_spec(template, spec).with_telemetry(inner.config.telemetry.clone());
    // Encoded once: every cache and certificate lookup of the job keys
    // on these bytes.
    let workload = Workload::of(engine.template(), engine.spec());
    let mut build_time = Duration::ZERO;
    let mut check_time = Duration::ZERO;

    // Certificates previously paid for (by an unbounded job on the same
    // workload and formula) answer bounded sizes for free. Lookup only:
    // a plain `sizes` job never triggers the certification scan itself.
    let cached_certs: Vec<Option<icstar_sym::CutoffCertificate>> = formulas
        .iter()
        .map(|(_, f)| inner.certs.cached(&workload, f).and_then(Result::ok))
        .collect();

    let recorder = &inner.config.recorder;
    let mut verdicts = Vec::with_capacity(sizes.len() * formulas.len());
    for &n in &sizes {
        // Which formulas this size answers from a certificate — those
        // need no structures at all.
        let certified: Vec<bool> = cached_certs
            .iter()
            .map(|c| c.as_ref().is_some_and(|c| c.covers(n)))
            .collect();
        let any_counting = formulas
            .iter()
            .zip(&certified)
            .any(|((_, f), &done)| !done && !has_index_quantifier(f));
        let any_indexed = formulas
            .iter()
            .zip(&certified)
            .any(|((_, f), &done)| !done && has_index_quantifier(f));
        let mut session = engine.session(n);
        // Indexed formulas at n = 0 expand over the empty index set and
        // fall back to the counter structure, so it is needed then too.
        if any_counting || (any_indexed && n == 0) {
            let mut lookup = recorder.scope_under(root, "cache_lookup");
            lookup.set_tid(worker);
            lookup.attr("kind", "counter");
            lookup.attr("n", n.to_string());
            let built = Cell::new(false);
            let graph =
                inner
                    .cache
                    .counter_for(&workload, engine.template(), engine.spec(), n, || {
                        built.set(true);
                        materialize(inner, &engine, n, root, worker)
                    });
            build_time += finish_lookup(lookup, built.get(), &inner.stats);
            session.seed_counter(graph);
        }
        if any_indexed && n > 0 {
            // The distinct representative widths this job needs at this
            // size (formulas outside the k-restricted fragment report
            // their error at check time instead).
            let mut widths: Vec<u32> = formulas
                .iter()
                .zip(&certified)
                .filter(|(_, &done)| !done)
                .filter_map(|((_, f), _)| required_rep_width(f, n).ok())
                .filter(|&w| w > 0)
                .collect();
            widths.sort_unstable();
            widths.dedup();
            for width in widths {
                let mut lookup = recorder.scope_under(root, "cache_lookup");
                lookup.set_tid(worker);
                lookup.attr("kind", "representative");
                lookup.attr("n", n.to_string());
                lookup.attr("width", width.to_string());
                let built = Cell::new(false);
                let rep = inner.cache.representative_for(
                    &workload,
                    engine.template(),
                    engine.spec(),
                    n,
                    width,
                    || {
                        built.set(true);
                        let mut build = recorder.scope_under(root, "build");
                        build.set_tid(worker);
                        build.attr("kind", "representative");
                        build.attr("n", n.to_string());
                        build.attr("width", width.to_string());
                        let rep = engine.representative_graph(n, width);
                        if let Ok(rep) = &rep {
                            size_attrs(&mut build, rep.kripke.kripke());
                        }
                        rep
                    },
                );
                build_time += finish_lookup(lookup, built.get(), &inner.stats);
                if let Ok(rep) = rep {
                    session.seed_representative(width, rep);
                }
                // On error the session is left unseeded: each indexed
                // check reproduces the build error as its verdict.
            }
        }
        let mut check = recorder.scope_under(root, "check");
        check.set_tid(worker);
        check.attr("n", n.to_string());
        check.attr("formulas", formulas.len().to_string());
        for (i, (name, f)) in formulas.iter().enumerate() {
            inner.stats.formulas_checked.inc();
            if certified[i] {
                // O(1): the certificate's stabilized verdict covers n.
                let cert = cached_certs[i].as_ref().expect("certified flag");
                inner.stats.cutoff_answers.inc();
                verdicts.push(JobVerdict {
                    name: name.clone(),
                    n,
                    result: Ok(cert.holds),
                    rep_width: cert.rep_width,
                    fair: false,
                    cutoff: Some(cert.c),
                });
                continue;
            }
            verdicts.push(direct_verdict(inner, &mut session, n, name, f));
        }
        check_time += check.finish();
    }
    if let Some(lo) = all_from {
        process_unbounded(
            inner,
            &workload,
            &engine,
            lo,
            &formulas,
            root,
            worker,
            &mut check_time,
            &mut verdicts,
        );
    }
    inner.stats.build_ns.record_duration(build_time);
    inner.stats.check_ns.record_duration(check_time);
    VerdictReport {
        job_id: id,
        verdicts,
    }
}

/// Answers the unbounded (`all_from`) tail of a job: per formula,
/// certify a cutoff `c` (or reuse the cached outcome), report direct
/// verdicts for the finitely many sizes `lo ≤ n < c`, then one
/// certificate-backed verdict at `max(lo, c)` that covers every larger
/// size (its [`JobVerdict::cutoff`] field carries `c`). A refused
/// formula reports a single [`SymError::CutoffRefused`] verdict at
/// `lo`.
///
/// The below-cutoff sizes are checked on plain sessions rather than
/// through the graph cache: they are bounded by the certification
/// horizon (a handful of structures with tens of states), and polluting
/// the cache's LRU with them would evict real workloads.
#[allow(clippy::too_many_arguments)]
fn process_unbounded(
    inner: &Inner,
    workload: &Workload,
    engine: &SymEngine,
    lo: u32,
    formulas: &[(String, StateFormula)],
    root: SpanContext,
    worker: u32,
    check_time: &mut Duration,
    verdicts: &mut Vec<JobVerdict>,
) {
    let recorder = &inner.config.recorder;
    for (i, (name, f)) in formulas.iter().enumerate() {
        let mut certify = recorder.scope_under(root, "certify");
        certify.set_tid(worker);
        certify.attr("formula", i.to_string());
        let outcome = inner
            .certs
            .get_or_certify(workload, engine, f, &inner.stats);
        certify.attr(
            "outcome",
            if outcome.is_ok() {
                "certified"
            } else {
                "refused"
            },
        );
        drop(certify);
        match outcome {
            Ok(cert) => {
                // Sizes below the cutoff are checked directly, under one
                // `check` span per formula.
                if lo < cert.c {
                    let mut check = recorder.scope_under(root, "check");
                    check.set_tid(worker);
                    check.attr("formula", i.to_string());
                    check.attr("n", format!("{lo}..{}", cert.c));
                    for n in lo..cert.c {
                        inner.stats.formulas_checked.inc();
                        verdicts.push(direct_verdict(inner, &mut engine.session(n), n, name, f));
                    }
                    *check_time += check.finish();
                }
                inner.stats.formulas_checked.inc();
                inner.stats.cutoff_answers.inc();
                verdicts.push(JobVerdict {
                    name: name.clone(),
                    n: lo.max(cert.c),
                    result: Ok(cert.holds),
                    rep_width: cert.rep_width,
                    fair: false,
                    cutoff: Some(cert.c),
                });
            }
            Err(msg) => {
                inner.stats.formulas_checked.inc();
                inner.stats.verdict_errors.inc();
                verdicts.push(JobVerdict {
                    name: name.clone(),
                    n: lo,
                    result: Err(icstar_sym::SymError::CutoffRefused(msg)),
                    rep_width: 0,
                    fair: false,
                    cutoff: None,
                });
            }
        }
    }
}

/// Checks `f` on `session` and reports the verdict; an error becomes the
/// verdict (and counts in `serve.verdicts.errors`).
fn direct_verdict(
    inner: &Inner,
    session: &mut SymSession<'_>,
    n: u32,
    name: &str,
    f: &StateFormula,
) -> JobVerdict {
    let (result, rep_width, fair) = match session.check_described(f) {
        Ok(run) => (Ok(run.holds), run.rep_width, run.fair),
        Err(e) => {
            inner.stats.verdict_errors.inc();
            (Err(e), 0, false)
        }
    };
    JobVerdict {
        name: name.to_owned(),
        n,
        result,
        rep_width,
        fair,
        cutoff: None,
    }
}

/// Builds the counter graph bundle (structure + compiled fairness) for
/// the cache: sharded exploration for large families, sequential BFS for
/// small ones. The `build` span it records under `root` parents the
/// exploration's `shard[i]` spans when the sharded path runs, so the
/// trace shows exactly which worker paid for the materialization and how
/// the shards split it.
fn materialize(
    inner: &Inner,
    engine: &SymEngine,
    n: u32,
    root: SpanContext,
    worker: u32,
) -> CounterGraph {
    let recorder = &inner.config.recorder;
    let mut build = recorder.scope_under(root, "build");
    build.set_tid(worker);
    build.attr("kind", "counter");
    build.attr("n", n.to_string());
    let graph = if n >= inner.config.sharded_threshold {
        inner.stats.sharded_explorations.inc();
        build.attr("mode", "sharded");
        engine.counter_graph_sharded_traced(
            n,
            inner.config.exploration_shards,
            Some((recorder.clone(), build.context())),
        )
    } else {
        build.attr("mode", "sequential");
        engine.counter_graph(n)
    };
    size_attrs(&mut build, &graph.kripke);
    graph
}

/// Records a built structure's size on its `build` span.
fn size_attrs(build: &mut TraceScope, kripke: &Kripke) {
    build.attr("states", kripke.num_states().to_string());
    build.attr("edges", kripke.num_transitions().to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_logic::parse_state;
    use icstar_sym::{mutex_template, ring_station_template, SymError};

    fn small_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            cache_shards: 4,
            exploration_shards: 2,
            sharded_threshold: 1_000_000, // keep unit tests sequential
            cache_budget_states: u64::MAX,
            telemetry: Registry::new(), // isolated: exact counts below
            recorder: FlightRecorder::new(),
            cache_dir: None,
        }
    }

    #[test]
    fn end_to_end_verdicts_and_cache_sharing() {
        let service = VerifyService::start(small_config());
        let job = VerifyJob::new(mutex_template())
            .at_sizes([5, 10])
            .formula("mutex", parse_state("AG !crit_ge2").unwrap())
            .formula(
                "access",
                parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
            );
        let first = service.submit(job.clone()).wait().unwrap();
        assert_eq!(first.verdicts.len(), 4);
        assert!(first.all_hold());

        let second = service.submit(job).wait().unwrap();
        assert!(second.all_hold());

        let stats = service.stats();
        assert_eq!(stats.jobs_submitted, 2);
        assert_eq!(stats.jobs_completed, 2);
        assert_eq!(stats.formulas_checked, 8);
        // Second job's 2 sizes × (counter + representative) all hit.
        assert_eq!(stats.cache_misses, 4);
        assert_eq!(stats.cache_hits, 4);
        assert!(stats.hit_rate() > 0.0);
        assert_eq!(stats.cached_structures, 4);
        assert!(stats.cached_abstract_states > 0);
    }

    #[test]
    fn fair_jobs_check_fair_paths_and_report_it() {
        // A template with a weak-fairness declaration routes its checks
        // through the fair checker: stuttered liveness that fails on the
        // unconstrained twin holds, and every verdict carries fair: true.
        use icstar_sym::GuardedBuilder;
        let stutter = |fair: bool| {
            let mut b = GuardedBuilder::new();
            let idle = b.state("idle", ["idle"]);
            let done = b.state("done", ["done"]);
            b.edge(idle, idle);
            b.edge(idle, done);
            b.edge(done, done);
            if fair {
                b.fair("exit", [(idle, done)]);
            }
            b.build(idle)
        };
        let service = VerifyService::start(small_config());
        let report = service
            .submit(
                VerifyJob::new(stutter(true))
                    .at_sizes([1, 5, 40])
                    .formula("drain", parse_state("AF idle_eq0").unwrap())
                    .formula("each exits", parse_state("forall i. AF done[i]").unwrap()),
            )
            .wait()
            .unwrap();
        assert!(report.all_hold());
        assert!(report.verdicts.iter().all(|v| v.fair));
        // The indexed formula still routes through a width-1
        // representative bundle.
        let widths: Vec<u32> = report.at_size(5).map(|v| v.rep_width).collect();
        assert_eq!(widths, vec![0, 1]);

        // The unconstrained twin fails the same liveness (a run may
        // stutter in idle forever) and reports fair: false.
        let report = service
            .submit(
                VerifyJob::new(stutter(false))
                    .at_size(5)
                    .formula("drain", parse_state("AF idle_eq0").unwrap()),
            )
            .wait()
            .unwrap();
        assert_eq!(report.verdicts[0].result, Ok(false));
        assert!(!report.verdicts[0].fair);
    }

    #[test]
    fn nested_formulas_get_their_own_width_and_cache_entry() {
        let service = VerifyService::start(small_config());
        let job = VerifyJob::new(mutex_template())
            .at_size(6)
            .formula(
                "depth1",
                parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
            )
            .formula(
                "depth2",
                parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap(),
            );
        let report = service.submit(job.clone()).wait().unwrap();
        assert!(report.all_hold());
        assert_eq!(report.verdicts[0].rep_width, 1);
        assert_eq!(report.verdicts[1].rep_width, 2);
        // Two rep structures (widths 1 and 2) were cached; resubmitting
        // hits both.
        let misses = service.stats().cache_misses;
        assert_eq!(misses, 2);
        service.submit(job).wait().unwrap();
        assert_eq!(service.stats().cache_misses, misses);
        assert_eq!(service.stats().cache_hits, 2);
    }

    #[test]
    fn eviction_counters_flow_into_the_snapshot() {
        let service = VerifyService::start(ServeConfig {
            cache_budget_states: 30,
            ..small_config()
        });
        for n in [10u32, 12, 14] {
            service
                .submit(
                    VerifyJob::new(mutex_template())
                        .at_size(n)
                        .formula("m", parse_state("AG !crit_ge2").unwrap()),
                )
                .wait()
                .unwrap();
        }
        let stats = service.stats();
        assert!(stats.cache_evictions > 0);
        assert!(stats.evicted_abstract_states > 0);
        assert!(stats.cached_abstract_states <= 30 + (2 * 14 + 1));
    }

    #[test]
    fn verdict_errors_are_reported_not_fatal() {
        let service = VerifyService::start(small_config());
        let report = service
            .submit(
                VerifyJob::new(mutex_template())
                    .at_size(3)
                    .formula("bogus", parse_state("AG bogus").unwrap())
                    .formula("fine", parse_state("AG !crit_ge2").unwrap()),
            )
            .wait()
            .unwrap();
        assert!(matches!(
            report.verdicts[0].result,
            Err(SymError::UnknownAtom(_))
        ));
        assert_eq!(report.verdicts[1].result, Ok(true));
    }

    #[test]
    fn n_zero_indexed_formulas_served() {
        let service = VerifyService::start(small_config());
        let report = service
            .submit(
                VerifyJob::new(mutex_template())
                    .at_size(0)
                    .formula("empty forall", parse_state("forall i. AG crit[i]").unwrap())
                    .formula("empty exists", parse_state("exists i. EF crit[i]").unwrap()),
            )
            .wait()
            .unwrap();
        assert_eq!(report.verdicts[0].result, Ok(true));
        assert_eq!(report.verdicts[1].result, Ok(false));
    }

    #[test]
    fn distinct_templates_do_not_collide() {
        let service = VerifyService::start(small_config());
        // Same sizes, different templates: no false sharing.
        let a = service.submit(
            VerifyJob::new(mutex_template())
                .at_size(4)
                .formula("m", parse_state("AG !crit_ge2").unwrap()),
        );
        let b = service.submit(
            VerifyJob::new(ring_station_template(3, 1))
                .at_size(4)
                .formula("cap", parse_state("AG !s1_ge2").unwrap()),
        );
        assert!(a.wait().unwrap().all_hold());
        assert!(b.wait().unwrap().all_hold());
        assert_eq!(service.stats().cache_hits, 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let service = VerifyService::start(ServeConfig {
            workers: 1,
            ..small_config()
        });
        let handles: Vec<_> = (0..6)
            .map(|i| {
                service.submit(
                    VerifyJob::new(mutex_template())
                        .at_size(3 + i)
                        .formula("m", parse_state("AG !crit_ge2").unwrap()),
                )
            })
            .collect();
        service.shutdown();
        for h in handles {
            assert!(h.wait().unwrap().all_hold());
        }
    }

    #[test]
    fn try_wait_reports_pending_then_ready() {
        let service = VerifyService::start(small_config());
        let h = service.submit(
            VerifyJob::new(mutex_template())
                .at_size(30)
                .formula("m", parse_state("AG !crit_ge2").unwrap()),
        );
        // Poll until the report lands; `Ok(None)` means still in flight,
        // an error would mean the job was lost.
        loop {
            match h.try_wait() {
                Ok(Some(report)) => {
                    assert!(report.all_hold());
                    break;
                }
                Ok(None) => std::thread::yield_now(),
                Err(e) => panic!("job lost: {e}"),
            }
        }
    }

    #[test]
    fn below_cutoff_checks_of_an_unbounded_job_are_check_spans() {
        let service = VerifyService::start(small_config());
        let h = service.submit(
            VerifyJob::new(mutex_template())
                .all_sizes_from(1)
                .formula("mutex", parse_state("AG !crit_ge2").unwrap()),
        );
        let trace = h.trace;
        let report = h.wait().unwrap();
        let cutoff = report.verdicts.last().unwrap().cutoff.expect("certified");
        assert!(cutoff > 1, "some size lies below the cutoff");
        let spans = service.recorder().spans_for(trace);
        let root = spans.iter().find(|s| s.name == "job").unwrap();
        let checks: Vec<_> = spans.iter().filter(|s| s.name == "check").collect();
        assert_eq!(checks.len(), 1, "one check span per formula");
        assert_eq!(checks[0].parent, Some(root.id));
        let attr = |k: &str| {
            checks[0]
                .attrs
                .iter()
                .find(|(a, _)| a == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(attr("formula").as_deref(), Some("0"));
        assert_eq!(attr("n"), Some(format!("1..{cutoff}")));
        // serve.job.check_ns is exactly the sum of the job's check spans.
        let check_ns = service.telemetry_snapshot();
        let check_ns = check_ns.histogram("serve.job.check_ns").unwrap();
        assert_eq!(check_ns.count, 1);
        assert_eq!(check_ns.sum, checks.iter().map(|s| s.dur_ns).sum::<u64>());
    }

    #[test]
    fn telemetry_snapshot_mirrors_stats_and_times_phases() {
        let service = VerifyService::start(small_config());
        let job = VerifyJob::new(mutex_template())
            .at_sizes([4, 8])
            .formula("mutex", parse_state("AG !crit_ge2").unwrap())
            .formula(
                "access",
                parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
            );
        service.submit(job.clone()).wait().unwrap();
        service.submit(job).wait().unwrap();

        let stats = service.stats();
        let snap = service.telemetry_snapshot();
        // One ledger: the registry view and the flat snapshot agree.
        assert_eq!(snap.counter("serve.jobs.submitted"), Some(2));
        assert_eq!(snap.counter("serve.jobs.completed"), Some(2));
        assert_eq!(
            snap.counter("serve.formulas.checked"),
            Some(stats.formulas_checked)
        );
        assert_eq!(snap.counter("serve.cache.hits"), Some(stats.cache_hits));
        assert_eq!(snap.counter("serve.cache.misses"), Some(stats.cache_misses));
        assert_eq!(
            snap.gauge("serve.cache.structures"),
            Some(stats.cached_structures as i64)
        );
        assert_eq!(
            snap.gauge("serve.cache.abstract_states"),
            Some(stats.cached_abstract_states as i64)
        );
        // Phase histograms: one sample per job, every phase covered,
        // and per job queue wait ≤ total latency.
        for name in [
            "serve.job.queue_wait_ns",
            "serve.job.build_ns",
            "serve.job.check_ns",
            "serve.job.total_ns",
        ] {
            assert_eq!(snap.histogram(name).map(|h| h.count), Some(2), "{name}");
        }
        let queue = snap.histogram("serve.job.queue_wait_ns").unwrap();
        let total = snap.histogram("serve.job.total_ns").unwrap();
        assert!(queue.sum <= total.sum, "queue wait is part of total");
        // Cache fetch latency is filed under exactly one of hit/miss.
        let hit = snap.histogram("serve.cache.hit_ns").unwrap();
        let miss = snap.histogram("serve.cache.miss_ns").unwrap();
        assert_eq!(hit.count, stats.cache_hits);
        assert_eq!(miss.count, stats.cache_misses);
        // The workers' engines report into the same registry (2 counter
        // structures were materialized; rep builds may add more).
        assert!(snap.counter("sym.explore.builds").unwrap() >= 2);
        assert!(snap.counter("sym.explore.states").unwrap() > 0);
        // Pool gauges: sized at start, idle after the jobs drained.
        assert_eq!(snap.gauge("serve.workers.total"), Some(2));
        assert_eq!(snap.gauge("serve.queue.depth"), Some(0));
        // The snapshot's quantiles come from the same histogram the
        // registry exports — STATS, HEALTH, and METRICS must agree.
        let total_hist = snap.histogram("serve.job.total_ns").unwrap();
        assert_eq!(stats.p50_total_ns, total_hist.p50());
        assert_eq!(stats.p99_total_ns, total_hist.p99());
        assert!(stats.p50_total_ns > 0);
        assert!(stats.p50_total_ns <= stats.p99_total_ns);
        // The flight recorder publishes into the snapshot too.
        assert_eq!(snap.counter("telemetry.trace.dropped"), Some(0));
        assert!(snap.gauge("telemetry.trace.retained").unwrap() > 0);
    }

    #[test]
    fn jobs_record_a_causal_span_tree() {
        let config = small_config();
        let recorder = config.recorder.clone();
        let service = VerifyService::start(config);
        let job = VerifyJob::new(mutex_template())
            .at_size(5)
            .formula("m", parse_state("AG !crit_ge2").unwrap())
            .formula(
                "live",
                parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
            );
        let h = service.submit(job.clone());
        let trace = h.trace;
        h.wait().unwrap();

        let spans = recorder.spans_for(trace);
        // Each build span carries the size of the structure it built.
        let engine = icstar_sym::SymEngine::new(mutex_template());
        let rep = engine.representative_structure(5, 1).unwrap();
        for (kind, k) in [
            ("counter", &engine.counter_structure(5)),
            ("representative", rep.kripke()),
        ] {
            let build = spans
                .iter()
                .find(|s| {
                    s.name == "build" && s.attrs.iter().any(|(a, v)| a == "kind" && v == kind)
                })
                .unwrap_or_else(|| panic!("no {kind} build span in {spans:?}"));
            let attr = |name: &str| {
                build
                    .attrs
                    .iter()
                    .find(|(a, _)| a == name)
                    .map(|(_, v)| v.clone())
            };
            assert_eq!(attr("states"), Some(k.num_states().to_string()), "{kind}");
            assert_eq!(
                attr("edges"),
                Some(k.num_transitions().to_string()),
                "{kind}"
            );
        }
        let root = spans.iter().find(|s| s.name == "job").expect("job root");
        assert!(root.parent.is_none());
        assert!(root.attrs.iter().any(|(k, v)| k == "outcome" && v == "ok"));
        for name in ["queue_wait", "cache_lookup", "build", "check"] {
            let s = spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("no {name} span in {spans:?}"));
            assert_eq!(s.parent, Some(root.id), "{name} hangs off the job root");
            assert!(s.dur_ns <= root.dur_ns, "{name} fits inside the job");
        }
        let lookup = spans.iter().find(|s| s.name == "cache_lookup").unwrap();
        assert!(lookup
            .attrs
            .iter()
            .any(|(k, v)| k == "outcome" && v == "miss"));

        // Resubmission is served from cache: its trace has a hit
        // lookup and no build span.
        let h = service.submit(job);
        let trace = h.trace;
        h.wait().unwrap();
        let spans = recorder.spans_for(trace);
        let lookup = spans.iter().find(|s| s.name == "cache_lookup").unwrap();
        assert!(lookup
            .attrs
            .iter()
            .any(|(k, v)| k == "outcome" && v == "hit"));
        assert!(!spans.iter().any(|s| s.name == "build"));
    }

    #[test]
    fn cache_lookup_spans_are_the_hit_and_miss_samples() {
        let config = small_config();
        let recorder = config.recorder.clone();
        let service = VerifyService::start(config);
        let job = VerifyJob::new(mutex_template())
            .at_size(6)
            .formula("m", parse_state("AG !crit_ge2").unwrap());
        let mut lookups = Vec::new();
        for _ in 0..2 {
            let h = service.submit(job.clone());
            let trace = h.trace;
            h.wait().unwrap();
            let spans = recorder.spans_for(trace);
            let lookup: Vec<_> = spans.iter().filter(|s| s.name == "cache_lookup").collect();
            assert_eq!(lookup.len(), 1, "one structure fetched per job");
            lookups.push(lookup[0].clone());
        }
        let snap = service.telemetry_snapshot();
        // First fetch materialized, second was served: one sample each,
        // and each sample is the matching span's own duration.
        for (lookup, outcome) in lookups.iter().zip(["miss", "hit"]) {
            assert!(
                lookup
                    .attrs
                    .iter()
                    .any(|(k, v)| k == "outcome" && v == outcome),
                "{lookup:?}"
            );
            let h = snap
                .histogram(&format!("serve.cache.{outcome}_ns"))
                .unwrap();
            assert_eq!(h.count, 1, "{outcome}");
            assert_eq!(h.sum, lookup.dur_ns, "{outcome}");
        }
        // A single-size job's build total is its one lookup.
        let build = snap.histogram("serve.job.build_ns").unwrap();
        assert_eq!(build.sum, lookups[0].dur_ns + lookups[1].dur_ns);
    }

    #[test]
    fn submit_traced_joins_the_callers_trace() {
        let config = small_config();
        let recorder = config.recorder.clone();
        let service = VerifyService::start(config);
        let trace = recorder.new_trace();
        let h = service.submit_traced(
            VerifyJob::new(mutex_template())
                .at_size(3)
                .formula("m", parse_state("AG !crit_ge2").unwrap()),
            Some(trace),
        );
        assert_eq!(h.trace, trace, "the handle advertises the joined trace");
        h.wait().unwrap();
        assert!(
            recorder.spans_for(trace).iter().any(|s| s.name == "job"),
            "the job's spans landed in the caller's trace"
        );
    }

    #[test]
    fn sharded_builds_hang_shard_spans_under_the_build_span() {
        // Force the sharded path for a small family.
        let config = ServeConfig {
            sharded_threshold: 1,
            ..small_config()
        };
        let recorder = config.recorder.clone();
        let service = VerifyService::start(config);
        let h = service.submit(
            VerifyJob::new(mutex_template())
                .at_size(12)
                .formula("m", parse_state("AG !crit_ge2").unwrap()),
        );
        let trace = h.trace;
        h.wait().unwrap();
        let spans = recorder.spans_for(trace);
        let build = spans.iter().find(|s| s.name == "build").expect("build");
        assert!(build
            .attrs
            .iter()
            .any(|(k, v)| k == "mode" && v == "sharded"));
        let shards: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("shard["))
            .collect();
        assert_eq!(shards.len(), 2, "one span per exploration shard");
        for s in &shards {
            assert_eq!(s.parent, Some(build.id), "shards belong to the build");
        }
    }

    #[test]
    fn verdict_errors_feed_the_error_counter() {
        let service = VerifyService::start(small_config());
        service
            .submit(
                VerifyJob::new(mutex_template())
                    .at_size(3)
                    .formula("bogus", parse_state("AG bogus").unwrap())
                    .formula("fine", parse_state("AG !crit_ge2").unwrap()),
            )
            .wait()
            .unwrap();
        let snap = service.telemetry_snapshot();
        assert_eq!(snap.counter("serve.verdicts.errors"), Some(1));
    }

    #[test]
    fn queue_depth_counts_waiting_jobs() {
        // One worker, several queued jobs: depth must reach past zero
        // while jobs wait, and return to zero once drained.
        let service = VerifyService::start(ServeConfig {
            workers: 1,
            ..small_config()
        });
        let depth = service.telemetry().gauge("serve.queue.depth");
        // Holding the notifier lock parks the worker after its first job,
        // so a descheduled submitter cannot see the queue drained early.
        let parked = service.inner.notify.lock().unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                service.submit(
                    VerifyJob::new(mutex_template())
                        .at_size(25)
                        .formula("m", parse_state("AG !crit_ge2").unwrap()),
                )
            })
            .collect();
        // 4 submissions, 1 worker: at the moment of the last submit at
        // least 4 - 1 jobs had been enqueued and at most one picked up.
        assert!(depth.get() >= 3);
        drop(parked);
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(depth.get(), 0);
        assert_eq!(service.telemetry().gauge("serve.workers.busy").get(), 0);
    }

    #[test]
    fn completion_notifier_announces_after_outcome_is_observable() {
        let service = VerifyService::start(small_config());
        let (tx, rx) = mpsc::channel();
        service.set_completion_notifier(tx);
        let h = service.submit(
            VerifyJob::new(mutex_template())
                .at_size(5)
                .formula("m", parse_state("AG !crit_ge2").unwrap()),
        );
        let id = rx.recv_timeout(Duration::from_secs(60)).expect("notified");
        assert_eq!(id, h.id);
        // The contract: by notification time the outcome is observable
        // without blocking.
        assert!(h.try_wait().unwrap().is_some());
    }

    #[test]
    fn cache_dir_warm_starts_a_restarted_service() {
        let dir = std::env::temp_dir().join(format!(
            "icstar-serve-restart-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let job = || {
            VerifyJob::new(mutex_template())
                .at_size(40)
                .formula("m", parse_state("AG !crit_ge2").unwrap())
        };
        {
            let service = VerifyService::start(ServeConfig {
                cache_dir: Some(dir.clone()),
                ..small_config()
            });
            service.submit(job()).wait().unwrap();
            let snap = service.telemetry_snapshot();
            assert_eq!(snap.counter("serve.cache.spills"), Some(1));
            assert_eq!(snap.counter("serve.cache.restores"), Some(0));
        }
        // A fresh service over the same directory — the restart — serves
        // its first job by disk restore, with no exploration at all.
        let service = VerifyService::start(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..small_config()
        });
        service.submit(job()).wait().unwrap();
        let snap = service.telemetry_snapshot();
        assert_eq!(snap.counter("serve.cache.restores"), Some(1));
        assert_eq!(snap.counter("sym.explore.builds").unwrap_or(0), 0);
        assert!(snap.gauge("serve.cache.spill_files_warm").unwrap_or(0) >= 1);
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn handle_ids_match_reports() {
        let service = VerifyService::start(small_config());
        let h = service.submit(
            VerifyJob::new(mutex_template())
                .at_size(2)
                .formula("m", parse_state("AG !crit_ge2").unwrap()),
        );
        let id = h.id;
        let report = h.wait().unwrap();
        assert_eq!(report.job_id, id);
    }
}
