//! The measured runs: a `WireServer` over
//! `VerifyService::start(ServeConfig::default())` hosted in this
//! process, driven by closed-loop `WireClient`s over TCP.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use icstar_serve::{ServeConfig, VerifyService};
use icstar_wire::{WireClient, WireReport, WireServer};

use crate::jobs::{Job, Sizes};

/// A server the benchmark hosts: the configuration a user gets, except
/// for an optional persistent cache directory.
pub fn start_server(cache_dir: Option<PathBuf>) -> WireServer {
    let config = ServeConfig {
        cache_dir,
        ..ServeConfig::default()
    };
    WireServer::bind("127.0.0.1:0", VerifyService::start(config)).expect("binding a local port")
}

/// Starts a server and waits until a client's `PING` round trip
/// succeeds: the point from which a job can be sent.
pub fn start_ready(cache_dir: Option<PathBuf>) -> WireServer {
    let server = start_server(cache_dir);
    let mut probe = WireClient::connect(server.local_addr()).expect("connecting to the server");
    probe.ping().expect("the server answers PING");
    server
}

/// Why a job counts as failed, or `Ok` when its report matches the
/// known answers.
pub fn verify(job: &Job, report: &WireReport) -> Result<(), String> {
    for c in &job.checks {
        let verdicts: Vec<_> = report
            .verdicts
            .iter()
            .filter(|v| v.name == c.name)
            .collect();
        let Some(last) = verdicts.last() else {
            return Err(format!("no verdict for {} ({})", c.name, c.formula));
        };
        for v in &verdicts {
            if v.outcome != Ok(c.expected) {
                return Err(format!(
                    "{} @ {}: got {:?}, want {} ({})",
                    c.name, v.n, v.outcome, c.expected, c.formula
                ));
            }
            if v.cutoff.is_some_and(|cut| cut > v.n) {
                return Err(format!(
                    "{} @ {}: cutoff {:?} above n",
                    c.name, v.n, v.cutoff
                ));
            }
        }
        match job.sizes {
            Sizes::One(n) => {
                if verdicts.len() != 1 || last.n != n {
                    return Err(format!("{}: want one verdict at {n}", c.name));
                }
            }
            Sizes::From(lo) => {
                if last.cutoff.is_none() || verdicts.iter().any(|v| v.n < lo) {
                    return Err(format!("{}: want a certified tail from {lo}", c.name));
                }
            }
        }
    }
    if report.verdicts.len() < job.checks.len() {
        return Err("report has too few verdicts".into());
    }
    Ok(())
}

/// One job over TCP: `SUBMIT` sent to `RESULT` parsed.
pub fn run_job(client: &mut WireClient, job: &Job) -> (Duration, Result<WireReport, String>) {
    let started = Instant::now();
    let report = client
        .submit_text(&job.text())
        .and_then(|id| client.result(id))
        .map_err(|e| e.to_string());
    (started.elapsed(), report)
}

/// What a closed loop observed.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Latencies of jobs that returned the known answer, in ms.
    pub ok_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub wall: Duration,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl LoopOutcome {
    /// Pools another loop's observations into this one.
    pub fn absorb(&mut self, other: LoopOutcome) {
        self.ok_ms.extend(other.ok_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall += other.wall;
        let room = 5usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }
}

/// Drives `jobs` through `connections` closed-loop clients: each sends
/// its next job only after the previous verdict arrived. No job is sent
/// once `deadline` has passed; jobs in flight are waited for.
pub fn closed_loop(
    addr: SocketAddr,
    jobs: &[Arc<Job>],
    connections: usize,
    deadline: Duration,
) -> LoopOutcome {
    let next = AtomicUsize::new(0);
    let outcome = Mutex::new(LoopOutcome::default());
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..connections {
            s.spawn(|| {
                let mut client = WireClient::connect(addr).expect("connecting to the server");
                loop {
                    if started.elapsed() >= deadline {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let (dt, report) = run_job(&mut client, job);
                    let verdict = report.and_then(|r| verify(job, &r));
                    let mut out = outcome.lock().expect("no client thread panics");
                    out.attempted += 1;
                    match verdict {
                        Ok(()) => out.ok_ms.push(dt.as_secs_f64() * 1e3),
                        Err(e) => {
                            out.failed += 1;
                            if out.errors.len() < 5 {
                                out.errors.push(format!("job {i}: {e}"));
                            }
                        }
                    }
                }
            });
        }
    });
    let mut out = outcome.into_inner().expect("no client thread panics");
    out.wall = started.elapsed();
    out
}

/// The `q`-quantile of `values` by the Harrell–Davis estimator: a
/// weighted mean of every order statistic, the weight of the `i`-th of
/// `n` being the Beta((n+1)q, (n+1)(1−q)) probability of the slice
/// `[(i−1)/n, i/n]`.
///
/// Cold latencies are spread thin in the tail: neighbouring ranks near
/// p90 lie 20–30% apart, so the single nearest-rank sample jumps
/// whenever two jobs swap places. Harrell–Davis averages the ranks
/// around `q` and moves smoothly instead.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let a = (n + 1) as f64 * q;
    let b = (n + 1) as f64 * (1.0 - q);
    // The Beta log-density up to its constant, shifted so its peak is 0;
    // the weights are normalised by their sum, so the constant cancels.
    let ln_pdf = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    let mode = ((a - 1.0) / (a + b - 2.0)).clamp(1e-9, 1.0 - 1e-9);
    let peak = ln_pdf(mode);
    // Midpoint rule within each slice: it never evaluates the density
    // at 0 or 1, where it is unbounded for small samples.
    const STEPS: usize = 16;
    let h = 1.0 / (n * STEPS) as f64;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            (0..STEPS)
                .map(|k| (ln_pdf((i * STEPS + k) as f64 * h + h / 2.0) - peak).exp())
                .sum()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    weights.iter().zip(&v).map(|(w, x)| w * x).sum::<f64>() / total
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
