//! `perfbench`: the icstar benchmark. See `README.md` beside this
//! package for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Each workload runs in a fresh child process of this binary, so its
//! set-up time and peak memory belong to it alone. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

mod e2e;
mod gallery;
mod jobs;
mod layers;
mod report;
mod spans;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jobs::{Job, Scale};
use report::Report;

pub const WORKLOADS: &[&str] = &["cold-build", "hot-cache", "warm-restart", "all-sizes"];

/// Set-ups per run, each in a fresh process; the median is reported
/// as `setup_s`. A set-up without warming is a fraction of a
/// millisecond of thread starts, so it takes many to hold still.
const SETUP_REPS: usize = 15;
/// hot-cache set-up warms the working set, which takes longer.
const HOT_SETUP_REPS: usize = 3;
/// Client connections of the hot-cache loop.
const HOT_CONNECTIONS: usize = 2;
/// cold-build, warm-restart and all-sizes replay a fixed number of
/// jobs per `--seconds`, sized so one cold-build pass, or all ten
/// all-sizes passes together, take roughly that long on a 2-core
/// machine. What they keep grows with the jobs done (every structure,
/// every certificate), so a fixed list keeps peak memory and latency
/// quantiles comparable between runs. hot-cache keeps nothing new and
/// runs for `--seconds`.
const COLD_JOBS_PER_S: usize = 8;
const ALL_SIZES_JOBS_PER_S: usize = 800;
/// A fixed-list pass stops sending jobs after this many times its
/// expected length.
const GUARD_FACTOR: u64 = 3;

/// How many times a measured run sends its list, each time to a freshly
/// started server (restarted on the populated directory for
/// warm-restart). The quantiles pool every pass. A cold-build or
/// warm-restart pass is a few dozen heavy jobs, too few to hold still
/// between runs on their own, and a shared host's speed drifts over
/// minutes, which only a longer run averages out. An all-sizes round
/// trip is tens of microseconds, and one server runs them at one of two
/// speeds some 30% apart, depending on where the scheduler puts its
/// threads; ten short passes average over ten placements. The extra
/// passes cost no extra preparation.
fn passes(workload: &str) -> usize {
    match workload {
        "cold-build" => 4,
        "warm-restart" => 3,
        "all-sizes" => 10,
        _ => 1,
    }
}

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Set in child processes: which part of a workload to run.
    pub phase: Option<String>,
    pub cache_dir: Option<PathBuf>,
    /// Replay exactly this many jobs instead of running for `seconds`.
    pub jobs: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        smoke: false,
        phase: None,
        cache_dir: None,
        jobs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            "--phase" => args.phase = Some(value),
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value)),
            "--jobs" => args.jobs = Some(value.parse().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = match args.phase.as_deref() {
        None => orchestrate(&args),
        Some(phase) => child(&args, phase),
    };
    std::process::exit(code);
}

/// Scratch space for runs, inside the package directory (ignored by
/// git) so the benchmark reads and writes only inside its checkout.
fn work_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("creating the benchmark's work directory");
    dir
}

/// Runs this binary as a child for one phase of one workload, echoes
/// its output, and returns its report lines and whether it succeeded.
fn spawn(args: &Args, workload: &str, phase: &str, extra: &[String]) -> (Vec<String>, bool) {
    let exe = std::env::current_exe().expect("locating the benchmark binary");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
        "--phase",
        phase,
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    cmd.args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let out = cmd.output().expect("running a benchmark child process");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    for line in &lines {
        if !line.starts_with('{') {
            println!("{line}");
        }
    }
    (lines, out.status.success())
}

fn orchestrate(args: &Args) -> i32 {
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let phase = if args.trace { "trace" } else { "measure" };
    let mut combined = Report::new(&args.workload);
    let mut ok = true;
    for w in &workloads {
        let mut extra = Vec::new();
        let mut cache_dir = None;
        if *w == "warm-restart" {
            // Untimed input preparation: a separate process runs the
            // cold-build list of this seed against a fresh directory,
            // then shuts down.
            let dir = work_dir().join(format!("cache-{}-{}", std::process::id(), args.seed));
            let _ = std::fs::remove_dir_all(&dir);
            let mut populate = vec!["--cache-dir".to_string(), dir.display().to_string()];
            if args.trace {
                populate.extend([
                    "--jobs".into(),
                    layers::trace_jobs(w, args.smoke).to_string(),
                ]);
            }
            let (lines, good) = spawn(args, w, "populate", &populate);
            let count = lines
                .iter()
                .find_map(|l| l.strip_prefix("populated "))
                .and_then(|v| v.split_whitespace().next()?.parse::<usize>().ok());
            let Some(count) = count.filter(|_| good) else {
                let _ = std::fs::remove_dir_all(&dir);
                eprintln!("perfbench: populating the cache directory failed");
                return 1;
            };
            extra = vec![
                "--cache-dir".into(),
                dir.display().to_string(),
                "--jobs".into(),
                count.to_string(),
            ];
            cache_dir = Some(dir);
        }
        // Extra set-ups, each in a fresh process like the measured one;
        // `setup_s` is the median over them and the measured run's own.
        let mut setups = Vec::new();
        if !args.trace {
            let reps = if *w == "hot-cache" {
                HOT_SETUP_REPS
            } else {
                SETUP_REPS
            };
            for _ in 1..reps {
                let (lines, good) = spawn(args, w, "setup", &extra);
                let secs = lines
                    .iter()
                    .find_map(|l| l.strip_prefix("setup ")?.parse().ok());
                match secs.filter(|_| good) {
                    Some(secs) => setups.push(secs),
                    None => ok = false,
                }
            }
        }
        let (lines, good) = spawn(args, w, phase, &extra);
        if let Some(dir) = cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let Some(mut child) = Report::parse(&lines) else {
            eprintln!("perfbench: {w} printed no result");
            return 1;
        };
        if let Some(m) = child.metrics.iter_mut().find(|m| m.name == "setup_s") {
            setups.push(m.value);
            m.value = e2e::median(&setups);
            m.samples = Some(setups.len());
            println!(
                "metric {w} setup_s {} s samples={} (median)",
                m.value,
                setups.len()
            );
        }
        ok &= good && child.correct;
        if workloads.len() == 1 {
            combined = child;
        } else {
            combined.absorb(w, child);
        }
    }
    combined.correct &= ok;
    println!("{}", combined.to_json());
    if ok {
        0
    } else {
        1
    }
}

fn scale(args: &Args) -> Scale {
    if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    }
}

/// The job list of a workload for this seed.
pub fn job_list(workload: &str, args: &Args) -> Vec<Arc<Job>> {
    let s = args.seconds as usize;
    let scale = scale(args);
    match workload {
        "cold-build" | "warm-restart" => jobs::cold_build(args.seed, COLD_JOBS_PER_S * s, &scale),
        "hot-cache" => jobs::hot_cache(args.seed, 5_000 * s, &scale).1,
        "all-sizes" => jobs::all_sizes(args.seed, ALL_SIZES_JOBS_PER_S * s),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

fn child(args: &Args, phase: &str) -> i32 {
    let report = match phase {
        "measure" => measure(args),
        "populate" => return populate(args),
        "setup" => return setup_only(args),
        "trace" => layers::traced(args),
        _ => {
            eprintln!("perfbench: unknown phase {phase}");
            return 2;
        }
    };
    report.print_lines();
    println!("{}", report.to_json());
    if report.correct {
        0
    } else {
        1
    }
}

fn print_inputs(workload: &str, jobs: &[Arc<Job>], args: &Args) {
    println!(
        "{workload}: seed {} inputs {} jobs digest {}",
        args.seed,
        jobs.len(),
        jobs::digest(jobs)
    );
}

/// warm-restart's untimed first pass: the cold-build list of this seed
/// (or its first `--jobs` jobs) against a fresh cache directory.
fn populate(args: &Args) -> i32 {
    let jobs = job_list("warm-restart", args);
    let count = args.jobs.unwrap_or(jobs.len()).min(jobs.len());
    let deadline = Duration::from_secs(GUARD_FACTOR * args.seconds);
    let server = e2e::start_ready(args.cache_dir.clone());
    let out = e2e::closed_loop(server.local_addr(), &jobs[..count], 1, deadline);
    drop(server);
    for e in &out.errors {
        eprintln!("populate: {e}");
    }
    println!("populated {} jobs", out.attempted);
    i32::from(out.failed > 0)
}

/// The jobs that warm a workload's working set during set-up.
fn warm_list(args: &Args) -> Vec<Arc<Job>> {
    if args.workload == "hot-cache" {
        let (families, _) = jobs::hot_cache(args.seed, 0, &scale(args));
        jobs::warm_jobs(&families)
    } else {
        Vec::new()
    }
}

/// A workload's set-up: start the server (restarted on the populated
/// directory for warm-restart), wait until it answers, and for
/// hot-cache warm the working set over one connection. Returns the
/// server, the set-up time, and how many warming jobs failed.
fn set_up(args: &Args, warm: &[Arc<Job>]) -> (icstar_wire::WireServer, f64, usize) {
    let started = Instant::now();
    let server = e2e::start_ready(args.cache_dir.clone());
    let out = e2e::closed_loop(server.local_addr(), warm, 1, Duration::MAX);
    for e in &out.errors {
        eprintln!("warm: {e}");
    }
    (server, started.elapsed().as_secs_f64(), out.failed)
}

/// A set-up alone, in a process of its own: the extra samples of
/// `setup_s`.
fn setup_only(args: &Args) -> i32 {
    let warm = warm_list(args);
    let (server, secs, failed) = set_up(args, &warm);
    drop(server);
    println!("setup {secs}");
    i32::from(failed > 0)
}

/// One measured run of one workload, tracing off.
fn measure(args: &Args) -> Report {
    let w = args.workload.as_str();
    let mut jobs = job_list(w, args);
    if let Some(k) = args.jobs {
        jobs.truncate(k);
    }
    print_inputs(w, &jobs, args);
    let warm = warm_list(args);
    let connections = if w == "hot-cache" { HOT_CONNECTIONS } else { 1 };
    let deadline = match w {
        "hot-cache" => Duration::from_secs(args.seconds),
        "all-sizes" => Duration::from_secs(GUARD_FACTOR * args.seconds) / passes(w) as u32,
        _ => Duration::from_secs(GUARD_FACTOR * args.seconds),
    };
    let mut out = e2e::LoopOutcome::default();
    let mut setup = None;
    let mut peak_rss = None;
    let mut warm_failed = 0;
    for _ in 0..passes(w) {
        let (server, secs, failed) = set_up(args, &warm);
        // The first set-up is the one a fresh process pays.
        setup.get_or_insert(secs);
        warm_failed += failed;
        let pass = e2e::closed_loop(server.local_addr(), &jobs, connections, deadline);
        drop(server);
        // The peak of one server serving the list once. Later passes
        // only add what the allocator kept from the servers before them,
        // which varies from run to run.
        peak_rss.get_or_insert_with(e2e::peak_rss_mib);
        out.absorb(pass);
    }
    let setup = setup.expect("at least one pass");
    let peak_rss = peak_rss.expect("at least one pass");
    for e in &out.errors {
        eprintln!("{w}: {e}");
    }
    let mut report = Report::new(w);
    report.attempted = out.attempted + warm_failed;
    report.failed = out.failed + warm_failed;
    report.correct = report.failed == 0 && out.attempted > 0;
    let samples = out.ok_ms.len();
    report.metric("setup_s", setup, "s", Some(1));
    report.metric(
        "job_p50_ms",
        e2e::quantile(&out.ok_ms, 0.5),
        "ms",
        Some(samples),
    );
    report.metric(
        "job_p90_ms",
        e2e::quantile(&out.ok_ms, 0.9),
        "ms",
        Some(samples),
    );
    report.metric(
        "jobs_per_s",
        samples as f64 / out.wall.as_secs_f64(),
        "1/s",
        Some(samples),
    );
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{w}: failed_share {failed_share} ({} of {})",
        report.failed, report.attempted
    );
    report.metric(
        "ok_share",
        1.0 - failed_share,
        "share",
        Some(report.attempted),
    );
    report.metric("peak_rss_mib", peak_rss, "MiB", None);
    report
}
