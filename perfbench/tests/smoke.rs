//! Smoke test of the benchmark command: every workload, both modes, at
//! the `--smoke` sizes. Each run must report correct verdicts and print
//! every metric `BENCHMARK.json` names.

use std::process::Command;

fn run(workload: &str, seed: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("running perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "perfbench {workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The metric names listed under `section` in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("reading BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn check(stdout: &str, section: &str) {
    let last = stdout.lines().last().expect("some output");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    for workload in ["cold-build", "hot-cache", "warm-restart", "all-sizes"] {
        for name in listed(section) {
            let key = format!("\"{workload}/{name}\": {{\"value\": ");
            assert!(last.contains(&key), "{workload} does not report {name}");
        }
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    check(&run("all", "7", "0"), "end_to_end");
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    check(&run("all", "7", "1"), "per_layer");
}

#[test]
fn one_seed_gives_one_input_digest() {
    let digest = |out: &str| {
        out.lines()
            .find_map(|l| l.split(" digest ").nth(1))
            .map(str::to_string)
            .expect("a digest line")
    };
    let a = digest(&run("all-sizes", "3", "0"));
    assert_eq!(a, digest(&run("all-sizes", "3", "0")));
    assert_ne!(a, digest(&run("all-sizes", "4", "0")));
}
