//! The simulator's benchmark: one command, one process, one worker.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_figures --seed 0 --seconds 25 --trace 0
//! ```
//!
//! Each workload drives the public functions of the simulator's layers
//! as a closed loop of one caller (`runner::set_jobs(1)`, no result
//! store), checks every output against recorded values and independent
//! oracles, prints every metric by name and unit, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, measured with the harness spans off;
//! `--trace 1` makes a traced run and reports the per-layer split.
//! `--benchmark-json` prints the `BENCHMARK.json` that describes them,
//! and `--record` rewrites the expected-values file of a workload from
//! the current program (only for the recorded seed).

mod catalog;
mod coherent;
mod files;
mod harness;
mod paper;

use harness::{json_num, json_str, Checker, Metrics};
use std::process::ExitCode;

/// What one workload run produced.
pub struct Outcome {
    pub checker: Checker,
    /// End-to-end metrics (host time unless the unit says otherwise).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The workload seed, as the manifest reports it.
    pub seed: String,
    /// Each input trace's content hash.
    pub hashes: Vec<(String, u64)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record" => record = true,
            "--benchmark-json" => {
                print!("{}", catalog::benchmark_json());
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?} (valid: {names:?})"));
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        record,
    }))
}

/// The repository commit, when the benchmark runs inside a git checkout.
/// Git is pointed at the checkout's own `.git`, so it never reads a
/// repository that merely encloses the checkout.
fn git_commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git_dir = root.join(".git");
    if !git_dir.exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .env("GIT_DIR", &git_dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (git failed)".to_string())
}

fn manifest(args: &Args, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let hashes: Vec<String> = out
        .hashes
        .iter()
        .map(|(name, h)| format!("{}: \"{h:016x}\"", json_str(name)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"git_commit\": {}, \"rustc\": {}, \
         \"nproc\": {nproc}, \"jobs\": {}, \"recorded_outputs\": {}, \"model\": \
         \"unvalidated against hardware; no accuracy figure\", \"trace_hashes\": {{{}}}}}",
        json_str(&args.workload),
        json_str(&out.seed),
        u8::from(args.trace),
        json_str(&git_commit()),
        json_str(env!("PERFBENCH_RUSTC")),
        sac_experiments::runner::jobs(),
        out.checker.has_recorded(),
        hashes.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One worker, no intra-cell sharding, no result store: the closed
    // loop of a single caller.
    sac_experiments::runner::set_jobs(1);
    sac_experiments::runner::set_cell_jobs(1);

    let mut out = match args.workload.as_str() {
        "paper_figures" => paper::run(args.seconds, args.trace, args.record),
        "trace_files" => files::run(args.seed, args.seconds, args.trace, args.record),
        "coherent_mp" => coherent::run(args.seed, args.seconds, args.trace, args.record),
        _ => unreachable!("workload names were validated"),
    };
    out.e2e.put("peak_rss_mb", harness::peak_rss_mb(), "MiB");
    let error_rate = out.checker.failed as f64 / out.checker.attempted.max(1) as f64;

    if args.record {
        let path = format!(
            "{}/expected/{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            args.workload
        );
        let text = format!(
            "# Expected outputs of `{}` (seed {}), written by `--record`.\n{}",
            args.workload,
            out.seed,
            out.checker.render_seen()
        );
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: recorded {path}");
    }

    println!("manifest {}", manifest(&args, &out));
    for line in &out.notes {
        println!("# {line}");
    }
    for m in &out.e2e.0 {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate = {error_rate} ({} failed of {} operations)",
        out.checker.failed, out.checker.attempted
    );
    for m in &out.layers.0 {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for f in out.checker.failures() {
        println!("# FAILED {f}");
    }

    // The result line carries exactly the metrics BENCHMARK.json lists
    // for this mode; a layer this workload does not exercise reads 0.
    let listed: Vec<(String, &str)> = if args.trace {
        catalog::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let source = if args.trace { &out.layers } else { &out.e2e };
    let metrics: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let v = source.get(name).unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    let correct = out.checker.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checker.attempted,
        out.checker.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
