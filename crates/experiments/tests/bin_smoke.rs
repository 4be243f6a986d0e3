//! Smoke tests for the `figures` and `report` binaries.

use std::process::Command;

#[test]
fn figures_prints_a_requested_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig04b"])
        .output()
        .expect("run figures");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Figure 4b"));
    assert!(text.contains("> 20 cycles"));
}

#[test]
fn figures_rejects_unknown_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "fig06a", "fig99"])
        .output()
        .expect("run figures");
    // An unknown id fails the whole command with status 2 before any
    // figure (or the suite behind it) is built.
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no figure printed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown figure id: fig99"), "{err}");
    assert!(
        !err.contains("generating"),
        "suite built before the check: {err}"
    );
}

#[test]
fn figures_rejects_unknown_flags_before_standalone_passes() {
    for args in [&["--coherence", "--bogus"][..], &["--diff", "--bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("run figures");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: pass ran anyway");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag: --bogus"));
    }
}

#[test]
fn figures_help_prints_usage_without_work() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg(flag)
            .output()
            .expect("run figures");
        assert!(out.status.success(), "{flag}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"));
        assert!(out.stderr.is_empty(), "{flag} did work: {:?}", out.stderr);
    }
}

#[test]
fn report_emits_markdown_and_csv() {
    let dir = std::env::temp_dir().join(format!("sac-report-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--small", "--csv"])
        .arg(&dir)
        .output()
        .expect("run report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("**Figure 6a"));
    assert!(text.contains("|---|"));
    let csvs = std::fs::read_dir(&dir).expect("csv dir").count();
    assert!(csvs >= 20, "expected one CSV per table, got {csvs}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_rejects_bad_arguments_before_any_work() {
    for (args, needle) in [
        (&["--small", "--bogus"][..], "unknown flag: --bogus"),
        (&["--small", "fig06a"], "unexpected argument: fig06a"),
        (&["--jobs", "0"], "--jobs needs a positive integer"),
        (&["--csv"], "--csv needs a value"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(args)
            .output()
            .expect("run report");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: tables printed");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(
            !err.contains("generating"),
            "{args:?}: suite built before the check: {err}"
        );
    }
}

#[test]
fn report_help_prints_usage_without_work() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(["--small", flag, "--bogus"])
            .output()
            .expect("run report");
        assert!(out.status.success(), "{flag}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"));
        assert!(out.stderr.is_empty(), "{flag} did work: {:?}", out.stderr);
    }
}

#[test]
fn explain_renders_a_breakdown_and_writes_jsonl() {
    let path = std::env::temp_dir().join(format!("sac-obs-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(["--small", "--config", "soft", "--sample", "4"])
        .arg("--obs-json")
        .arg(&path)
        .output()
        .expect("run explain");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("explain explain/mixed/soft"), "{text}");
    assert!(
        text.contains("events match metrics counters exactly"),
        "{text}"
    );
    assert!(text.contains("miss causes"), "{text}");
    let jsonl = std::fs::read_to_string(&path).expect("telemetry written");
    assert!(jsonl.starts_with("{\"type\":\"summary\""), "{jsonl}");
    assert!(jsonl.contains("\"type\":\"miss_causes\""));
    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_timeline_renders_windows_and_reconciles() {
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args([
            "--small",
            "--config",
            "victim",
            "--timeline",
            "--window",
            "4096",
        ])
        .output()
        .expect("run explain");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("timeline of explain/mixed/victim"), "{text}");
    assert!(text.contains("phases:"), "{text}");
    assert!(text.contains("window sums reconcile exactly"), "{text}");
}

#[test]
fn figures_writes_a_valid_nested_chrome_trace() {
    let path = std::env::temp_dir().join(format!("sac-trace-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "--jobs", "2", "fig06a"])
        .arg("--trace-json")
        .arg(&path)
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("pipeline span(s) (wall mode)"), "{err}");
    assert!(err.contains("metrics registry"), "{err}");
    let trace = std::fs::read_to_string(&path).expect("trace written");
    // The bin validated nesting before writing; spot-check the shape.
    assert!(trace.starts_with("{\"displayTimeUnit\""), "{trace}");
    assert!(trace.contains("\"cat\": \"run\""));
    assert!(trace.contains("\"cat\": \"figure\""));
    assert!(trace.contains("\"cat\": \"cell\""));
    assert!(trace.contains("\"ph\": \"C\""), "RSS counters in wall mode");
    std::fs::remove_file(&path).ok();
}

#[test]
fn figures_writes_timeline_jsonl() {
    let path = std::env::temp_dir().join(format!("sac-tl-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "fig04b"])
        .arg("--timeline-json")
        .arg(&path)
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(&path).expect("timeline written");
    assert!(jsonl.contains("\"kind\": \"window\""), "{jsonl}");
    assert!(jsonl.contains("\"kind\": \"phase\""), "{jsonl}");
    assert!(jsonl.contains("\"schema_version\": "), "{jsonl}");
    assert!(jsonl.contains("timeline/mixed/standard"), "{jsonl}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_rejects_unwritable_obs_path_before_running() {
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(["--small", "--obs-json", "/no/such/dir/obs.jsonl"])
        .output()
        .expect("run explain");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot write"), "{err}");
}

#[test]
fn figures_rejects_unwritable_bench_path_before_running() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args([
            "--small",
            "fig04b",
            "--bench-json",
            "/no/such/dir/bench.json",
        ])
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot write"), "{err}");
    // Failing fast means no figure work ran before the exit.
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
}

/// The store round-trip: a cold `figures --store` run replays and
/// persists every suite cell; a warm run over the same traces serves
/// every cell from the store — zero misses — and its figure output is
/// byte-identical to the cold run's.
#[test]
fn figures_store_warm_run_is_byte_identical_to_cold() {
    let dir = std::env::temp_dir().join(format!("sac-store-smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--small", "fig06a", "--store"])
            .arg(&dir)
            .output()
            .expect("run figures");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, String::from_utf8_lossy(&out.stderr).to_string())
    };

    let (cold_out, cold_err) = run();
    let (warm_out, warm_err) = run();
    assert_eq!(cold_out, warm_out, "cold and warm figure output differ");
    assert!(cold_err.contains("store: 0 hit(s)"), "{cold_err}");
    let warm_line = warm_err
        .lines()
        .find(|l| l.starts_with("store: "))
        .expect("warm run prints a store summary");
    assert!(warm_line.contains("0 miss(es)"), "{warm_line}");
    assert!(!warm_line.contains("store: 0 hit(s)"), "{warm_line}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_diff_attributes_divergence_and_writes_jsonl() {
    let path = std::env::temp_dir().join(format!("sac-diff-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(["--small", "--config", "standard", "--diff", "soft"])
        .arg("--diff-json")
        .arg(&path)
        .output()
        .expect("run explain");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("diff explain/mixed/standard vs explain/mixed/soft"),
        "{text}"
    );
    assert!(
        text.contains("mechanism deltas sum exactly to the metrics difference"),
        "{text}"
    );
    let jsonl = std::fs::read_to_string(&path).expect("diff telemetry written");
    assert!(
        jsonl.starts_with("{\"type\":\"diff\",\"schema_version\":"),
        "{jsonl}"
    );
    assert!(jsonl.contains("\"type\":\"side\""), "{jsonl}");
    assert!(jsonl.contains("\"type\":\"mechanism\""), "{jsonl}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_diff_json_requires_a_diff_config() {
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(["--small", "--diff-json", "/tmp/never-written.jsonl"])
        .output()
        .expect("run explain");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--diff-json needs --diff"), "{err}");
}

#[test]
fn figures_diff_reports_every_pair_against_standard() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "--diff"])
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let pairs = text.matches("diff standard vs ").count();
    assert_eq!(pairs, 7, "one pair per non-standard organization: {text}");
    assert!(text.contains("diff standard vs soft"), "{text}");
    assert_eq!(
        text.matches("mechanism deltas sum exactly").count(),
        7,
        "every pair reconciled: {text}"
    );
}

/// The sampled-event telemetry is recorded on a single instrumented
/// replay, so its JSONL must not depend on the sweep worker count.
#[test]
fn figures_obs_jsonl_is_byte_identical_across_jobs() {
    let run = |jobs: &str, tag: &str| {
        let path =
            std::env::temp_dir().join(format!("sac-obs-jobs{tag}-{}.jsonl", std::process::id()));
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--small", "fig04b", "--jobs", jobs])
            .arg("--obs-json")
            .arg(&path)
            .output()
            .expect("run figures");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let jsonl = std::fs::read(&path).expect("telemetry written");
        std::fs::remove_file(&path).ok();
        jsonl
    };
    let sequential = run("1", "1");
    let parallel = run("4", "4");
    assert!(!sequential.is_empty());
    assert!(
        String::from_utf8_lossy(&sequential).contains("\"schema_version\":"),
        "obs records carry the schema version"
    );
    assert_eq!(
        sequential, parallel,
        "obs JSONL must be byte-identical under --jobs 4"
    );
}

#[test]
fn figures_rejects_unwritable_store_dir_before_running() {
    // A path whose parent is a regular file can never become a
    // directory, whoever runs the test (`/no/such/dir` would just be
    // created when running as root).
    let blocker = std::env::temp_dir().join(format!("sac-store-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "fig06a", "--store"])
        .arg(blocker.join("store"))
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot create store"), "{err}");
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
    std::fs::remove_file(&blocker).ok();
}
