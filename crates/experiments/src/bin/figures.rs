//! Prints any subset of the paper's figures as text tables.
//!
//! ```text
//! cargo run --release -p sac-experiments --bin figures -- all
//! cargo run --release -p sac-experiments --bin figures -- fig06a fig07b
//! cargo run --release -p sac-experiments --bin figures -- --small fig11a
//! cargo run --release -p sac-experiments --bin figures -- --jobs 4 all
//! cargo run --release -p sac-experiments --bin figures -- --sequential fig06a
//! cargo run --release -p sac-experiments --bin figures -- --store results/ all
//! ```
//!
//! Sweeps shard their (config × workload) cells across a worker pool;
//! `--jobs N` pins the worker count, `--sequential` is `--jobs 1`, and
//! the default uses every core. Output is bit-identical either way. A
//! run summary (cells done, slowest cells, aggregate speedup) goes to
//! stderr at the end.
//!
//! Every sweep row replays as one batch: each configuration of the row
//! advances through the same decoded chunk before the next chunk is
//! touched, all through the engines' one scalar `run_chunk` loop.
//! `--cell-jobs N` additionally shards each replay cell's engines across
//! N worker threads (deterministic: partial metrics fold in engine
//! order); the default is 1, as cross-cell sharding via `--jobs` already
//! saturates full sweeps.
//! `--store DIR` attaches a content-addressed on-disk result store:
//! suite cells found in DIR (same trace content, config and engine
//! version) are served without replay, fresh cells are persisted, so a
//! second (*warm*) run over the same suite skips replay entirely and a
//! summary line reports the hit/miss split.
//! `--diff` runs the standalone differential pass instead of figures:
//! every organization is lockstep-diffed against the standard baseline
//! over the shared mixed trace and one reconciled divergence report per
//! pair goes to stdout (single-threaded, so byte-identical at any
//! `--jobs` / `--cell-jobs` setting).
//! `--coherence` runs the standalone multi-core pass instead of figures:
//! the private-vs-shared sweep (miss ratio and AMAT at 2 and 4 CPUs,
//! plus the false-sharing fraction) over two deterministic kernels and
//! the two sharing microkernels, under MESI by default or the protocol
//! named by `--protocol mesi|dragon`. Rows run sequentially, so the
//! table is byte-identical at any `--jobs` setting. The two passes
//! print only their reports: the parser rejects them together, and
//! rejects `--obs-json`, `--timeline-json`, `--trace-json` and `--store`
//! with either.
//! `--obs-json PATH` runs one instrumented standard + soft cell with the
//! full `TracingProbe` and writes the telemetry as JSON Lines to PATH.
//! `--timeline-json PATH` runs windowed-timeline cells (standard,
//! victim, soft over the shared mixed trace) and writes one JSON line
//! per window and phase to PATH.
//! `--trace-json PATH` records pipeline spans (run → figure → cell,
//! plus per-chunk spans with `--trace-chunks`) and writes a
//! Chrome-trace / Perfetto JSON document to PATH; `--trace-logical`
//! switches the export to deterministic logical timestamps, which are
//! byte-identical at any `--jobs N`. The trace is validated (JSON spans
//! must nest laminarly) before it is written. All output paths are
//! validated (created) up front, so a long run cannot die at the final
//! write. When any telemetry ran, a metrics-registry snapshot
//! (counters / gauges / histograms) is printed to stderr at the end.
//! `--help` prints the usage. The command line is validated before any
//! work starts: an unknown flag or figure id exits with status 2.

use sac_experiments::cli::{self, FiguresCommand};
use sac_experiments::explain::{self, mixed_trace};
use sac_experiments::runner::REPLAY_CHUNK;
use sac_experiments::{diff, figures, runner, Config, ResultStore, Suite};
use sac_obs::registry;
use sac_obs::span::{self, Span, SpanKey, SpanLevel, TraceMode};
use std::io::{BufWriter, Write};
use std::time::Instant;

fn main() {
    // The whole command line is checked before any work: an unknown flag
    // or figure id exits 2 here, before suite generation and before the
    // standalone `--diff` / `--coherence` passes.
    let args = match cli::parse_figures_args(std::env::args().skip(1)) {
        Ok(FiguresCommand::Help) => {
            print!("{}", cli::FIGURES_USAGE);
            return;
        }
        Ok(FiguresCommand::Run(args)) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let small = args.small;
    if let Some(n) = args.jobs {
        runner::set_jobs(n);
    }
    if let Some(n) = args.cell_jobs {
        runner::set_cell_jobs(n);
    }
    let mut wanted = args.ids;
    // Validate output paths up front (satellite of the telemetry work):
    // a full `figures all` run takes minutes, and discovering a typo'd
    // directory only at the final write would throw all of it away.
    let mut obs_writer = args
        .obs_json
        .map(|path| match sac_trace::io::create_output(&path) {
            Ok(f) => (path, BufWriter::new(f)),
            Err(e) => {
                eprintln!("--obs-json: {e}");
                std::process::exit(2);
            }
        });
    let mut timeline_writer =
        args.timeline_json
            .map(|path| match sac_trace::io::create_output(&path) {
                Ok(f) => (path, BufWriter::new(f)),
                Err(e) => {
                    eprintln!("--timeline-json: {e}");
                    std::process::exit(2);
                }
            });
    let mut trace_writer = args
        .trace_json
        .map(|path| match sac_trace::io::create_output(&path) {
            Ok(f) => (path, BufWriter::new(f)),
            Err(e) => {
                eprintln!("--trace-json: {e}");
                std::process::exit(2);
            }
        });
    // The store directory is created up front for the same reason the
    // writers are: an unwritable path must fail before the run, not
    // after it.
    let store = args.store.map(|dir| match ResultStore::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--store: {e}");
            std::process::exit(2);
        }
    });

    // `--diff` is a standalone pass: every organization lockstep-diffed
    // against the standard baseline over the shared mixed trace, one
    // reconciled divergence report per pair on stdout. The pass is
    // single-threaded by construction, so the output is byte-identical
    // at any `--jobs` / `--cell-jobs` setting — which is exactly what
    // the CI determinism leg diffs.
    if args.diff {
        run_diff_pairs(small);
        return;
    }

    // `--coherence` is a standalone pass like `--diff`: the
    // private-vs-shared multi-CPU sweep, built sequentially so the
    // emitted table is byte-identical at any `--jobs` / `--cell-jobs`
    // setting — the property `tests/coherence_determinism.rs` checks.
    if args.coherence {
        registry::reset_global();
        println!(
            "{}",
            sac_experiments::coherence::coherence_table(args.protocol)
        );
        // The sweep's coherence.* totals (invalidations, upgrades,
        // cache-to-cache fills, bus occupancy) go to stderr, like the
        // registry snapshot of a figure run.
        eprint!("{}", registry::snapshot().render_text());
        return;
    }

    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = cli::PAPER_FIGURES.iter().map(|s| s.to_string()).collect();
    }
    if wanted.iter().any(|w| w == "ablations") {
        wanted = cli::ABLATIONS.iter().map(|s| s.to_string()).collect();
    }
    if wanted.iter().any(|w| w == "extensions") {
        wanted = cli::EXTENSIONS.iter().map(|s| s.to_string()).collect();
    }

    runner::reset_stats();
    registry::reset_global();
    let tracing = trace_writer.is_some();
    if tracing {
        span::reset();
        span::set_enabled(true);
        runner::set_chunk_spans(args.trace_chunks);
    }
    let start = Instant::now();

    let needs_suite = wanted
        .iter()
        .any(|w| !matches!(w.as_str(), "fig04b" | "fig10a" | "fig11a" | "fig11b"));
    runner::set_figure_seq(0);
    let suite_span_start = tracing.then(span::now_us);
    let suite = needs_suite.then(|| {
        eprintln!(
            "generating {} benchmark traces on {} worker(s)...",
            if small { "small" } else { "paper-scale" },
            runner::jobs()
        );
        let mut suite = if small {
            Suite::small()
        } else {
            Suite::paper()
        };
        if let Some(store) = &store {
            suite.attach_store(store.clone());
        }
        suite
    });
    if let (Some(s0), true) = (suite_span_start, needs_suite) {
        span::record(Span::new(
            "suite",
            SpanLevel::Figure,
            SpanKey::default(),
            0,
            s0,
            span::now_us().saturating_sub(s0),
        ));
        span::sample_rss(peak_rss_bytes());
    }

    for (seq, id) in wanted.iter().enumerate() {
        // Figure sequence numbers start at 1: 0 is suite generation.
        runner::set_figure_seq(seq as u32 + 1);
        let before = runner::cells_done();
        let figure_start = Instant::now();
        let span_start = tracing.then(span::now_us);
        let table = figures::by_id(id, suite.as_ref(), small);
        match table {
            Some(t) => {
                println!("{t}");
                let wall = figure_start.elapsed();
                let cells = runner::cells_done() - before;
                eprintln!("{id}: {cells} cells in {wall:.2?}");
                if let Some(s0) = span_start {
                    span::record(
                        Span::new(
                            id.clone(),
                            SpanLevel::Figure,
                            SpanKey {
                                figure: seq as u32 + 1,
                                ..SpanKey::default()
                            },
                            0,
                            s0,
                            span::now_us().saturating_sub(s0),
                        )
                        .arg("cells", cells as u64),
                    );
                    span::sample_rss(peak_rss_bytes());
                }
            }
            None => unreachable!("figure id {id} passed cli::parse_figures_args"),
        }
    }

    let total_wall = start.elapsed();
    eprint!("{}", runner::summary(total_wall));

    // Everything past the figures proper (obs / timeline cells)
    // records under a sequence number no figure list can reach, so the
    // figure keys stay stable whether or not the extra passes run.
    runner::set_figure_seq(1000);

    if let Some((path, w)) = obs_writer.as_mut() {
        if let Err(e) = write_obs_jsonl(w).and_then(|()| w.flush()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote probe telemetry to {path}");
    }

    if let Some((path, w)) = timeline_writer.as_mut() {
        if let Err(e) = write_timeline_jsonl(w).and_then(|()| w.flush()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote timeline JSONL to {path}");
    }

    if let Some((path, f)) = trace_writer.as_mut() {
        // The run span closes over everything recorded above, telemetry
        // cells included.
        span::record(Span::new(
            "figures",
            SpanLevel::Run,
            SpanKey::default(),
            0,
            0,
            span::now_us(),
        ));
        span::sample_rss(peak_rss_bytes());
        let mode = if args.trace_logical {
            TraceMode::Logical
        } else {
            TraceMode::Wall
        };
        let (spans, rss) = span::snapshot();
        if let Err(e) = span::check_nesting(&spans, mode) {
            eprintln!("--trace-json: span nesting violated (tracer bug): {e}");
            std::process::exit(1);
        }
        if let Err(e) = f.write_all(span::chrome_trace(&spans, &rss, mode).as_bytes()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        span::set_enabled(false);
        eprintln!(
            "wrote {} pipeline span(s) ({} mode) to {path}",
            spans.len(),
            if args.trace_logical {
                "logical"
            } else {
                "wall"
            }
        );
    }

    // The store summary is the line the CI cold/warm smoke greps for: a
    // warm run over an unchanged suite must report hits and no replays.
    if let Some(store) = &store {
        let reg = registry::snapshot();
        eprintln!(
            "store: {} hit(s), {} miss(es), {} entr{} in {}",
            reg.counter("store.hits"),
            reg.counter("store.misses"),
            store.len(),
            if store.len() == 1 { "y" } else { "ies" },
            store.dir().display()
        );
    }

    let reg = registry::snapshot();
    if !reg.is_empty() {
        eprint!("{}", reg.render_text());
    }
}

/// The `--diff` pass: every non-standard organization lockstep-diffed
/// against the standard baseline over the shared mixed trace. Each
/// report is reconciled (mechanism deltas sum exactly to the pair's
/// metrics difference) before it is printed.
fn run_diff_pairs(small: bool) {
    let len = if small { 50_000 } else { 200_000 };
    let trace = mixed_trace(len);
    let base = Config::standard();
    for (name, config) in Config::all_organizations() {
        if name == "standard" {
            continue;
        }
        let report = diff::diff_configs("standard", &base, name, &config, &trace, REPLAY_CHUNK)
            .unwrap_or_else(|e| {
                eprintln!("--diff {name}: {e}");
                std::process::exit(1);
            });
        print!("{}", report.render(3));
        println!();
    }
}

/// The `--timeline-json` pass: windowed-timeline cells over the shared
/// mixed trace, one JSON line per window and per phase, each verified
/// to reconcile exactly with the engine's global metrics.
fn write_timeline_jsonl(w: &mut impl Write) -> std::io::Result<()> {
    const TIMELINE_LEN: usize = 200_000;
    let trace = mixed_trace(TIMELINE_LEN);
    for (label, config) in [
        ("timeline/mixed/standard", Config::standard()),
        ("timeline/mixed/victim", Config::standard_victim()),
        ("timeline/mixed/soft", Config::soft()),
    ] {
        let (tl, _) =
            explain::explain_timeline(label, &config, &trace, sac_obs::DEFAULT_WINDOW_REFS)
                .expect("built-in configs must reconcile window sums with global metrics");
        tl.write_jsonl(label, w)?;
    }
    Ok(())
}

/// The `--obs-json` pass: instrumented standard, victim and soft cells
/// with the full `TracingProbe` over the shared mixed trace, telemetry
/// appended as JSON Lines (one `summary`/histogram/event record per
/// line, tagged with the cell label).
fn write_obs_jsonl(w: &mut impl Write) -> std::io::Result<()> {
    const OBS_LEN: usize = 200_000;
    let trace = mixed_trace(OBS_LEN);
    for (label, config) in [
        ("obs/mixed/standard", Config::standard()),
        ("obs/mixed/victim", Config::standard_victim()),
        ("obs/mixed/soft", Config::soft()),
    ] {
        let e = explain::explain_config(label, &config, &trace, 4096, 16)
            .expect("built-in configs are probeable and must reconcile");
        e.probe.write_jsonl(label, w)?;
    }
    Ok(())
}

/// Peak resident set size in bytes, from `/proc/self/status` `VmHWM`
/// (0 when unavailable, e.g. off Linux).
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<u64>().ok())
            })
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}
