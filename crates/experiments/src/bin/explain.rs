//! Explains one cache configuration's behavior from probe telemetry.
//!
//! ```text
//! cargo run --release -p sac-experiments --bin explain
//! cargo run --release -p sac-experiments --bin explain -- --config standard --trace miss
//! cargo run --release -p sac-experiments --bin explain -- --obs-json obs.jsonl --sample 8
//! ```
//!
//! Runs the chosen configuration over a deterministic trace with the full
//! [`TracingProbe`] attached, prints the per-mechanism breakdown (miss
//! causes, hot sets, bounce-back / virtual-line / prefetch attribution),
//! and verifies that every event total reconciles exactly with the
//! engine's `Metrics` counters.
//!
//! `--obs-json PATH` additionally writes the telemetry (summary,
//! histograms, sampled events) as JSON Lines; the path is validated
//! up front so a long run cannot die at the final write.
//!
//! `--timeline` re-runs the same configuration with the windowed
//! [`Timeline`] probe attached (window width `--window`, default 8192
//! references) and prints the per-window table and phase summary; the
//! window sums are verified to reconcile *exactly* with the global
//! `Metrics` counters before anything is printed.
//!
//! `--diff CONFIG` replays the same trace through the `--config` side
//! and CONFIG in lockstep and prints the divergence report: every
//! reference whose outcome differs between the two (hit ↔ miss,
//! different miss class, extra writebacks, ...) is attributed to a
//! mechanism (victim save, prefetch coverage, bypass side-effect, ...),
//! and the per-mechanism counter deltas are verified to sum *exactly*
//! to the difference of the two sides' global metrics before anything
//! is printed. `--diff-json PATH` additionally writes the report
//! (mechanisms, top diverging lines with lifetime stats, top sets) as
//! JSON Lines.
//!
//! `--cpus N` (with optional `--protocol mesi|dragon`) shards the trace
//! round-robin over N CPUs and replays it through the coherent
//! multi-core memory system instead of a single engine: per-CPU metrics,
//! coherence counters (invalidations with their false-sharing split,
//! upgrades, cache-to-cache fills, write-buffer forwards, updates) and
//! shared-bus totals are printed after the SWMR invariant and the
//! per-CPU ↔ global metrics reconciliation are verified. Every CPU runs
//! the standard cache and nothing but that report is printed, so with
//! `--cpus` above 1 the parser rejects `--obs-json`, `--timeline`,
//! `--diff`, `--diff-json`, `--store` and an explicit `--config` other
//! than `standard`.
//!
//! `--store DIR` opens a content-addressed result store: if DIR already
//! holds this cell (same trace content, config, engine version) the
//! stored counters are cross-checked against this run, otherwise the
//! run's counters seed the store.
//!
//! `--help` prints the usage. The whole command line is validated
//! before any trace is generated or any output file is created: an
//! unknown flag, configuration, trace or protocol name, a `--cpus`
//! count out of range, a flag `--cpus` does not use, or `--diff-json`
//! without `--diff` exits with status 2.
//!
//! [`TracingProbe`]: sac_obs::TracingProbe
//! [`Timeline`]: sac_obs::Timeline

use sac_experiments::cli::{self, ExplainCommand};
use sac_experiments::coherence;
use sac_experiments::diff::diff_configs;
use sac_experiments::explain::{
    explain_config, explain_timeline, hit_heavy_trace, miss_heavy_trace, mixed_trace,
};
use sac_experiments::runner::REPLAY_CHUNK;
use sac_experiments::ResultStore;
use sac_obs::registry;
use sac_trace::Trace;
use std::io::{BufWriter, Write};
use std::time::Instant;

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    // The whole command line is checked before any work: a bad flag or
    // name exits 2 here, before a trace is generated or a file created.
    let args = match cli::parse_explain_args(std::env::args().skip(1)) {
        Ok(ExplainCommand::Help) => {
            print!("{}", cli::EXPLAIN_USAGE);
            return;
        }
        Ok(ExplainCommand::Run(args)) => *args,
        Err(e) => fail(&e),
    };
    let (config, top) = (args.config, args.top);

    // Validate output paths up front: a long instrumented run must not
    // die at the final write because the directory does not exist.
    let writer = |flag: &str, path: &String| match sac_trace::io::create_output(path) {
        Ok(f) => (path.clone(), BufWriter::new(f)),
        Err(e) => fail(&format!("{flag}: {e}")),
    };
    let obs_writer = args.obs_json.as_ref().map(|p| writer("--obs-json", p));
    let diff_writer = args.diff_json.as_ref().map(|p| writer("--diff-json", p));
    let store = args
        .store
        .map(|dir| ResultStore::open(&dir).unwrap_or_else(|e| fail(&format!("--store: {e}"))));

    let trace: Trace = match args.trace.as_str() {
        "mixed" => mixed_trace(args.len),
        "hit" => hit_heavy_trace(args.len),
        "miss" => miss_heavy_trace(args.len),
        other => unreachable!("--trace {other} passed cli::parse_explain_args"),
    };

    // The multi-CPU path: shard the chosen trace round-robin over the
    // CPUs and run the coherent system instead of a single engine. The
    // run is verified (SWMR + per-CPU↔global reconciliation) inside
    // `run_coherent` before anything is printed; the parser already
    // rejected the flags this branch does not use. The uniprocessor
    // explainer below is untouched when `--cpus` is 1 or absent.
    if args.cpus > 1 {
        let cpus = args.cpus;
        let (geom, mem) = config.shape();
        let tagged = coherence::shard_round_robin(&trace, cpus);
        let label = format!("explain/{}/{cpus}cpu", args.trace);
        let start = Instant::now();
        let summary = coherence::run_coherent(&label, args.protocol, geom, mem, cpus, &tagged)
            .unwrap_or_else(|e| fail(&format!("coherent run failed: {e}")));
        print!("{}", summary.render());
        eprintln!("coherent run took {:.2?}", start.elapsed());
        return;
    }

    let label = format!("explain/{}/{}", args.trace, args.config_name);
    let start = Instant::now();
    let explanation = match explain_config(&label, &config, &trace, args.ring, args.sample) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("explain failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", explanation.render(top));
    eprintln!("instrumented run took {:.2?}", start.elapsed());

    if args.timeline {
        match explain_timeline(&label, &config, &trace, args.window) {
            Ok((tl, _metrics)) => {
                print!("{}", tl.render(&label));
                println!(
                    "timeline: {} windows, {} phases; window sums reconcile exactly \
                     with the global metrics",
                    tl.windows().len(),
                    tl.phases().len()
                );
            }
            Err(e) => {
                eprintln!("timeline reconciliation failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some((path, mut w)) = obs_writer {
        explanation
            .probe
            .write_jsonl(&label, &mut w)
            .and_then(|()| w.flush())
            .unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
        eprintln!("wrote telemetry JSONL to {path}");
    }

    // The differential pass: replay the same trace through this config
    // and the `--diff` config in lockstep, attribute every divergent
    // reference to a mechanism, and reconcile the attribution exactly
    // against the two sides' counter difference before printing.
    if let Some((name_b, config_b)) = &args.diff {
        let label_b = format!("explain/{}/{name_b}", args.trace);
        let diff_start = Instant::now();
        let report = diff_configs(&label, &config, &label_b, config_b, &trace, REPLAY_CHUNK)
            .unwrap_or_else(|e| fail(&format!("diff failed: {e}")));
        print!("{}", report.render(top));
        eprintln!("lockstep diff took {:.2?}", diff_start.elapsed());
        if let Some((path, mut w)) = diff_writer {
            report
                .write_jsonl(&mut w, top)
                .and_then(|()| w.flush())
                .unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
            eprintln!("wrote diff JSONL to {path}");
        }
    }

    // With a store attached, this run either seeds the cell or is
    // cross-checked against the stored result: the probed engine must
    // reproduce exactly what an earlier (unprobed or probed) run stored
    // for the same trace content, config and engine version.
    if let Some(store) = &store {
        let hash = trace.content_hash();
        match store.load(hash, &config) {
            Some(m) if m == explanation.metrics => {
                registry::global_counter_add("store.hits", 1);
                eprintln!("store: verified this run against {}", store.dir().display());
            }
            Some(_) => fail(&format!(
                "store: {} holds different metrics for this cell under the same \
                 engine version — stale or corrupt store, delete it or bump \
                 ENGINE_VERSION after a semantics change",
                store.dir().display()
            )),
            None => {
                registry::global_counter_add("store.misses", 1);
                store
                    .save(hash, &config, &explanation.metrics)
                    .unwrap_or_else(|e| fail(&format!("store: {e}")));
                eprintln!("store: recorded this cell in {}", store.dir().display());
            }
        }
        // The same summary line (and registry snapshot) the figures
        // store path prints, so both binaries surface the store
        // counters identically.
        let reg = registry::snapshot();
        eprintln!(
            "store: {} hit(s), {} miss(es), {} entr{} in {}",
            reg.counter("store.hits"),
            reg.counter("store.misses"),
            store.len(),
            if store.len() == 1 { "y" } else { "ies" },
            store.dir().display()
        );
        eprint!("{}", reg.render_text());
    }
}
