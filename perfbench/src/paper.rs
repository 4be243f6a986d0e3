//! `paper_figures`: the paper-scale suite and its 19 figures, in the
//! order `figures all` prints them, through the default fused batch
//! replay with one worker. The inputs are the paper's own (fixed seeds),
//! so every table digest and work counter is recorded exactly.

use crate::harness::{average, fnv1a, median, repeat, spread, Checker, Metrics, Rounds, Spans};
use crate::Outcome;
use sac_experiments::runner::{self, CellStat};
use sac_experiments::{figures, Suite, Table};
use std::time::{Duration, Instant};

/// Figure ids in paper order (the order of `figures all`).
pub const FIGURES: [&str; 19] = [
    "fig01a", "fig01b", "fig03a", "fig03b", "fig04a", "fig04b", "fig06a", "fig06b", "fig07a",
    "fig07b", "fig08a", "fig08b", "fig09a", "fig09b", "fig10a", "fig10b", "fig11a", "fig11b",
    "fig12",
];

/// Table digests and exact work counts of the paper-scale run.
pub const RECORDED: &str = include_str!("../expected/paper_figures.txt");

fn figure(id: &str, suite: &Suite) -> Table {
    match id {
        "fig01a" => figures::fig01a(suite),
        "fig01b" => figures::fig01b(suite),
        "fig03a" => figures::fig03a(suite),
        "fig03b" => figures::fig03b(suite),
        "fig04a" => figures::fig04a(suite),
        "fig04b" => figures::fig04b(),
        "fig06a" => figures::fig06a(suite),
        "fig06b" => figures::fig06b(suite),
        "fig07a" => figures::fig07a(suite),
        "fig07b" => figures::fig07b(suite),
        "fig08a" => figures::fig08a(suite),
        "fig08b" => figures::fig08b(suite),
        "fig09a" => figures::fig09a(suite),
        "fig09b" => figures::fig09b(suite),
        "fig10a" => figures::fig10a(),
        "fig10b" => figures::fig10b(suite),
        "fig11a" => figures::fig11a(false),
        "fig11b" => figures::fig11b(false),
        "fig12" => figures::fig12(suite),
        _ => unreachable!("FIGURES lists every id"),
    }
}

/// The layer a runner ledger cell belongs to, by its label.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layer {
    Loopir,
    TraceStats,
    Replay,
}

fn layer_of(label: &str) -> Layer {
    if label.ends_with("/trace") {
        Layer::Loopir
    } else if label.ends_with("/reuse") || label.ends_with("/vectors") || label.ends_with("/tags") {
        Layer::TraceStats
    } else {
        Layer::Replay
    }
}

/// One suite generation plus one pass over the 19 figures.
struct Pass {
    setup: Duration,
    wall: Duration,
    /// Each figure's call + render duration, in figure order.
    calls: Vec<Duration>,
    suite_refs: u64,
    /// The runner ledger of the figure pass, and where each figure's
    /// cells start in it.
    cells: Vec<CellStat>,
    starts: Vec<usize>,
    spans: Spans,
    /// Each suite trace's content hash (first pass only).
    hashes: Vec<(String, u64)>,
}

fn pass(traced: bool, hashes: bool, chk: &mut Checker) -> Pass {
    let mut spans = Spans::new(traced);
    let t = Instant::now();
    let suite = spans.run("Suite::paper", Suite::paper);
    let setup = t.elapsed();
    let suite_refs = suite.total_refs() as u64;

    runner::reset_stats();
    let mut starts = Vec::with_capacity(FIGURES.len());
    let mut calls = Vec::with_capacity(FIGURES.len());
    let t = Instant::now();
    for id in FIGURES {
        starts.push(runner::cells_done());
        let (table, d_fig) = spans.timed(id, || figure(id, &suite));
        let (text, d_render) = spans.timed("Table::render", || table.to_string());
        calls.push(d_fig + d_render);
        chk.op(id, format!("{:016x}", fnv1a(text.as_bytes())), Ok(()));
    }
    let wall = t.elapsed();
    let hashes = if hashes {
        suite
            .entries()
            .iter()
            .map(|(name, trace)| (name.clone(), trace.content_hash()))
            .collect()
    } else {
        Vec::new()
    };
    Pass {
        setup,
        wall,
        calls,
        suite_refs,
        cells: runner::cells(),
        starts,
        spans,
        hashes,
    }
}

/// Work counts of a figure pass, summed over its ledger.
#[derive(Default)]
struct Counts {
    replay_cells: u64,
    engine_refs: u64,
    sim_cycles: u64,
    chunks: u64,
    replay_s: f64,
    loopir_s: f64,
    stats_s: f64,
}

fn counts(cells: &[CellStat]) -> Counts {
    let mut c = Counts::default();
    for cell in cells {
        let s = cell.wall.as_secs_f64();
        match layer_of(&cell.label) {
            Layer::Loopir => c.loopir_s += s,
            Layer::TraceStats => c.stats_s += s,
            Layer::Replay => {
                c.replay_s += s;
                c.replay_cells += 1;
                c.engine_refs += cell.metrics.refs;
                c.sim_cycles += cell.metrics.mem_cycles;
                c.chunks += cell.chunks;
            }
        }
    }
    c
}

fn check_counts(p: &Pass, c: &Counts, chk: &mut Checker) {
    chk.op(
        "counts",
        format!(
            "cells={} engine_refs={} sim_cycles={} chunks={} suite_refs={}",
            c.replay_cells, c.engine_refs, c.sim_cycles, c.chunks, p.suite_refs
        ),
        Ok(()),
    );
}

/// The per-layer split of one traced pass. Checks that the layers
/// account for the pass's whole wall time.
fn pass_layers(tp: &Pass, chk: &mut Checker) -> Metrics {
    let tc = counts(&tp.cells);
    let traced_wall = tp.wall.as_secs_f64();
    let mut layers = Metrics::default();
    layers.put("loopir.trace_s", tc.loopir_s, "s");
    layers.put("loopir.setup_s", tp.spans.total("Suite::paper"), "s");
    layers.put("loopir.refs", tp.suite_refs as f64, "count");
    layers.put("trace_stats.s", tc.stats_s, "s");
    layers.put("replay.s", tc.replay_s, "s");
    layers.put(
        "replay.mrefs_per_s",
        tc.engine_refs as f64 / tc.replay_s / 1e6,
        "Mref/s",
    );
    layers.put("replay.engine_refs", tc.engine_refs as f64, "count");
    layers.put("replay.cells", tc.replay_cells as f64, "count");
    layers.put("replay.chunks", tc.chunks as f64, "count");
    layers.put("replay.sim_cycles", tc.sim_cycles as f64, "cycles");
    let mut other = 0.0;
    for (i, id) in FIGURES.iter().enumerate() {
        let end = tp.starts.get(i + 1).copied().unwrap_or(tp.cells.len());
        let cells = &tp.cells[tp.starts[i]..end];
        let in_cells: f64 = cells.iter().map(|c| c.wall.as_secs_f64()).sum();
        let fig_s = tp.spans.total(id);
        other += fig_s - in_cells;
        layers.put(format!("figure.{id}_s"), fig_s, "s");
        layers.put(format!("figure.{id}.cells"), cells.len() as f64, "count");
    }
    layers.put("experiments.other_s", other, "s");
    let render = tp.spans.total("Table::render");
    layers.put("table.render_s", render, "s");
    layers.put("traced.wall_s", traced_wall, "s");
    // The layer split must account for the whole traced wall: what no
    // span covers is the harness's own loop, which stays tiny.
    let accounted = tc.loopir_s + tc.stats_s + tc.replay_s + other + render;
    if (traced_wall - accounted).abs() > 0.01 * traced_wall {
        chk.op_failed(
            "layer_accounting",
            &format!("layers cover {accounted:.4} s of {traced_wall:.4} s"),
        );
    }
    layers
}

pub fn run(seconds: f64, traced: bool, record: bool) -> Outcome {
    let mut chk = Checker::new((!record).then_some(RECORDED));
    let mut plain: Vec<Pass> = Vec::new();
    let mut layered: Vec<Metrics> = Vec::new();
    let mut hashes = Vec::new();
    repeat(seconds, traced, |tracing| {
        let p = pass(tracing, hashes.is_empty(), &mut chk);
        check_counts(&p, &counts(&p.cells), &mut chk);
        if hashes.is_empty() {
            hashes = p.hashes.clone();
        }
        if tracing {
            layered.push(pass_layers(&p, &mut chk));
        } else {
            plain.push(p);
        }
    });

    let c = counts(&plain[0].cells);
    let mut rounds = Rounds::default();
    for p in &plain {
        rounds.push(&p.calls);
    }
    let setups: Vec<f64> = plain.iter().map(|p| p.setup.as_secs_f64()).collect();
    let wall = rounds.typical();
    let mut e2e = Metrics::default();
    e2e.put("wall_s", wall, "s");
    e2e.put(
        "sim_mrefs_per_s",
        c.engine_refs as f64 / wall / 1e6,
        "Mref/s",
    );
    e2e.put("setup_s", median(&setups), "s");
    let mut notes = vec![
        format!("pass walls: {}", spread(rounds.walls())),
        format!("setup_s: {}", spread(&setups)),
        format!(
            "runner ledger: {} cells, {} of them replay; {} engine refs, {} simulated cycles",
            plain[0].cells.len(),
            c.replay_cells,
            c.engine_refs,
            c.sim_cycles
        ),
    ];

    let mut layers = average(&layered);
    if traced {
        let get = |n: &str| layers.get(n).unwrap_or(0.0);
        let overhead = get("traced.wall_s") / median(rounds.walls());
        notes.push(format!(
            "layer accounting: replay.s + loopir.trace_s + trace_stats.s + experiments.other_s \
             + table.render_s = {:.4} s of traced wall {:.4} s",
            get("replay.s")
                + get("loopir.trace_s")
                + get("trace_stats.s")
                + get("experiments.other_s")
                + get("table.render_s"),
            get("traced.wall_s")
        ));
        layers.put("obs.trace_overhead", overhead, "ratio");
    }
    Outcome {
        checker: chk,
        e2e,
        layers,
        notes,
        seed: "fixed (the paper's suite seeds 0x5AC0 + i)".to_string(),
        hashes,
    }
}
