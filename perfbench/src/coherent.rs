//! `coherent_mp`: `run_coherent` under MESI and under Dragon over the
//! nine suite traces, each shared round-robin across 2 and 4 CPUs and
//! privatized at 2 CPUs, plus the write-heavy producer/consumer and
//! false-sharing microkernels at 4 CPUs. The single-CPU engines do no
//! work here.

use crate::files::suite_trace;
use crate::harness::{median, metrics_line, repeat, spread, Checker, Metrics, Rounds, Spans};
use crate::Outcome;
use sac_experiments::coherence::{privatize, run_coherent, shard_round_robin, Protocol};
use sac_simcache::{CacheGeometry, MemoryModel};
use sac_trace::Trace;
use sac_workloads::sharing;
use std::time::{Duration, Instant};

/// Expected outputs for the default seed (the suite's `0x5AC0 + i`).
pub const RECORDED: &str = include_str!("../expected/coherent_mp.txt");

/// How often a run repeats its setup; `setup_s` is the median.
const SETUPS: usize = 3;

const PROTOCOLS: [(Protocol, &str); 2] = [(Protocol::Mesi, "mesi"), (Protocol::Dragon, "dragon")];

/// One coherent input: label, CPU count, whether its data is private to
/// each CPU, and the cpu-tagged trace.
struct Input {
    label: String,
    cpus: usize,
    private: bool,
    trace: Trace,
}

fn setup(seed: u64, spans: &mut Spans) -> (Vec<Input>, Vec<(String, u64)>) {
    let mut inputs = Vec::new();
    let mut hashes = Vec::new();
    for (i, p) in sac_workloads::benchset().iter().enumerate() {
        let t = suite_trace(seed, i, p, spans);
        hashes.push((p.name().to_string(), t.content_hash()));
        let shared2 = shard_round_robin(&t, 2);
        let private2 = privatize(&shared2);
        let shared4 = shard_round_robin(&t, 4);
        let name = p.name();
        inputs.push(Input {
            label: format!("{name}.shared2"),
            cpus: 2,
            private: false,
            trace: shared2,
        });
        inputs.push(Input {
            label: format!("{name}.private2"),
            cpus: 2,
            private: true,
            trace: private2,
        });
        inputs.push(Input {
            label: format!("{name}.shared4"),
            cpus: 4,
            private: false,
            trace: shared4,
        });
    }
    for (label, trace) in [
        ("prod_cons.4", sharing::producer_consumer(4, 50_000, 16)),
        ("false_share.4", sharing::false_sharing(4, 200_000, 4)),
    ] {
        hashes.push((label.to_string(), trace.content_hash()));
        inputs.push(Input {
            label: label.to_string(),
            cpus: 4,
            private: false,
            trace,
        });
    }
    (inputs, hashes)
}

/// Coherence totals of one round.
#[derive(Default)]
struct Totals {
    refs: u64,
    bus_transactions: u64,
    invalidations: u64,
    upgrades: u64,
    c2c_fills: u64,
    false_sharing: u64,
}

/// One round: every input under both protocols. Returns the duration of
/// each `run_coherent` call (the checks in between are not timed).
fn round(inputs: &[Input], spans: &mut Spans, chk: &mut Checker) -> (Vec<Duration>, Totals) {
    let geom = CacheGeometry::standard();
    let mem = MemoryModel::default();
    let mut timed = Vec::new();
    let mut tot = Totals::default();
    for (protocol, pname) in PROTOCOLS {
        for inp in inputs {
            let key = format!("coh.{pname}.{}", inp.label);
            let (res, d) = spans.timed(pname, || {
                run_coherent(&key, protocol, geom, mem, inp.cpus, &inp.trace)
            });
            timed.push(d);
            let s = match res {
                Ok(s) => s,
                Err(e) => {
                    chk.op_failed(&key, &e);
                    continue;
                }
            };
            let c = s.coherence_totals();
            let oracle = if s.metrics.refs as usize != inp.trace.len() {
                Err(format!("{} refs of {}", s.metrics.refs, inp.trace.len()))
            } else if inp.private
                && (c.invalidations_received | c.c2c_fills | c.false_sharing_invalidations) != 0
            {
                Err("private data saw coherence traffic".to_string())
            } else {
                s.metrics.check_invariants()
            };
            let value = format!(
                "{} bus={},{} coh={},{},{},{},{},{},{}",
                metrics_line(&s.metrics),
                s.bus_transactions,
                s.bus_occupancy,
                c.invalidations_sent,
                c.invalidations_received,
                c.false_sharing_invalidations,
                c.upgrades,
                c.c2c_fills,
                c.wb_forwards,
                c.updates
            );
            chk.op(&key, value, oracle);
            tot.refs += s.metrics.refs;
            tot.bus_transactions += s.bus_transactions;
            tot.invalidations += c.invalidations_received;
            tot.upgrades += c.upgrades;
            tot.c2c_fills += c.c2c_fills;
            tot.false_sharing += c.false_sharing_invalidations;
        }
    }
    (timed, tot)
}

pub fn run(seed: u64, seconds: f64, traced: bool, record: bool) -> Outcome {
    let recorded = (seed == 0 && !record).then_some(RECORDED);
    let mut chk = Checker::new(recorded);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup_spans = Spans::new(traced);
    let mut inputs = Vec::new();
    let mut hashes = Vec::new();
    for _ in 0..SETUPS {
        // The previous setup's traces are dropped first, so peak memory
        // holds one copy.
        inputs.clear();
        let t = Instant::now();
        (inputs, hashes) = setup(seed, &mut setup_spans);
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut rounds = Rounds::default();
    let mut spans = Spans::new(true);
    let mut traced_rounds = 0;
    let mut tot = Totals::default();
    repeat(seconds, traced, |tracing| {
        let (timed, totals) = if tracing {
            round(&inputs, &mut spans, &mut chk)
        } else {
            round(&inputs, &mut Spans::new(false), &mut chk)
        };
        tot = totals;
        if tracing {
            traced_rounds += 1;
        } else {
            rounds.push(&timed);
        }
    });
    let wall = rounds.typical();
    let mut e2e = Metrics::default();
    e2e.put("wall_s", wall, "s");
    e2e.put("sim_mrefs_per_s", tot.refs as f64 / wall / 1e6, "Mref/s");
    e2e.put("setup_s", median(&setups), "s");
    let notes = vec![
        format!("round walls: {}", spread(rounds.walls())),
        format!("setup_s: {}", spread(&setups)),
    ];

    let mut layers = Metrics::default();
    if traced {
        // Span totals are per traced round; the counts repeat exactly.
        let n = f64::from(traced_rounds);
        let (mesi, dragon) = (spans.total("mesi") / n, spans.total("dragon") / n);
        layers.put(
            "loopir.setup_s",
            setup_spans.total("Program::trace") / SETUPS as f64,
            "s",
        );
        layers.put("loopir.refs", setup_refs(&inputs) as f64, "count");
        layers.put("coherent.mesi_s", mesi, "s");
        layers.put("coherent.dragon_s", dragon, "s");
        layers.put(
            "coherent.mrefs_per_s",
            tot.refs as f64 / (mesi + dragon) / 1e6,
            "Mref/s",
        );
        layers.put("coherent.refs", tot.refs as f64, "count");
        layers.put(
            "coherent.bus_transactions",
            tot.bus_transactions as f64,
            "count",
        );
        layers.put("coherent.invalidations", tot.invalidations as f64, "count");
        layers.put("coherent.upgrades", tot.upgrades as f64, "count");
        layers.put("coherent.c2c_fills", tot.c2c_fills as f64, "count");
        layers.put("coherent.false_sharing", tot.false_sharing as f64, "count");
        let traced_wall = mesi + dragon;
        layers.put("traced.wall_s", traced_wall, "s");
        layers.put(
            "obs.trace_overhead",
            traced_wall / median(rounds.walls()),
            "ratio",
        );
    }
    Outcome {
        checker: chk,
        e2e,
        layers,
        notes,
        seed: format!("{seed} (trace i uses 0x5AC0 + 9*{seed} + i)"),
        hashes,
    }
}

/// References the suite programs generated: each shared 2-CPU input is
/// one suite trace retagged.
fn setup_refs(inputs: &[Input]) -> usize {
    inputs
        .iter()
        .filter(|i| i.label.ends_with(".shared2"))
        .map(|i| i.trace.len())
        .sum()
}
