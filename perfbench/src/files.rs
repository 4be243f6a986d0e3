//! `trace_files`: the `sac trace` → `sac simulate` path. Setup generates
//! the nine suite traces with `Program::trace` and writes each as SACT
//! and as SAC2; the timed part decodes every file with the mapped and
//! the streamed reader and replays the decoded trace under the eight
//! organizations with the scalar `Config::run`.

use crate::catalog::ORGS;
use crate::harness::{median, metrics_line, repeat, spread, Checker, Metrics, Rounds, Spans};
use crate::Outcome;
use sac_experiments::runner::ReplayBatch;
use sac_experiments::Config;
use sac_loopir::TraceOptions;
use sac_trace::io::{drain_to_trace, write_binary, write_binary2, FileSource};
use sac_trace::Trace;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Expected outputs for the default seed (the suite's `0x5AC0 + i`).
pub const RECORDED: &str = include_str!("../expected/trace_files.txt");

/// How often a run repeats its setup; `setup_s` is the median.
const SETUPS: usize = 3;

/// Traces suite program `i` with `Program::trace` under workload seed
/// `seed`: seed 0 gives the paper suite's trace seeds `0x5AC0 + i`, and
/// each further seed takes the next nine.
pub fn suite_trace(seed: u64, i: usize, p: &sac_loopir::Program, spans: &mut Spans) -> Trace {
    let opts = TraceOptions {
        seed: 0x5AC0 + 9 * seed + i as u64,
        gaps: true,
        levels: false,
    };
    spans.run("Program::trace", || {
        p.trace(&opts)
            .unwrap_or_else(|e| panic!("workload {} failed to trace: {e}", p.name()))
    })
}

/// A suite trace written to disk: what setup knows about it.
struct TraceFile {
    name: String,
    hash: u64,
    refs: usize,
    sact: PathBuf,
    sac2: PathBuf,
}

fn write_file(
    path: &Path,
    trace: &Trace,
    write: fn(&Trace, &mut BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write(trace, &mut w)?;
    w.flush()
}

/// Writes the files' dirty pages back to disk, so that no write-back of
/// one setup overlaps the next setup or the timed rounds. Not timed.
fn settle(files: &[TraceFile]) -> std::io::Result<()> {
    for f in files {
        for path in [&f.sact, &f.sac2] {
            std::fs::File::open(path)?.sync_all()?;
        }
    }
    Ok(())
}

fn setup(seed: u64, dir: &Path, spans: &mut Spans) -> std::io::Result<Vec<TraceFile>> {
    let mut out = Vec::new();
    for (i, p) in sac_workloads::benchset().iter().enumerate() {
        let trace = suite_trace(seed, i, p, spans);
        let sact = dir.join(format!("{}.sact", p.name()));
        let sac2 = dir.join(format!("{}.sac2", p.name()));
        spans.run("SactWriter", || {
            write_file(&sact, &trace, |t, w| write_binary(t, w))
        })?;
        spans.run("Sact2Writer", || {
            write_file(&sac2, &trace, |t, w| write_binary2(t, w))
        })?;
        out.push(TraceFile {
            name: p.name().to_string(),
            hash: trace.content_hash(),
            refs: trace.len(),
            sact,
            sac2,
        });
    }
    Ok(out)
}

/// The four ways the timed part decodes a file.
const DECODES: [(&str, &str); 4] = [
    ("sact", "mmap"),
    ("sact", "stream"),
    ("sac2", "mmap"),
    ("sac2", "stream"),
];

/// A decoded trace and the eight organizations' results over it.
type Replayed = (Trace, Vec<sac_simcache::Metrics>);

/// One round over every file. Returns the duration of each decode and
/// replay call (the checks in between are not timed) and each file's
/// last decoded trace with its results, for the post-run oracle.
fn round(
    files: &[TraceFile],
    spans: &mut Spans,
    chk: &mut Checker,
) -> (Vec<Duration>, Vec<Replayed>) {
    let orgs = Config::all_organizations();
    let mut timed = Vec::new();
    let mut kept = Vec::with_capacity(files.len());
    for f in files {
        let mut last = None;
        for (fmt, reader) in DECODES {
            let path = if fmt == "sact" { &f.sact } else { &f.sac2 };
            let key = format!("decode.{}.{fmt}.{reader}", f.name);
            let (decoded, d) = spans.timed(&format!("decode_{fmt}_{reader}"), || {
                let mut src = if reader == "mmap" {
                    FileSource::open(path)?
                } else {
                    FileSource::open_streamed(path)?
                };
                drain_to_trace(&mut src)
            });
            timed.push(d);
            match decoded {
                Ok(t) => {
                    let (hash, refs) = (t.content_hash(), t.len());
                    let oracle = if hash == f.hash && refs == f.refs {
                        Ok(())
                    } else {
                        Err(format!(
                            "decoded {hash:016x}/{refs} refs, generated {:016x}/{}",
                            f.hash, f.refs
                        ))
                    };
                    chk.op(&key, format!("{hash:016x},{refs}"), oracle);
                    last = Some(t);
                }
                Err(e) => chk.op_failed(&key, &e.to_string()),
            }
        }
        let Some(t) = last else { continue };
        let mut results = Vec::with_capacity(orgs.len());
        for (org, cfg) in &orgs {
            let (m, d) = spans.timed(&format!("run_{org}"), || cfg.run(&t));
            timed.push(d);
            let oracle = if m.refs as usize == t.len() {
                m.check_invariants()
            } else {
                Err(format!("{} refs replayed of {}", m.refs, t.len()))
            };
            chk.op(&format!("run.{}.{org}", f.name), metrics_line(&m), oracle);
            results.push(m);
        }
        kept.push((t, results));
    }
    (timed, kept)
}

pub fn run(seed: u64, seconds: f64, traced: bool, record: bool) -> Outcome {
    let recorded = (seed == 0 && !record).then_some(RECORDED);
    let mut chk = Checker::new(recorded);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("trace_files-{}", std::process::id()));
    let mut out = Outcome {
        checker: Checker::new(None),
        e2e: Metrics::default(),
        layers: Metrics::default(),
        notes: Vec::new(),
        seed: format!("{seed} (trace i uses 0x5AC0 + 9*{seed} + i)"),
        hashes: Vec::new(),
    };
    let measured = std::fs::create_dir_all(&dir)
        .and_then(|()| measure(seed, seconds, traced, &dir, &mut chk, &mut out));
    // The trace files are scratch: remove them whatever happened, and
    // the work directory too once no other run uses it.
    std::fs::remove_dir_all(&dir).ok();
    if let Some(work) = dir.parent() {
        std::fs::remove_dir(work).ok();
    }
    if let Err(e) = measured {
        chk.op_failed("setup", &e.to_string());
    }
    out.checker = chk;
    out
}

fn measure(
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
    chk: &mut Checker,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut files = Vec::new();
    let mut setup_spans = Spans::new(traced);
    for _ in 0..SETUPS {
        let t = Instant::now();
        files = setup(seed, dir, &mut setup_spans)?;
        setups.push(t.elapsed().as_secs_f64());
        settle(&files)?;
    }
    out.hashes = files.iter().map(|f| (f.name.clone(), f.hash)).collect();
    let refs: usize = files.iter().map(|f| f.refs).sum();
    // Every organization replays each reference once.
    let engine_refs = (refs * ORGS.len()) as f64;
    let mut sizes = [0u64; 2];
    for f in &files {
        for (i, (fmt, path)) in [("sact", &f.sact), ("sac2", &f.sac2)].iter().enumerate() {
            let bytes = std::fs::metadata(path)?.len();
            sizes[i] += bytes;
            chk.op(&format!("size.{}.{fmt}", f.name), bytes.to_string(), Ok(()));
        }
    }

    let mut rounds = Rounds::default();
    let mut spans = Spans::new(true);
    let mut traced_rounds = 0;
    let mut kept = Vec::new();
    repeat(seconds, traced, |tracing| {
        let (timed, replayed) = if tracing {
            round(&files, &mut spans, chk)
        } else {
            round(&files, &mut Spans::new(false), chk)
        };
        kept = replayed;
        if tracing {
            traced_rounds += 1;
        } else {
            rounds.push(&timed);
        }
    });
    let wall = rounds.typical();
    out.e2e.put("wall_s", wall, "s");
    out.e2e
        .put("sim_mrefs_per_s", engine_refs / wall / 1e6, "Mref/s");
    out.e2e.put("setup_s", median(&setups), "s");
    out.notes
        .push(format!("round walls: {}", spread(rounds.walls())));
    out.notes.push(format!("setup_s: {}", spread(&setups)));

    if traced {
        // Span totals are per traced round and per setup.
        let n = f64::from(traced_rounds);
        let per_setup = SETUPS as f64;
        let layers = &mut out.layers;
        layers.put(
            "loopir.setup_s",
            setup_spans.total("Program::trace") / per_setup,
            "s",
        );
        layers.put("loopir.refs", refs as f64, "count");
        let mut replay = 0.0;
        for org in ORGS {
            let s = spans.total(&format!("run_{org}")) / n;
            replay += s;
            layers.put(format!("replay.{org}_s"), s, "s");
        }
        layers.put("replay.s", replay, "s");
        layers.put("replay.mrefs_per_s", engine_refs / replay / 1e6, "Mref/s");
        layers.put("replay.engine_refs", engine_refs, "count");
        layers.put(
            "trace_io.encode_sact_s",
            setup_spans.total("SactWriter") / per_setup,
            "s",
        );
        layers.put(
            "trace_io.encode_sac2_s",
            setup_spans.total("Sact2Writer") / per_setup,
            "s",
        );
        for (fmt, reader) in DECODES {
            let name = format!("decode_{fmt}_{reader}");
            layers.put(format!("trace_io.{name}_s"), spans.total(&name) / n, "s");
        }
        layers.put(
            "trace_io.bytes_per_ref_sact",
            sizes[0] as f64 / refs as f64,
            "B/ref",
        );
        layers.put(
            "trace_io.bytes_per_ref_sac2",
            sizes[1] as f64 / refs as f64,
            "B/ref",
        );
        // Spans cover exactly the timed calls of the traced rounds.
        let traced_wall = spans.total_all() / n;
        layers.put("traced.wall_s", traced_wall, "s");
        layers.put(
            "obs.trace_overhead",
            traced_wall / median(rounds.walls()),
            "ratio",
        );
        out.notes.push(format!(
            "layer accounting: replay.s {replay:.4} s + trace_io decode {:.4} s = traced wall \
             {:.4} s",
            traced_wall - replay,
            traced_wall
        ));
    }

    // Oracle for the scalar replay, outside the timing: the fused batch
    // path is an independent implementation and must give the same
    // counters on every organization.
    for (t, scalar) in &kept {
        let mut batch = ReplayBatch::new();
        for (org, cfg) in Config::all_organizations() {
            batch.push(format!("oracle/{}/{org}", t.name()), &cfg);
        }
        let oracle = if batch.replay(t) == *scalar {
            Ok(())
        } else {
            Err("fused batch replay disagrees with Config::run".to_string())
        };
        chk.op(&format!("oracle.{}", t.name()), "agree".to_string(), oracle);
    }
    Ok(())
}
