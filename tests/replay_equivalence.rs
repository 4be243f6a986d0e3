//! Replay-path equivalence: the streamed chunked replay (SACT decode one
//! chunk at a time, every engine advancing per chunk), the batched
//! whole-`Vec` replay and per-cell [`Config::run`] must produce identical
//! [`Metrics`] at any chunk boundary — the figure suite's byte-identical
//! output rests on this.

use software_assisted_caches::experiments::explain::explain_config;
use software_assisted_caches::experiments::runner::ReplayBatch;
use software_assisted_caches::experiments::{Config, Suite};
use software_assisted_caches::obs::{CountingProbe, ObsConfig, TracingProbe};
use software_assisted_caches::simcache::Metrics;
use software_assisted_caches::trace::io::{read_text, write_binary, ChunkedReader};
use software_assisted_caches::trace::Trace;

fn golden() -> Trace {
    let text = include_str!("data/golden.trace");
    let trace = read_text(text.as_bytes()).expect("golden trace parses");
    assert_eq!(trace.len(), 280);
    trace
}

/// Every organization in the study — all of them run on the shared
/// policy engine, so all of them must replay identically on every path.
/// The set is [`Config::all_organizations`].
fn configs() -> Vec<(String, Config)> {
    Config::all_organizations()
        .iter()
        .map(|(name, config)| (format!("equiv/{name}"), *config))
        .collect()
}

/// Per-cell baseline: each config builds its own engine and replays the
/// whole trace alone through [`Config::run`].
fn one_at_a_time(cells: &[(String, Config)], trace: &Trace) -> Vec<Metrics> {
    cells.iter().map(|(_, cfg)| cfg.run(trace)).collect()
}

/// Batched replay over the in-memory trace, chunked.
fn batched(cells: &[(String, Config)], trace: &Trace) -> Vec<Metrics> {
    let mut batch = ReplayBatch::new();
    for (label, cfg) in cells {
        batch.push(label.clone(), cfg);
    }
    batch.replay(trace)
}

/// Streamed replay: serialize to SACT bytes, then replay straight off the
/// chunked reader, `chunk` entries at a time, without materializing the
/// trace.
fn streamed(cells: &[(String, Config)], trace: &Trace, chunk: usize) -> Vec<Metrics> {
    let mut bytes = Vec::new();
    write_binary(trace, &mut bytes).expect("in-memory SACT write");
    let mut reader = ChunkedReader::with_chunk_size(&bytes[..], chunk).expect("valid SACT header");
    let mut batch = ReplayBatch::new();
    for (label, cfg) in cells {
        batch.push(label.clone(), cfg);
    }
    batch.replay_reader(&mut reader).expect("valid SACT stream")
}

/// The streamed reader's default chunk size.
const DEFAULT_CHUNK: usize = software_assisted_caches::trace::io::DEFAULT_CHUNK;

#[test]
fn golden_trace_replays_identically_on_all_paths() {
    let trace = golden();
    let cells = configs();
    let solo = one_at_a_time(&cells, &trace);
    assert_eq!(solo, batched(&cells, &trace), "batched vs solo");
    assert_eq!(
        solo,
        streamed(&cells, &trace, DEFAULT_CHUNK),
        "streamed vs solo"
    );
    // Small chunks, so even the 280-reference golden trace crosses
    // several chunk boundaries.
    assert_eq!(solo, streamed(&cells, &trace, 7), "7-entry chunks vs solo");
}

/// Drives `engine` over `trace`, either materialized (one `run_chunk`
/// over the whole slice) or chunked (7-entry chunks, so the 280-entry
/// golden trace crosses many chunk boundaries).
fn drive(
    engine: &mut dyn software_assisted_caches::simcache::CacheSim,
    trace: &Trace,
    chunked: bool,
) -> Metrics {
    if chunked {
        for chunk in trace.as_slice().chunks(7) {
            engine.run_chunk(chunk);
        }
    } else {
        engine.run_chunk(trace.as_slice());
    }
    *engine.metrics()
}

/// Attaching a probe must not change a single counter: the probe layer
/// observes the engines, it never steers them. Checked for every
/// organization, with both the full `TracingProbe` and the tiny
/// `CountingProbe`, in materialized and chunked modes.
#[test]
fn probed_replay_is_metric_identical_to_unprobed() {
    let trace = golden();
    for (label, config) in configs() {
        let (geom, _) = config.shape();
        let obs = || ObsConfig::for_cache(geom.lines(), geom.sets(), geom.line_bytes());
        for chunked in [false, true] {
            let plain = drive(&mut *config.build(), &trace, chunked);
            let counting = drive(
                &mut *config.build_probed(CountingProbe::default()),
                &trace,
                chunked,
            );
            let tracing = drive(
                &mut *config.build_probed(TracingProbe::new(obs())),
                &trace,
                chunked,
            );
            assert_eq!(plain, counting, "{label}+counting chunked={chunked}");
            assert_eq!(plain, tracing, "{label}+tracing chunked={chunked}");
        }
    }
}

/// The explainer's telemetry reconciles exactly with the engine counters
/// on the golden trace, and its instrumented run reproduces the same
/// metrics as the plain replay path — for every organization.
#[test]
fn golden_trace_explain_reconciles_exactly() {
    let trace = golden();
    for (label, config) in configs() {
        let e = explain_config(&label, &config, &trace, 64, 1)
            .expect("golden trace telemetry reconciles");
        assert_eq!(e.metrics, config.run(&trace), "{label}");
        e.verify().expect("explicit re-verification holds");
    }
}

/// A random trace with every kind of reference the tag bits can express:
/// reads/writes, temporal/spatial tags, spatial levels and issue gaps,
/// over a footprint that makes every organization hit *and* miss.
fn random_trace(seed: u64, len: usize) -> Trace {
    let mut rng = software_assisted_caches::trace::rng::SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            // Mix dense (hit-heavy, same-line runs) and sparse regions.
            let addr = if rng.chance(0.6) {
                rng.below(1 << 12)
            } else {
                rng.below(1 << 17)
            };
            let a = if rng.chance(0.3) {
                software_assisted_caches::trace::Access::write(addr)
            } else {
                software_assisted_caches::trace::Access::read(addr)
            };
            a.with_temporal(rng.chance(0.4))
                .with_spatial(rng.chance(0.5))
                .with_spatial_level(rng.below(4) as u8)
                .with_gap(rng.below(6) as u32)
                .with_instr(rng.below(32) as u32)
        })
        .collect()
}

/// A random trace where a slice of the addresses have bit 63 set — the
/// top-of-address-space corner, where a tag store that packed line
/// numbers into fewer bits would truncate them.
fn high_address_trace(seed: u64, len: usize) -> Trace {
    let mut rng = software_assisted_caches::trace::rng::SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let mut addr = rng.below(1 << 14);
            if rng.chance(0.25) {
                addr |= 1 << 63;
            }
            let a = if rng.chance(0.3) {
                software_assisted_caches::trace::Access::write(addr)
            } else {
                software_assisted_caches::trace::Access::read(addr)
            };
            a.with_temporal(rng.chance(0.4))
                .with_gap(rng.below(4) as u32)
        })
        .collect()
}

/// Per-engine byte-identity on the one replay path. The name is kept
/// from when this compared the fused and SoA replays against scalar
/// `run_chunk`; only `run_chunk` remains, and the same traces now check
/// it against itself across chunking: for every organization, on the
/// golden trace, random tagged traces and bit-63 line numbers, one
/// whole-slice `run_chunk` equals misaligned 7-entry chunks, and the
/// SACT stream at 7-, 33- and 777-entry chunks equals solo replay.
#[test]
fn fused_replay_is_byte_identical_to_soa_and_scalar() {
    let mut traces = vec![("golden".to_string(), golden())];
    for seed in 0..4u64 {
        traces.push((format!("random{seed}"), random_trace(0xF5ED + seed, 4_000)));
    }
    traces.push(("high63".to_string(), high_address_trace(0x63B17, 4_000)));
    let cells = configs();
    for (tname, trace) in &traces {
        for (label, config) in &cells {
            let whole = drive(&mut *config.build(), trace, false);
            let chunked = drive(&mut *config.build(), trace, true);
            assert_eq!(whole, chunked, "{tname}/{label}: 7-entry chunks vs whole");
        }
        let solo = one_at_a_time(&cells, trace);
        for chunk in [7, 33, 777] {
            assert_eq!(
                solo,
                streamed(&cells, trace, chunk),
                "{tname}: streamed {chunk}-entry chunks vs solo"
            );
        }
    }
}

/// Batch-level differential on random tagged and bit-63 traces. The name
/// is kept from when this also switched the batch between fused and SoA
/// probing; with one replay path left, one batch feeding all the engines
/// must give the same metrics as each engine replaying solo.
#[test]
fn fused_batch_mode_agrees_with_soa_and_solo() {
    let cells = configs();
    for trace in [
        random_trace(0xFA57, 6_000),
        high_address_trace(0x63B18, 6_000),
    ] {
        assert_eq!(
            batched(&cells, &trace),
            one_at_a_time(&cells, &trace),
            "batched vs solo"
        );
    }
}

#[test]
fn generated_suite_trace_replays_identically_on_all_paths() {
    // One real generated workload trace (small scale keeps the test fast).
    let suite = Suite::small();
    let trace = suite.trace("MV").expect("MV in small suite").clone();
    let cells = configs();
    let solo = one_at_a_time(&cells, &trace);
    assert_eq!(solo, batched(&cells, &trace), "batched vs solo");
    assert_eq!(
        solo,
        streamed(&cells, &trace, DEFAULT_CHUNK),
        "streamed vs solo"
    );
}

/// Streamed replay off the compact SAC2 format: serialize with the
/// delta encoder, replay through the sniffing `TraceReader` — the
/// Metrics must match the SACT stream and the batched replay
/// bit-for-bit, across every organization, including chunk sizes that
/// split SAC2 runs mid-stream.
#[test]
fn sact2_streamed_replay_matches_all_other_paths() {
    use software_assisted_caches::trace::io::{write_binary2, TraceReader};

    for trace in [golden(), random_trace(0x5AC2_2026, 4_000)] {
        let cells = configs();
        let mut bytes2 = Vec::new();
        write_binary2(&trace, &mut bytes2).expect("in-memory SAC2 write");

        for chunk_entries in [usize::MAX, 7] {
            let mut reader = if chunk_entries == usize::MAX {
                TraceReader::new(&bytes2[..]).expect("valid SAC2 header")
            } else {
                TraceReader::with_chunk_size(&bytes2[..], chunk_entries).expect("valid SAC2 header")
            };
            assert_eq!(reader.format(), "SAC2");
            let mut batch = ReplayBatch::new();
            for (label, cfg) in &cells {
                batch.push(label.clone(), cfg);
            }
            let from_sact2 = batch.replay_reader(&mut reader).expect("valid SAC2 stream");
            assert_eq!(
                from_sact2,
                streamed(&cells, &trace, DEFAULT_CHUNK),
                "sact2 vs sact stream"
            );
            assert_eq!(from_sact2, batched(&cells, &trace), "sact2 vs batched");
        }
    }
}
