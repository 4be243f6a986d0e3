//! The workloads and metrics the benchmark reports, and the
//! `BENCHMARK.json` that describes them.

use crate::harness::json_str;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_figures",
        why: "the paper-scale suite and its 19 figures through fused batch replay; fixed seed \
              (the paper's outputs), --seed is ignored",
    },
    Workload {
        name: "trace_files",
        why: "sac trace -> sac simulate: SACT/SAC2 decode (mmap and streamed) and scalar \
              Config::run of 8 organizations; loopir and batch replay stay out of the timed part",
    },
    Workload {
        name: "coherent_mp",
        why: "multi-CPU MESI and Dragon on shared, private and write-heavy traces; the \
              single-CPU engines do no work",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_mrefs_per_s",
        unit: "Mref/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The eight organizations of `Config::all_organizations`, by name.
pub const ORGS: [&str; 8] = [
    "standard", "victim", "bypass", "prefetch", "stream", "colassoc", "assist", "soft",
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        v.push((name.to_string(), unit, better));
    };
    add("loopir.trace_s", "s", "lower");
    add("loopir.setup_s", "s", "lower");
    add("loopir.refs", "count", "lower");
    add("trace_stats.s", "s", "lower");
    add("replay.s", "s", "lower");
    add("replay.mrefs_per_s", "Mref/s", "higher");
    add("replay.engine_refs", "count", "lower");
    add("replay.cells", "count", "lower");
    add("replay.chunks", "count", "lower");
    add("replay.sim_cycles", "cycles", "lower");
    for org in ORGS {
        add(&format!("replay.{org}_s"), "s", "lower");
    }
    add("trace_io.encode_sact_s", "s", "lower");
    add("trace_io.encode_sac2_s", "s", "lower");
    for fmt in ["sact", "sac2"] {
        for reader in ["mmap", "stream"] {
            add(&format!("trace_io.decode_{fmt}_{reader}_s"), "s", "lower");
        }
    }
    add("trace_io.bytes_per_ref_sact", "B/ref", "lower");
    add("trace_io.bytes_per_ref_sac2", "B/ref", "lower");
    add("coherent.mesi_s", "s", "lower");
    add("coherent.dragon_s", "s", "lower");
    add("coherent.mrefs_per_s", "Mref/s", "higher");
    for c in [
        "refs",
        "bus_transactions",
        "invalidations",
        "upgrades",
        "c2c_fills",
        "false_sharing",
    ] {
        add(&format!("coherent.{c}"), "count", "lower");
    }
    for id in crate::paper::FIGURES {
        add(&format!("figure.{id}_s"), "s", "lower");
        add(&format!("figure.{id}.cells"), "count", "lower");
    }
    add("experiments.other_s", "s", "lower");
    add("table.render_s", "s", "lower");
    add("traced.wall_s", "s", "lower");
    add("obs.trace_overhead", "ratio", "lower");
    v.into_iter()
        .map(|(name, unit, better)| PerLayer { name, unit, better })
        .collect()
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 25;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
