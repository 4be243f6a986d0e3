//! The multi-CPU paths must be byte-deterministic on two trace families:
//!
//! - the `explain --small --cpus 2` (MESI) and
//!   `explain --small --cpus 4 --protocol dragon` reports, rendered
//!   in-process by `run_coherent` over the explainer's mixed trace
//!   sharded round-robin, against `tests/data/coherence_explain_golden.txt`;
//! - the `figures --coherence` tables for both protocols, built with one
//!   worker and with four, against `tests/data/coherence_golden.txt`.
//!
//! Regenerate the explain snapshot only when a report changes on purpose:
//!
//! ```text
//! (explain --small --cpus 2; explain --small --cpus 4 --protocol dragon) \
//!     > tests/data/coherence_explain_golden.txt
//! ```
//!
//! One `#[test]` in its own file: the worker count is process-global.

use software_assisted_caches::experiments::coherence::{
    coherence_table, run_coherent, shard_round_robin, Protocol,
};
use software_assisted_caches::experiments::explain::mixed_trace;
use software_assisted_caches::experiments::{runner, Config};

/// Panics with the first differing line of `got` against `want`.
fn assert_same(what: &str, got: &str, want: &str) {
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "{what} differs at line {}:\ngot:\n{got}\nwant:\n{want}",
            first + 1
        );
    }
}

#[test]
fn coherent_reports_and_tables_are_byte_deterministic() {
    // `explain --small` replays 50,000 references of the mixed trace
    // through the default configuration's cache shape.
    let trace = mixed_trace(50_000);
    let (geom, mem) = Config::soft().shape();
    let mut explain = String::new();
    for (cpus, protocol) in [(2, Protocol::Mesi), (4, Protocol::Dragon)] {
        let label = format!("explain/mixed/{cpus}cpu");
        let tagged = shard_round_robin(&trace, cpus);
        let summary = run_coherent(&label, protocol, geom, mem, cpus, &tagged)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        explain.push_str(&summary.render());
    }
    assert_same(
        "explain --cpus reports vs tests/data/coherence_explain_golden.txt",
        &explain,
        include_str!("data/coherence_explain_golden.txt"),
    );

    let golden = include_str!("data/coherence_golden.txt");
    for jobs in [1, 4] {
        runner::set_jobs(jobs);
        let rendered = format!(
            "{}\n{}\n",
            coherence_table(Protocol::Mesi),
            coherence_table(Protocol::Dragon)
        );
        assert_same(
            &format!("coherence tables at {jobs} job(s)"),
            &rendered,
            golden,
        );
    }
}
