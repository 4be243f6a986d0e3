//! The run-level span layer is inert while disabled: a sweep records no
//! span and no RSS sample. Enabled, the same sweep records cell spans
//! that account for every replayed engine reference.
//!
//! One `#[test]` in its own file: the span store and the runner ledger
//! are process-global, so no other test may record alongside.

use software_assisted_caches::experiments::{figures, runner, Suite};
use software_assisted_caches::obs::span::{self, SpanLevel};

/// Resets the span store and the ledger, runs `fig06a` over a fresh
/// small suite with spans `on`, samples RSS the way the `figures` binary
/// does at a figure boundary, and returns the rendered table.
fn sweep(on: bool) -> String {
    span::set_enabled(on);
    span::reset();
    runner::reset_stats();
    let table = figures::fig06a(&Suite::small()).to_string();
    span::sample_rss(1);
    table
}

#[test]
fn disabled_spans_record_nothing_and_enabled_spans_cover_every_cell() {
    let off = sweep(false);
    let (spans, rss) = span::snapshot();
    assert_eq!(spans.len(), 0, "disabled span layer recorded spans");
    assert_eq!(rss.len(), 0, "disabled span layer recorded RSS samples");

    let on = sweep(true);
    span::set_enabled(false);
    let (spans, rss) = span::snapshot();
    assert_eq!(off, on, "enabling spans changed the table");
    assert_eq!(rss.len(), 1);
    let cells: Vec<_> = spans
        .iter()
        .filter(|s| s.level == SpanLevel::Cell)
        .collect();
    assert!(!cells.is_empty(), "enabled span layer recorded no cell");
    let span_refs: u64 = cells
        .iter()
        .flat_map(|s| &s.args)
        .filter(|(name, _)| *name == "refs")
        .map(|&(_, refs)| refs)
        .sum();
    let ledger_refs: u64 = runner::cells().iter().map(|c| c.metrics.refs).sum();
    assert!(ledger_refs > 0);
    assert_eq!(
        span_refs, ledger_refs,
        "cell spans miss replayed references"
    );
}
