//! The content-addressed result store, cold vs warm: a cold sweep over
//! a fresh store replays every suite cell and persists it; a warm sweep
//! of a new suite over the same directory must serve every cell from
//! disk — zero store misses, zero replayed engine references — and
//! render byte-identical tables.
//!
//! One `#[test]` in its own file: the runner ledger and the metrics
//! registry are process-global, so no other test may sweep alongside.

use software_assisted_caches::experiments::{figures, runner, ResultStore, Suite};
use software_assisted_caches::obs::registry;

/// Runs `fig06a` + `fig07a` over a fresh small suite backed by the store
/// in `dir`; returns the rendered tables, the `store.hits` /
/// `store.misses` counters and the engine references the sweep replayed.
fn sweep(dir: &std::path::Path) -> (String, u64, u64, u64) {
    registry::reset_global();
    runner::reset_stats();
    let mut suite = Suite::small();
    suite.attach_store(ResultStore::open(dir).expect("store dir"));
    let tables = format!("{}\n{}", figures::fig06a(&suite), figures::fig07a(&suite));
    let reg = registry::snapshot();
    let refs = runner::cells().iter().map(|c| c.metrics.refs).sum();
    (
        tables,
        reg.counter("store.hits"),
        reg.counter("store.misses"),
        refs,
    )
}

#[test]
fn warm_store_sweep_replays_nothing_and_renders_identical_tables() {
    let dir = std::env::temp_dir().join(format!("sac-store-warm-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let (cold, cold_hits, cold_misses, cold_refs) = sweep(&dir);
    assert_eq!(cold_hits, 0, "a fresh store cannot hit");
    assert!(cold_misses > 0, "the cold sweep looked nothing up");
    assert!(cold_refs > 0, "the cold sweep replayed nothing");

    let (warm, warm_hits, warm_misses, warm_refs) = sweep(&dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(cold, warm, "cold and warm tables differ");
    assert_eq!(warm_misses, 0, "the warm sweep missed the store");
    assert!(warm_hits > 0, "the warm sweep never read the store");
    assert_eq!(warm_refs, 0, "the warm sweep replayed engine references");
}
