//! Intra-cell engine sharding (`runner::set_cell_jobs`, the `figures
//! --cell-jobs` flag) folds each shard's metrics back in engine order,
//! so any shard count must render the single-thread bytes.
//!
//! One `#[test]` in its own file: the worker and shard counts are
//! process-global.

use software_assisted_caches::experiments::{figures, runner, Suite};

/// `fig06a` + `fig12` over a fresh small suite (no memo carried over)
/// with `cell_jobs` engine shards per cell.
fn render(cell_jobs: usize) -> String {
    runner::set_cell_jobs(cell_jobs);
    let suite = Suite::small();
    format!("{}\n{}", figures::fig06a(&suite), figures::fig12(&suite))
}

#[test]
fn sharded_cells_render_byte_identical_figures() {
    runner::set_jobs(1);
    let one = render(1);
    let four = render(4);
    runner::set_cell_jobs(1);
    assert_eq!(one, four, "--cell-jobs 4 changed the figure bytes");
}
