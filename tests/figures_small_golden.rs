//! The whole `--small` figure suite must stay byte-identical to the
//! committed snapshot `tests/data/figures_small_golden.txt`, which holds
//! the stdout of `figures --jobs 1 --small` for `all`, `ablations` and
//! `extensions`, in that order. The tables are rendered in-process from
//! one small suite; every single-CPU organization and the shared memory
//! system under them is pinned here.
//!
//! Regenerate the snapshot only when a figure changes on purpose:
//!
//! ```text
//! for set in all ablations extensions; do
//!   figures --jobs 1 --small $set
//! done > tests/data/figures_small_golden.txt 2>/dev/null
//! ```
//!
//! One `#[test]` in its own file: the worker count is process-global.

use software_assisted_caches::experiments::{cli, figures, runner, Suite};

#[test]
fn small_figures_match_the_golden_snapshot() {
    let golden = include_str!("data/figures_small_golden.txt");
    runner::set_jobs(1);
    let suite = Suite::small();
    let mut rendered = String::new();
    for id in cli::PAPER_FIGURES
        .iter()
        .chain(&cli::ABLATIONS)
        .chain(&cli::EXTENSIONS)
    {
        let table = figures::by_id(id, Some(&suite), true).expect("a known figure id");
        // `figures` prints each table with `println!`.
        rendered.push_str(&format!("{table}\n"));
    }
    if rendered != golden {
        let first = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(rendered.lines().count().min(golden.lines().count()));
        panic!(
            "small figures differ from tests/data/figures_small_golden.txt at line {}:\n\
             got:\n{}\nwant:\n{}",
            first + 1,
            rendered.lines().nth(first).unwrap_or("<end>"),
            golden.lines().nth(first).unwrap_or("<end>")
        );
    }
}
