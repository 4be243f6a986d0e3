//! The multi-CPU coherence tables must stay byte-identical to the
//! committed snapshot `tests/data/coherence_golden.txt`, which holds the
//! stdout of `figures --coherence` followed by that of
//! `figures --coherence --protocol dragon`. A changed miss ratio, AMAT or
//! false-sharing percentage fails here, not only a nondeterminism.
//!
//! Regenerate the snapshot only when a table changes on purpose:
//!
//! ```text
//! (figures --coherence; figures --coherence --protocol dragon) > tests/data/coherence_golden.txt
//! ```

use software_assisted_caches::experiments::coherence::{coherence_table, Protocol};

#[test]
fn coherence_tables_match_the_golden_snapshot() {
    let golden = include_str!("data/coherence_golden.txt");
    // `figures` prints each table with `println!`.
    let rendered = format!(
        "{}\n{}\n",
        coherence_table(Protocol::Mesi),
        coherence_table(Protocol::Dragon)
    );
    if rendered != golden {
        let first = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(rendered.lines().count().min(golden.lines().count()));
        panic!(
            "coherence tables differ from tests/data/coherence_golden.txt at line {}:\n\
             got:\n{rendered}\nwant:\n{golden}",
            first + 1
        );
    }
}
