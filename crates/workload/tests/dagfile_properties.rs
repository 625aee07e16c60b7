//! Property tests for the dag file parser: hostile directive-like text
//! never panics, and every per-line error points at a real line.

use abg_workload::dagfile::{parse_dag, DagFileError};
use proptest::prelude::*;

const DIRECTIVES: [&str; 5] = ["tasks", "weight", "edge", "nodes", "# note"];

/// Numbers and non-numbers a hostile file might carry in any field.
const VALUES: [&str; 14] = [
    "0",
    "1",
    "2",
    "7",
    "-1",
    "-0",
    "0.5",
    "NaN",
    "inf",
    "-inf",
    "1e308",
    "4294967295",
    "18446744073709551615",
    "99999999999999999999999",
];

/// Task counts either small (at most 10⁴) or beyond the `u32` ids.
const HUGE_COUNTS: [&str; 4] = [
    "4294967296",
    "5000000000",
    "18446744073709551615",
    "340282366920938463463374607431768211455",
];

/// One directive line from indices drawn by the strategy.
fn render(directive: usize, args: &[usize], small_count: u64) -> String {
    let name = DIRECTIVES[directive];
    let mut line = name.to_string();
    for (i, &a) in args.iter().enumerate() {
        line.push(' ');
        if name == "tasks" && i == 0 {
            if a % 2 == 0 {
                line.push_str(&small_count.to_string());
            } else {
                line.push_str(HUGE_COUNTS[a % HUGE_COUNTS.len()]);
            }
        } else {
            line.push_str(VALUES[a % VALUES.len()]);
        }
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_dag_never_panics_and_locates_its_errors(
        lines in prop::collection::vec(
            (0usize..DIRECTIVES.len(), prop::collection::vec(0usize..64, 0..4), 0u64..=10_000),
            0..12,
        ),
    ) {
        let text: String = lines
            .iter()
            .map(|(d, args, count)| render(*d, args, *count) + "\n")
            .collect();
        let line_count = text.lines().count();
        match parse_dag(&text) {
            Ok(dag) => prop_assert!(dag.num_tasks() <= 10_000),
            Err(DagFileError::Parse { line, message }) => {
                if message != "missing 'tasks' directive" {
                    prop_assert!(
                        (1..=line_count).contains(&line),
                        "line {line} outside 1..={line_count}: {message}\n{text}"
                    );
                }
            }
            Err(DagFileError::Dag(_)) => {}
            Err(DagFileError::Io(e)) => panic!("parsing text did i/o: {e}"),
        }
    }
}
