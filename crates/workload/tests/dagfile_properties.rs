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

/// Field values a mutation may write over any token of a real dag file.
/// The exact task-count limit (2²⁴) is left out: it parses, and then
/// builds sixteen million tasks, which is valid but slow.
const HOSTILE: [&str; 22] = [
    "NaN",
    "-nan",
    "inf",
    "-inf",
    "-1",
    "-0",
    "0",
    "0.0",
    "1e-320",
    "0.5",
    "1e30",
    "1e308",
    "1.5.5",
    "0x10",
    "16777217",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "é",
    "",
];

/// Characters a garbage line is drawn from, multi-byte ones included.
const GARBAGE: [char; 16] = [
    't', 'a', 's', 'k', 'e', 'd', 'g', 'w', '0', '7', '-', '.', ' ', '\t', '#', 'é',
];

/// Real dag files to mutate: every workflow family, weighted, and one
/// unit dag without a weight table.
fn seed_texts() -> Vec<String> {
    use abg_workload::dagfile::write_dag;
    use abg_workload::WorkflowKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(3);
    let mut texts: Vec<String> = WorkflowKind::ALL
        .iter()
        .map(|kind| write_dag(&kind.generate(4, &mut rng)))
        .collect();
    texts.push("tasks 4\nedge 0 1\nedge 0 2\nedge 1 3\nedge 2 3\n".into());
    texts
}

/// Applies one seeded mutation to `text`.
fn mutate(text: &str, rng: &mut impl rand::Rng) -> String {
    use rand::RngExt as _;
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let n = lines.len();
    let pick = |rng: &mut dyn rand::Rng, len: usize| rng.random_range(0..len.max(1));
    match rng.random_range(0..9u32) {
        // Truncate at a random character boundary, mid-line included.
        0 => {
            let mut cut = rng.random_range(0..=text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_string();
        }
        // Overwrite one token with a hostile value.
        1 => {
            let i = pick(rng, n);
            if let Some(line) = lines.get_mut(i) {
                let mut tokens: Vec<&str> = line.split_whitespace().collect();
                if !tokens.is_empty() {
                    let j = pick(rng, tokens.len());
                    tokens[j] = HOSTILE[pick(rng, HOSTILE.len())];
                    *line = tokens.join(" ");
                }
            }
        }
        // A self-loop on a task that may or may not exist.
        2 => {
            let t = pick(rng, 40);
            lines.push(format!("edge {t} {t}"));
        }
        // Repeat a line: a duplicate edge, weight or `tasks` directive.
        3 => {
            let i = pick(rng, n);
            if let Some(line) = lines.get(i).cloned() {
                lines.push(line);
            }
        }
        // An edge to an id past the declared count, or past `u32`.
        4 => {
            let to = ["40", "4294967295", "4294967296"][pick(rng, 3)];
            lines.push(format!("edge 0 {to}"));
        }
        // Drop a line, the `tasks` header included.
        5 => {
            if n > 0 {
                lines.remove(pick(rng, n));
            }
        }
        // Swap two lines, so a directive may precede `tasks`.
        6 => {
            if n > 0 {
                let (a, b) = (pick(rng, n), pick(rng, n));
                lines.swap(a, b);
            }
        }
        // Insert a garbage line.
        7 => {
            let len = pick(rng, 24);
            let garbage: String = (0..len)
                .map(|_| GARBAGE[pick(rng, GARBAGE.len())])
                .collect();
            lines.insert(pick(rng, n + 1), garbage);
        }
        // Reverse an existing edge: a cycle.
        _ => {
            let edges: Vec<String> = lines
                .iter()
                .filter_map(|l| l.strip_prefix("edge "))
                .map(|e| e.split_whitespace().rev().collect::<Vec<_>>().join(" "))
                .collect();
            if !edges.is_empty() {
                lines.push(format!("edge {}", edges[pick(rng, edges.len())]));
            }
        }
    }
    lines.join("\n")
}

/// Seeded mutations of real dag files: truncations, hostile numbers,
/// self-loops, duplicate lines, out-of-range ids, dropped and swapped
/// lines, garbage and cycles. `parse_dag` must answer every one with a
/// value or an error, never a panic, and any dag it accepts must
/// round-trip through `write_dag`.
#[test]
fn mutated_dag_files_never_panic_the_parser() {
    use abg_workload::dagfile::write_dag;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};
    let texts = seed_texts();
    let mut rng = StdRng::seed_from_u64(0xDA6);
    let (mut accepted, mut refused) = (0, 0);
    for case in 0..400 {
        let mut text = texts[case % texts.len()].clone();
        for _ in 0..rng.random_range(1..=3u32) {
            text = mutate(&text, &mut rng);
        }
        let parsed = std::panic::catch_unwind(|| parse_dag(&text))
            .unwrap_or_else(|_| panic!("parse_dag panicked on case {case}:\n{text}"));
        match parsed {
            Ok(dag) => {
                accepted += 1;
                let again = parse_dag(&write_dag(&dag)).expect("a written dag reloads");
                assert_eq!(again, dag, "case {case} round trip:\n{text}");
            }
            Err(e) => {
                refused += 1;
                assert!(!e.to_string().is_empty(), "case {case}");
            }
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}
