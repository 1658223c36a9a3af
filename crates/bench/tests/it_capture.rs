//! The paper's tables and figures, pinned byte for byte: every section
//! of `experiments::SECTIONS`, rendered as `all_experiments` prints it,
//! must equal the committed `results/all_experiments.txt`. The simulator
//! is deterministic, so any change to a kernel, the timing model or an
//! experiment that moves a digit of any table fails here.
//!
//! A change meant to move the paper's numbers rewrites the capture with
//!
//! ```text
//! cargo run --release -q -p tbs-bench --bin all_experiments > results/all_experiments.txt
//! ```
//!
//! and says in CHANGES.md why the numbers moved.

use tbs_bench::experiments::SECTIONS;

const CAPTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/all_experiments.txt"
);

/// At most this many differing lines are printed on a mismatch.
const SHOWN: usize = 40;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about a minute in a debug build; the release test run covers it"
)]
fn all_experiments_matches_its_capture() {
    let mut actual = String::new();
    for s in SECTIONS {
        let rep = (s.build)().unwrap_or_else(|e| panic!("section `{}`: {e}", s.name));
        assert_eq!(rep.name, s.name, "a section is keyed by its report name");
        actual.push_str(&s.render(&rep));
    }
    let expected = std::fs::read_to_string(CAPTURE).expect("read the committed capture");
    if actual == expected {
        return;
    }

    let want: Vec<&str> = expected.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let differing: Vec<usize> = (0..want.len().max(got.len()))
        .filter(|&i| want.get(i) != got.get(i))
        .collect();
    let mut report = format!(
        "all_experiments differs from {CAPTURE} on {} line(s) \
         ({} expected, {} actual):\n",
        differing.len(),
        want.len(),
        got.len()
    );
    for &i in differing.iter().take(SHOWN) {
        let show = |l: Option<&&str>| l.map_or("<no line>".to_string(), |l| format!("`{l}`"));
        report.push_str(&format!(
            "line {}:\n  expected {}\n  actual   {}\n",
            i + 1,
            show(want.get(i)),
            show(got.get(i))
        ));
    }
    if differing.len() > SHOWN {
        report.push_str(&format!("… and {} more\n", differing.len() - SHOWN));
    }
    if differing.is_empty() {
        report.push_str("the texts differ only in line endings\n");
    }
    panic!("{report}");
}
