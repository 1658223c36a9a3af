//! Print the paper's tables and figures: every section of
//! `tbs_bench::experiments::SECTIONS`, or only the named ones, in list
//! order.
//!
//! ```text
//! cargo run --release -p tbs-bench --bin all_experiments [NAME…] [--json DIR]
//! ```
//!
//! An unknown name exits non-zero and lists the valid ones. `--json DIR`
//! also writes each section's report as a schema-versioned
//! `<name>.json`. With no name the output is `results/all_experiments.txt`
//! byte for byte (`tests/it_capture.rs` checks it); after a change that
//! is meant to move the paper's numbers, rewrite the capture with
//!
//! ```text
//! cargo run --release -q -p tbs-bench --bin all_experiments > results/all_experiments.txt
//! ```
use std::process::ExitCode;

use tbs_bench::experiments::SECTIONS;
use tbs_bench::report;

fn main() -> ExitCode {
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            args.next();
        } else {
            names.push(a);
        }
    }
    if let Some(bad) = names
        .iter()
        .find(|n| SECTIONS.iter().all(|s| s.name != n.as_str()))
    {
        let valid: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
        eprintln!(
            "all_experiments: unknown section `{bad}`; valid names: {}",
            valid.join(", ")
        );
        return ExitCode::FAILURE;
    }
    let json = report::json_dir();
    for s in SECTIONS
        .iter()
        .filter(|s| names.is_empty() || names.iter().any(|n| n == s.name))
    {
        let rep = match (s.build)() {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("all_experiments: section `{}` failed to build: {e}", s.name);
                return ExitCode::FAILURE;
            }
        };
        print!("{}", s.render(&rep));
        if let Some(dir) = &json {
            match rep.write_json(dir) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("all_experiments: cannot write `{}`: {e}", s.name);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
