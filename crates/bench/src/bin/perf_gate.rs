//! CI perf-regression gate for the experiment harness.
//!
//! Re-runs a reduced-size sweep of the model, functional, and host
//! experiment groups, extracts the gate metrics (see
//! `report::gate::gate_groups`), and diffs them against the committed
//! baselines under `results/baseline/`. Every checked group prints its
//! delta table; any metric outside its tolerance band — or missing
//! entirely — makes the process exit non-zero.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tbs-bench --bin perf_gate               # check against baselines
//! cargo run --release -p tbs-bench --bin perf_gate -- --bless    # rewrite baselines
//! cargo run --release -p tbs-bench --bin perf_gate -- --skip-host  # model+functional only
//! ```
//!
//! `--bless` refuses to write a baseline whose measured value already
//! violates a hard invariant band, so a regression cannot be blessed
//! into the committed reference. Pass `--json DIR` to mirror every
//! underlying report as JSON; on a gate run the reports are always also
//! written to `target/perf-gate/` so CI can upload them as artifacts.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use tbs_bench::report::gate::{
    self, baseline_dir, delta_table, evaluate, metric_map, violations, Baseline, GateGroup,
    GroupKind,
};
use tbs_bench::report::{self, Metric, Report, ReportError};

fn build_group(group: &GateGroup) -> Result<Vec<Report>, ReportError> {
    match group.kind {
        GroupKind::Model => gate::model_reports(),
        GroupKind::Functional => gate::functional_reports(),
        GroupKind::Host => gate::host_reports(),
    }
}

/// Directory where the gate mirrors every report so CI can upload the
/// raw JSON as an artifact when the gate fails.
fn artifact_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/perf-gate"
    ))
}

fn write_reports(reports: &[Report], dir: &PathBuf) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("perf_gate: cannot create {}: {e}", dir.display());
        return;
    }
    for rep in reports {
        if let Err(e) = rep.write_json(dir) {
            eprintln!("perf_gate: cannot write {}.json: {e}", rep.name);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bless = args.iter().any(|a| a == "--bless");
    let skip_host = args.iter().any(|a| a == "--skip-host");

    let dir = baseline_dir();
    let artifacts = artifact_dir();
    let mut failed = false;

    for group in gate::gate_groups() {
        if skip_host && group.kind == GroupKind::Host {
            println!("== group `{}`: skipped (--skip-host)", group.name);
            continue;
        }
        println!(
            "== group `{}` ({} metrics): running reduced sweep...",
            group.name,
            group.specs.len()
        );
        let reports = match build_group(group) {
            Ok(reports) => reports,
            Err(e) => {
                eprintln!("perf_gate: group `{}` failed to build: {e}", group.name);
                failed = true;
                continue;
            }
        };
        write_reports(&reports, &artifacts);
        if let Some(json) = report::json_dir() {
            write_reports(&reports, &json);
        }
        let metrics: BTreeMap<String, Metric> = metric_map(&reports);

        if bless {
            match Baseline::bless(group, &metrics) {
                Ok(baseline) => match baseline.write(&dir) {
                    Ok(path) => println!("   blessed {} -> {}", group.name, path.display()),
                    Err(e) => {
                        eprintln!("perf_gate: cannot write baseline `{}`: {e}", group.name);
                        failed = true;
                    }
                },
                Err(e) => {
                    eprintln!("perf_gate: refusing to bless `{}`: {e}", group.name);
                    failed = true;
                }
            }
            continue;
        }

        let baseline = match Baseline::load(&dir, group.name) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "perf_gate: cannot load baseline `{}` (run with --bless?): {e}",
                    group.name
                );
                failed = true;
                continue;
            }
        };
        let verdicts = evaluate(&baseline, &metrics);
        let bad = violations(&verdicts);
        if bad == 0 {
            println!("   OK: {} metrics within tolerance:", verdicts.len());
        } else {
            failed = true;
            println!(
                "   FAIL: {bad}/{} metrics outside tolerance:",
                verdicts.len()
            );
        }
        print!("{}", delta_table(&verdicts));
    }

    if failed {
        eprintln!();
        eprintln!("perf_gate: FAILED — see delta tables above.");
        eprintln!(
            "perf_gate: raw reports mirrored to {} for artifact upload.",
            artifacts.display()
        );
        ExitCode::FAILURE
    } else {
        println!();
        println!("perf_gate: all groups within tolerance.");
        ExitCode::SUCCESS
    }
}
