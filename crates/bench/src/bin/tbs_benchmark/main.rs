//! `tbs_benchmark` — the system's one benchmark: four workloads, the
//! end-to-end metrics of an untraced run and the per-layer metrics of a
//! traced one. README.md in this directory describes the workloads, the
//! metrics and the trace.
//!
//! ```text
//! tbs_benchmark --workload <dense-2pcf|md-rdf|grid-ls|serve-mix|all>
//!               [--seed N] [--seconds S] [--trace 0|1]
//!               [--json FILE] [--spans FILE]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). The exit code is 0 only when every checked result
//! matched its oracle.

mod batch;
mod dense;
mod gridls;
mod rdf;
mod report;
mod serve;
mod stats;
mod trace;

use batch::RunCfg;
use gpu_sim::DeviceConfig;
use report::{Metrics, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use tbs_json::Json;

const WORKLOADS: [&str; 4] = ["dense-2pcf", "md-rdf", "grid-ls", "serve-mix"];
const USAGE: &str = "usage: tbs_benchmark --workload <dense-2pcf|md-rdf|grid-ls|serve-mix|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--spans FILE]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        json: None,
        spans: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds must be finite and >= 0, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--json" => args.json = Some(PathBuf::from(value)),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Generate the workload's inputs from the seed (not measured), then run
/// it.
fn run_workload(name: &str, seed: u64, tiny: bool, cfg: &RunCfg) -> Outcome {
    match name {
        "dense-2pcf" => batch::run(&dense::Dense2pcf::new(seed, tiny), cfg),
        "md-rdf" => batch::run(&rdf::MdRdf::new(seed, tiny), cfg),
        "grid-ls" => batch::run(&gridls::GridLs::new(seed, tiny), cfg),
        "serve-mix" => serve::ServeMix::new(seed, tiny).run(cfg),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn print_metrics(title: &str, m: &Metrics) {
    for (name, value, unit) in m.iter() {
        println!("# {title} {name} = {value} {unit}");
    }
}

fn run_one(args: &Args) -> ExitCode {
    let device = DeviceConfig::titan_x();
    let facts = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("nproc", stats::nproc())
        .with("exec_threads", device.exec_mode.resolved_threads());
    println!("# run {}", facts.render_compact().expect("finite facts"));
    let cfg = RunCfg {
        seconds: args.seconds,
        trace: args.trace,
        device,
    };
    let mut out = run_workload(&args.workload, args.seed, false, &cfg);
    // Peak resident set of this process, read as the workload ends.
    let rss = stats::peak_rss_mib().unwrap_or(f64::NAN);
    out.e2e.set("rss_mb", rss, "MiB");

    print_metrics("end-to-end", &out.e2e);
    print_metrics("per-layer", &out.layers);
    print_metrics("detail", &out.detail);
    let result = out.result_json(args.trace);
    if args.trace {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| default_spans_path(args));
        let doc = facts
            .clone()
            .with("per_layer", out.layers.to_json())
            .with("detail", out.detail.to_json())
            .with("layer_self_s", layer_self_json(&out))
            .with("spans", trace::to_json(&out.spans));
        write_json(&path, &doc);
    }
    if let Some(path) = &args.json {
        let doc = facts
            .with("end_to_end", out.e2e.to_json())
            .with("detail", out.detail.to_json())
            .with("result", result.clone());
        write_json(path, &doc);
    }
    println!("{}", result.render_compact().expect("finite metrics"));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn layer_self_json(out: &Outcome) -> Json {
    Json::Obj(
        trace::layer_self_s(&out.spans)
            .into_iter()
            .map(|(layer, s)| (layer.to_string(), Json::from(s)))
            .collect(),
    )
}

/// `<target dir>/tbs_benchmark/<workload>-seed<seed>.spans.json`, inside
/// the directory the benchmark was run from.
fn default_spans_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("tbs_benchmark")
        .join(format!("{}-seed{}.spans.json", args.workload, args.seed))
}

fn write_json(path: &PathBuf, doc: &Json) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    let text = doc.render().expect("finite values");
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("tbs_benchmark: wrote {}", path.display());
}

/// Run every workload in a child process of its own, so each reports its
/// own peak memory; the last line merges the children's results with
/// metric names prefixed by the workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        let child = cmd.output().expect("run a workload child process");
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        let line = stdout.lines().last().unwrap_or_default();
        let Ok(doc) = Json::parse(line) else {
            eprintln!("tbs_benchmark: {w} printed no result ({})", child.status);
            correct = false;
            continue;
        };
        correct &= child.status.success() && doc.get("correct") == Some(&Json::Bool(true));
        attempted += doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
        for (name, m) in doc
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            metrics.push((format!("{w}.{name}"), m.clone()));
        }
    }
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", Json::Obj(metrics));
    if let Some(path) = &args.json {
        write_json(path, &result);
    }
    println!("{}", result.render_compact().expect("finite metrics"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("tbs_benchmark: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tbs_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload grid-ls --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("grid-ls", 7, 10.0, true)
        );
        let d = parse_args(&argv("--workload all")).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1, 15.0, false));
        for bad in [
            "--workload nope",
            "--workload md-rdf --trace 2",
            "--workload md-rdf --seconds -1",
            "--workload md-rdf --seed",
            "--workload md-rdf --frobnicate 1",
            "",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    /// Every workload end to end at tiny sizes (N = 512, 40 serve ops),
    /// traced, against its oracle.
    #[test]
    fn all_workloads_run_tiny_and_match_their_oracles() {
        let cfg = RunCfg {
            seconds: 0.0,
            trace: true,
            device: DeviceConfig::titan_x(),
        };
        for w in WORKLOADS {
            let out = run_workload(w, 3, true, &cfg);
            assert_eq!(out.failed, 0, "{w}");
            assert!(out.attempted >= 6, "{w}: {}", out.attempted);
            for &(name, _) in report::END_TO_END.iter().filter(|m| m.0 != "rss_mb") {
                let v = out.e2e.get(name).unwrap_or(0.0);
                assert!(v > 0.0 && v.is_finite(), "{w}: {name} = {v}");
            }
            for (name, value, _) in out.layers.iter() {
                assert!(
                    report::PER_LAYER.iter().any(|&(n, _)| n == name),
                    "{w}: undeclared per-layer metric {name}"
                );
                assert!(value.is_finite(), "{w}: {name} = {value}");
            }
            for name in [
                "gpu_sim.exec.launch_s",
                "gpu_sim.mem.upload_s",
                "cpu.reference_s",
            ] {
                let v = out.layers.get(name).unwrap_or(0.0);
                assert!(v > 0.0, "{w}: {name} = {v}");
            }
            let unattributed = out.layers.get("trace.unattributed_frac").unwrap();
            assert!((0.0..1.0).contains(&unattributed), "{w}: {unattributed}");
            assert!(!out.spans.is_empty(), "{w}");
        }
    }
}
