//! `tbs-serve` — run the 2-body-statistics query service.
//!
//! Two modes:
//!
//! * `tbs-serve --smoke [--n N] [--workers W]` — self-contained service
//!   smoke test: starts a server, submits a mixed batch (2-PCF at many
//!   radii + SDH + count-within), asserts the coalesced answers are
//!   bit-identical to single-query submissions *and* to the CPU
//!   references, exercises the gridded and kNN solo routes and the
//!   re-registration cache invalidation, then shuts down gracefully and
//!   prints a JSON report. Exit code 0 iff everything matched. This is
//!   what CI's `service-smoke` job runs.
//!
//! * `tbs-serve` (no flag) — line protocol on stdin/stdout, one JSON
//!   object per line:
//!
//!   ```text
//!   {"cmd":"gen","name":"d","n":4096,"extent":100.0,"seed":7}
//!   {"cmd":"query","dataset":"d","query":{"type":"sdh","buckets":32,"width":2.0}}
//!   {"cmd":"batch","dataset":"d","queries":[{"type":"pair_counts","radii":[5.0,10.0]}]}
//!   {"cmd":"stats"}
//!   {"cmd":"shutdown"}
//!   ```
//!
//!   `gen` registers `n` ≤ 2^24 uniform points in `[0, extent)^3`; a
//!   larger `n`, or an extent that is not finite and positive as an
//!   `f32`, gets an error reply and registers nothing.
//!
//!   Query objects: `pair_counts {radii}`, `sdh {buckets, width}`,
//!   `count_within {radius, gridded?}`, `knn {k}`. Each non-blank line
//!   gets one JSON reply line (`{"ok":...}` or `{"error":...}`), a line
//!   that is not JSON, or not UTF-8, included.

use std::io::BufRead;
use tbs_apps::serve::{Query, QueryResult, ServeConfig, Server, ServerHandle};
use tbs_json::Json;

fn main() {
    let mut smoke = false;
    let mut n: usize = 4096;
    let mut workers: usize = 2;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--n" => n = args.next().and_then(|v| v.parse().ok()).unwrap_or(n),
            "--workers" => workers = args.next().and_then(|v| v.parse().ok()).unwrap_or(workers),
            "--help" | "-h" => {
                eprintln!("usage: tbs-serve [--smoke] [--n N] [--workers W]");
                return;
            }
            other => {
                eprintln!("unknown flag {other:?} (see --help)");
                std::process::exit(2);
            }
        }
    }
    let cfg = ServeConfig::default().with_workers(workers);
    let code = if smoke {
        Server::run(cfg, |h| run_smoke(h, n))
    } else {
        Server::run(cfg, run_protocol)
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------
// --smoke
// ---------------------------------------------------------------------

/// Panic-free check helper: returns 1 (and prints why) on mismatch.
macro_rules! check {
    ($cond:expr, $($why:tt)*) => {
        if !$cond {
            println!(
                "{}",
                Json::obj()
                    .with("ok", false)
                    .with("failed", format!($($why)*))
                    .render()
                    .expect("render")
            );
            return 1;
        }
    };
}

fn run_smoke(h: ServerHandle, n: usize) -> i32 {
    let pts = tbs_datagen::uniform_points::<3>(n, 100.0, 20160808);
    let radii = [5.0f32, 10.0, 20.0];
    h.register_dataset("pts", pts.clone()).expect("register");

    // The mixed batch: every member coalesces into one sharded sweep.
    let batch = vec![
        Query::PairCounts {
            radii: radii.to_vec(),
        },
        Query::Sdh {
            buckets: 32,
            width: 2.0,
        },
        Query::CountWithin {
            radius: 8.0,
            gridded: false,
        },
    ];
    let batched = match h.submit_batch("pts", batch.clone()) {
        Ok(r) => r,
        Err(e) => {
            check!(false, "batch failed: {e}");
            unreachable!()
        }
    };

    // Oracle 1: single-query submissions must match bit-for-bit.
    for (q, want) in batch.iter().zip(&batched) {
        match h.submit("pts", q.clone()) {
            Ok(got) => check!(&got == want, "batched vs single mismatch for {q:?}"),
            Err(e) => check!(false, "single {q:?} failed: {e}"),
        }
    }

    // Oracle 2: CPU references (exact — counts are integers; the
    // device-semantics reference mirrors the GPU's sqrt-then-compare).
    if let QueryResult::Counts(counts) = &batched[0] {
        for (r, got) in radii.iter().zip(counts) {
            let want = tbs_cpu::count_within_reference(&pts, *r);
            check!(*got == want, "pair count r={r}: got {got}, want {want}");
        }
    } else {
        check!(false, "batched[0] is not Counts");
    }
    if let QueryResult::Histogram(hist) = &batched[1] {
        let spec = tbs_core::histogram::HistogramSpec::new(32, 64.0);
        let want = tbs_cpu::sdh_reference(&pts, spec);
        check!(hist == &want, "SDH mismatch vs CPU reference");
    } else {
        check!(false, "batched[1] is not Histogram");
    }

    // Solo routes: the gridded count agrees with the dense sweep, and
    // kNN agrees with the host reference.
    let dense = batched[2].clone();
    match h.submit(
        "pts",
        Query::CountWithin {
            radius: 8.0,
            gridded: true,
        },
    ) {
        Ok(gridded) => check!(gridded == dense, "gridded vs dense count-within mismatch"),
        Err(e) => check!(false, "gridded count failed: {e}"),
    }
    match h.submit("pts", Query::Knn { k: 4 }) {
        Ok(QueryResult::Knn { neighbors, .. }) => {
            let (want, _) = tbs_apps::knn_reference::<3, 4>(&pts);
            check!(neighbors.len() == want.len(), "kNN result length mismatch");
            for (got, want) in neighbors.iter().zip(&want) {
                check!(got[..] == want[..], "kNN neighbor mismatch");
            }
        }
        Ok(other) => check!(false, "kNN returned {other:?}"),
        Err(e) => check!(false, "kNN failed: {e}"),
    }

    // Cache behavior: the repeat submissions above should have hit the
    // shard cache, and re-registration must invalidate it.
    let s1 = h.stats().expect("stats");
    check!(s1.cache_hits > 0, "expected shard-cache hits on repeats");
    check!(s1.coalesced_queries >= 3, "mixed batch should coalesce");
    h.register_dataset("pts", pts.clone()).expect("re-register");
    h.submit("pts", Query::PairCounts { radii: vec![5.0] })
        .expect("post-invalidation query");
    let s2 = h.stats().expect("stats");
    check!(
        s2.cache_misses > s1.cache_misses,
        "re-registration must evict cached shards"
    );

    let report = Json::obj()
        .with("ok", true)
        .with("n", n as u64)
        .with("queries", s2.queries)
        .with("batches", s2.batches)
        .with("coalesced_queries", s2.coalesced_queries)
        .with("tasks", s2.tasks)
        .with("cache_hits", s2.cache_hits)
        .with("cache_misses", s2.cache_misses)
        .with("cache_hit_rate", s2.cache_hit_rate())
        .with("sim_seconds", s2.sim_seconds);
    println!("{}", report.render().expect("render"));
    0
}

// ---------------------------------------------------------------------
// stdin line protocol
// ---------------------------------------------------------------------

fn run_protocol(h: ServerHandle) -> i32 {
    use std::io::Write;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut input = stdin.lock();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Read bytes, not `String`s: one line that is not UTF-8 gets an
        // error reply and the session goes on.
        match input.read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let raw = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
        let reply = match std::str::from_utf8(raw) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => handle_line(&h, line),
            Err(e) => Some(error(format!("request is not UTF-8: {e}"))),
        };
        match reply {
            Some(reply) => {
                let text = reply.render_compact().expect("render");
                // A hung-up client (EPIPE) is a normal way to end the
                // session, not a crash.
                if writeln!(out, "{text}").and_then(|_| out.flush()).is_err() {
                    break;
                }
            }
            None => return 0, // graceful shutdown
        }
    }
    0
}

/// `None` means "shutdown requested".
fn handle_line(h: &ServerHandle, line: &str) -> Option<Json> {
    let req = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => return Some(error(format!("parse: {e}"))),
    };
    let cmd = match req.get("cmd").and_then(Json::as_str) {
        Some(c) => c.to_string(),
        None => return Some(error("missing \"cmd\"")),
    };
    match cmd.as_str() {
        "gen" => {
            let (name, n, extent, seed) = match gen_args(&req) {
                Ok(args) => args,
                Err(e) => return Some(error(e)),
            };
            let pts = tbs_datagen::uniform_points::<3>(n, extent, seed);
            match h.register_dataset(&name, pts) {
                Ok(generation) => Some(
                    Json::obj()
                        .with("ok", true)
                        .with("dataset", name)
                        .with("n", n as u64)
                        .with("generation", generation),
                ),
                Err(e) => Some(error(e.to_string())),
            }
        }
        "query" => {
            let dataset = match req.get("dataset").and_then(Json::as_str) {
                Some(d) => d.to_string(),
                None => return Some(error("query: missing \"dataset\"")),
            };
            let query = match req.get("query").map(parse_query) {
                Some(Ok(q)) => q,
                Some(Err(e)) => return Some(error(e)),
                None => return Some(error("query: missing \"query\"")),
            };
            match h.submit(&dataset, query) {
                Ok(r) => Some(
                    Json::obj()
                        .with("ok", true)
                        .with("result", render_result(&r)),
                ),
                Err(e) => Some(error(e.to_string())),
            }
        }
        "batch" => {
            let dataset = match req.get("dataset").and_then(Json::as_str) {
                Some(d) => d.to_string(),
                None => return Some(error("batch: missing \"dataset\"")),
            };
            let raw = match req.get("queries").and_then(Json::as_arr) {
                Some(a) => a,
                None => return Some(error("batch: missing \"queries\"")),
            };
            let mut queries = Vec::with_capacity(raw.len());
            for q in raw {
                match parse_query(q) {
                    Ok(q) => queries.push(q),
                    Err(e) => return Some(error(e)),
                }
            }
            match h.submit_batch(&dataset, queries) {
                Ok(rs) => Some(
                    Json::obj()
                        .with("ok", true)
                        .with("results", rs.iter().map(render_result).collect::<Vec<_>>()),
                ),
                Err(e) => Some(error(e.to_string())),
            }
        }
        "stats" => match h.stats() {
            Ok(s) => Some(
                Json::obj()
                    .with("ok", true)
                    .with("datasets", s.datasets)
                    .with("queries", s.queries)
                    .with("batches", s.batches)
                    .with("coalesced_queries", s.coalesced_queries)
                    .with("tasks", s.tasks)
                    .with("cache_hits", s.cache_hits)
                    .with("cache_misses", s.cache_misses)
                    .with("cache_hit_rate", s.cache_hit_rate())
                    .with("sim_seconds", s.sim_seconds)
                    .with("device_bytes", s.device_bytes),
            ),
            Err(e) => Some(error(e.to_string())),
        },
        "shutdown" => None,
        other => Some(error(format!("unknown cmd {other:?}"))),
    }
}

/// The most points one `gen` request may ask for: 2^24 points, 192 MiB
/// of 3-D coordinates.
const MAX_GEN_POINTS: u64 = 1 << 24;

/// A `gen` request's `(name, n, extent, seed)`, checked before anything
/// is allocated: `n` is a whole number of at most [`MAX_GEN_POINTS`],
/// and `extent`, taken as an `f32`, is finite and positive.
fn gen_args(req: &Json) -> Result<(String, usize, f32, u64), String> {
    let name = req
        .get("name")
        .and_then(Json::as_str)
        .ok_or("gen: missing \"name\"")?;
    let n = match req.get("n") {
        None => 4096,
        Some(v) => v.as_u64().filter(|&n| n <= MAX_GEN_POINTS).ok_or(format!(
            "gen: \"n\" must be a whole number of points, at most {MAX_GEN_POINTS}"
        ))?,
    };
    let extent = match req.get("extent") {
        None => 100.0,
        Some(v) => v.as_f64().ok_or("gen: \"extent\" must be a number")? as f32,
    };
    if !(extent.is_finite() && extent > 0.0) {
        return Err(format!(
            "gen: \"extent\" must be finite and positive as an f32, got {extent}"
        ));
    }
    let seed = req.get("seed").and_then(Json::as_u64).unwrap_or(1);
    Ok((name.to_string(), n as usize, extent, seed))
}

/// A required non-negative integer field that must fit a `u32`: a wider
/// value is refused, never wrapped.
fn u32_field(j: &Json, ty: &str, key: &str) -> Result<u32, String> {
    let v = j
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ty}: missing \"{key}\""))?;
    u32::try_from(v).map_err(|_| format!("{ty}: \"{key}\" must be at most {}, got {v}", u32::MAX))
}

fn parse_query(j: &Json) -> Result<Query, String> {
    match j.get("type").and_then(Json::as_str) {
        Some("pair_counts") => {
            let radii = j
                .get("radii")
                .and_then(Json::as_arr)
                .ok_or("pair_counts: missing \"radii\"")?
                .iter()
                .map(|r| r.as_f64().map(|v| v as f32).ok_or("radii must be numbers"))
                .collect::<Result<Vec<f32>, _>>()?;
            Ok(Query::PairCounts { radii })
        }
        Some("sdh") => Ok(Query::Sdh {
            buckets: u32_field(j, "sdh", "buckets")?,
            width: j
                .get("width")
                .and_then(Json::as_f64)
                .ok_or("sdh: missing \"width\"")? as f32,
        }),
        Some("count_within") => Ok(Query::CountWithin {
            radius: j
                .get("radius")
                .and_then(Json::as_f64)
                .ok_or("count_within: missing \"radius\"")? as f32,
            gridded: match j.get("gridded") {
                None => false,
                Some(g) => g
                    .as_bool()
                    .ok_or("count_within: \"gridded\" must be a boolean")?,
            },
        }),
        Some("knn") => Ok(Query::Knn {
            k: u32_field(j, "knn", "k")?,
        }),
        Some(other) => Err(format!("unknown query type {other:?}")),
        None => Err("query object needs a \"type\"".to_string()),
    }
}

fn render_result(r: &QueryResult) -> Json {
    match r {
        QueryResult::Counts(c) => Json::obj().with(
            "counts",
            c.iter().map(|&v| Json::from(v)).collect::<Vec<_>>(),
        ),
        QueryResult::Histogram(h) => Json::obj().with(
            "histogram",
            h.counts()
                .iter()
                .map(|&v| Json::from(v))
                .collect::<Vec<_>>(),
        ),
        QueryResult::Knn {
            neighbors,
            distances,
        } => Json::obj()
            .with(
                "neighbors",
                neighbors
                    .iter()
                    .map(|row| Json::from(row.iter().map(|&v| Json::from(v)).collect::<Vec<_>>()))
                    .collect::<Vec<_>>(),
            )
            .with(
                "distances",
                distances
                    .iter()
                    .map(|row| {
                        Json::from(
                            row.iter()
                                .map(|&v| Json::from(v as f64))
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect::<Vec<_>>(),
            ),
    }
}

fn error(msg: impl Into<String>) -> Json {
    Json::obj().with("ok", false).with("error", msg.into())
}
