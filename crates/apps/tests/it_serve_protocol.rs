//! The `tbs-serve` line protocol, driven through the binary's stdin and
//! stdout: a `gen` with arguments it cannot honour gets an error reply,
//! registers nothing, and the session keeps answering; so does a query
//! whose fields do not fit their types.

use std::io::Write;
use std::process::{Command, Stdio};
use tbs_json::Json;

/// Run one protocol session over `lines`; return its parsed reply lines
/// and whether the server exited cleanly.
fn session(lines: &[&str]) -> (Vec<Json>, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tbs-serve"))
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn tbs-serve");
    let mut stdin = child.stdin.take().expect("stdin");
    for line in lines {
        writeln!(stdin, "{line}").expect("write request");
    }
    drop(stdin);
    let out = child.wait_with_output().expect("wait for tbs-serve");
    let replies = String::from_utf8(out.stdout)
        .expect("utf-8 replies")
        .lines()
        .map(|l| Json::parse(l).expect("reply is JSON"))
        .collect();
    (replies, out.status.success())
}

fn refusal(reply: &Json) -> &str {
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(false),
        "{reply:?}"
    );
    reply
        .get("error")
        .and_then(Json::as_str)
        .expect("error text")
}

#[test]
fn gen_refuses_bad_arguments_and_the_session_keeps_answering() {
    let (replies, clean) = session(&[
        r#"{"cmd":"gen","name":"a","n":16,"extent":0}"#,
        r#"{"cmd":"gen","name":"a","n":16,"extent":-5}"#,
        // Finite as f64, infinite as f32.
        r#"{"cmd":"gen","name":"a","n":16,"extent":1e39}"#,
        r#"{"cmd":"gen","name":"a","n":16,"extent":"wide"}"#,
        // One above the cap (2^24): refused before any allocation.
        r#"{"cmd":"gen","name":"a","n":16777217}"#,
        // 2^53 points: were it allocated, the server would abort.
        r#"{"cmd":"gen","name":"a","n":9007199254740992}"#,
        r#"{"cmd":"gen","name":"a","n":-1}"#,
        r#"{"cmd":"stats"}"#,
        r#"{"cmd":"gen","name":"a","n":16,"extent":10.0,"seed":3}"#,
        r#"{"cmd":"query","dataset":"a","query":{"type":"pair_counts","radii":[5.0]}}"#,
        r#"{"cmd":"stats"}"#,
        // Integers past u32 are refused, never wrapped (2^32 + 4 would
        // answer as 4 buckets, 2^32 + 1 as k = 1).
        r#"{"cmd":"query","dataset":"a","query":{"type":"sdh","buckets":4294967300,"width":4.0}}"#,
        r#"{"cmd":"query","dataset":"a","query":{"type":"knn","k":4294967297}}"#,
        // A non-boolean flag is refused, not read as false.
        r#"{"cmd":"query","dataset":"a","query":{"type":"count_within","radius":5.0,"gridded":"yes"}}"#,
        r#"{"cmd":"stats"}"#,
        r#"{"cmd":"query","dataset":"a","query":{"type":"count_within","radius":5.0,"gridded":true}}"#,
        r#"{"cmd":"shutdown"}"#,
    ]);
    assert!(clean, "tbs-serve must exit cleanly");
    assert_eq!(replies.len(), 16, "{replies:?}");
    for reply in &replies[..4] {
        assert!(refusal(reply).contains("\"extent\""), "{reply:?}");
    }
    for reply in &replies[4..7] {
        assert!(refusal(reply).contains("at most 16777216"), "{reply:?}");
    }
    let datasets = |r: &Json| r.get("datasets").and_then(Json::as_u64);
    assert_eq!(
        datasets(&replies[7]),
        Some(0),
        "a refused gen registered data"
    );

    assert_eq!(replies[8].get("ok").and_then(Json::as_bool), Some(true));
    let counts = replies[9]
        .get("result")
        .and_then(|r| r.get("counts"))
        .and_then(Json::as_arr)
        .expect("pair counts");
    let pts = tbs_datagen::uniform_points::<3>(16, 10.0, 3);
    let want = tbs_cpu::count_within_reference(&pts, 5.0);
    assert_eq!(counts[0].as_u64(), Some(want));
    assert!(
        want < 16 * 15 / 2,
        "the points must be spread, not piled up"
    );
    assert_eq!(datasets(&replies[10]), Some(1));

    assert!(
        refusal(&replies[11]).contains("\"buckets\""),
        "{:?}",
        replies[11]
    );
    assert!(refusal(&replies[12]).contains("\"k\""), "{:?}", replies[12]);
    assert!(
        refusal(&replies[13]).contains("\"gridded\""),
        "{:?}",
        replies[13]
    );
    let queries = |r: &Json| r.get("queries").and_then(Json::as_u64);
    assert_eq!(
        queries(&replies[14]),
        queries(&replies[10]),
        "a refused query reached the service"
    );
    let gridded = replies[15]
        .get("result")
        .and_then(|r| r.get("counts"))
        .and_then(Json::as_arr)
        .expect("gridded count");
    assert_eq!(gridded[0].as_u64(), Some(want));
}

#[test]
fn an_empty_batch_answers_with_no_results() {
    let (replies, clean) = session(&[
        r#"{"cmd":"gen","name":"d","n":16}"#,
        r#"{"cmd":"batch","dataset":"d","queries":[]}"#,
        r#"{"cmd":"batch","dataset":"nope","queries":[]}"#,
        r#"{"cmd":"shutdown"}"#,
    ]);
    assert!(clean, "tbs-serve must exit cleanly");
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert_eq!(replies[1].get("ok").and_then(Json::as_bool), Some(true));
    let results = replies[1].get("results").and_then(Json::as_arr);
    assert_eq!(results.map(<[Json]>::len), Some(0), "{:?}", replies[1]);
    assert!(
        refusal(&replies[2]).contains("unknown dataset"),
        "{:?}",
        replies[2]
    );
}
