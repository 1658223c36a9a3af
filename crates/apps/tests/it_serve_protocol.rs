//! The `tbs-serve` line protocol, driven through the binary's stdin and
//! stdout: a `gen` with arguments it cannot honour gets an error reply,
//! registers nothing, and the session keeps answering; so does a query
//! whose fields do not fit their types, a line that is not UTF-8, and
//! any line of generated garbage.

use proptest::prelude::*;
use std::io::Write;
use std::process::{Command, Stdio};
use tbs_json::Json;

/// Run one protocol session over `lines` (each sent with a trailing
/// `\n`); return its parsed reply lines and whether the server exited
/// cleanly.
fn session<L: AsRef<[u8]>>(lines: &[L]) -> (Vec<Json>, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tbs-serve"))
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn tbs-serve");
    let mut stdin = child.stdin.take().expect("stdin");
    for line in lines {
        stdin.write_all(line.as_ref()).expect("write request");
        stdin.write_all(b"\n").expect("write request");
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

#[test]
fn a_line_that_is_not_utf8_gets_an_error_and_the_session_goes_on() {
    let lines: [&[u8]; 4] = [
        br#"{"cmd":"stats"}"#,
        b"\xff\xfe bad",
        br#"{"cmd":"stats"}"#,
        br#"{"cmd":"shutdown"}"#,
    ];
    let (replies, clean) = session(&lines);
    assert!(clean, "tbs-serve must exit cleanly");
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert!(refusal(&replies[1]).contains("UTF-8"), "{:?}", replies[1]);
    assert_eq!(replies[2], replies[0], "the session lost its state");
}

/// Requests cut short: a strict prefix of a JSON object is never a
/// valid document, so none of these can register data or shut down.
const REQUESTS: &[&str] = &[
    r#"{"cmd":"gen","name":"g","n":64,"extent":10.0,"seed":1}"#,
    r#"{"cmd":"query","dataset":"g","query":{"type":"sdh","buckets":8,"width":2.0}}"#,
    r#"{"cmd":"batch","dataset":"g","queries":[{"type":"knn","k":2}]}"#,
    r#"{"cmd":"stats"}"#,
    r#"{"cmd":"shutdown"}"#,
];

/// Whether the server skips `line` without a reply.
fn is_blank(line: &[u8]) -> bool {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    std::str::from_utf8(line).is_ok_and(|l| l.trim().is_empty())
}

fn garbage_line() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 0..96),
        0..REQUESTS.len(),
        any::<u64>(),
    )
        .prop_map(|(raw, bytes, req, cut)| {
            if raw {
                bytes.into_iter().filter(|&b| b != b'\n').collect()
            } else {
                let req = REQUESTS[req].as_bytes();
                req[..(cut % req.len() as u64) as usize].to_vec()
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn every_garbage_line_gets_one_reply(lines in prop::collection::vec(garbage_line(), 180..220)) {
        let (replies, clean) = session(&lines);
        prop_assert!(clean, "tbs-serve must exit cleanly");
        let expected = lines.iter().filter(|l| !is_blank(l)).count();
        prop_assert_eq!(replies.len(), expected);
        for reply in &replies {
            refusal(reply);
        }
    }
}
