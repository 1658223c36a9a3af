//! Fuzzing `Json::parse`: arbitrary strings, and valid documents
//! mutated by truncation, stray tokens, nesting past the depth limit,
//! huge exponents, long digit runs, surrogate escapes and duplicate
//! keys. The parser must never panic, and every document it accepts
//! must render compactly and parse back to an equal value.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use tbs_json::Json;

/// The parser's nesting limit.
const MAX_DEPTH: usize = 128;

fn below(rng: &mut TestRng, n: usize) -> usize {
    ((rng.next_u64() as u128 * n as u128) >> 64) as usize
}

fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[below(rng, options.len())]
}

fn digits(rng: &mut TestRng, len: usize) -> String {
    (0..len)
        .map(|_| char::from(b'0' + below(rng, 10) as u8))
        .collect()
}

/// A character that is often JSON syntax, often an escape's raw
/// material, and sometimes anything at all.
fn any_char(rng: &mut TestRng) -> char {
    match below(rng, 4) {
        0 => pick(
            rng,
            &["{", "}", "[", "]", ",", ":", "\"", "\\", "u", "e", "-", "."],
        )
        .chars()
        .next()
        .unwrap(),
        1 => char::from(below(rng, 0x80) as u8),
        2 => pick(
            rng,
            &["é", "中", "🚀", "\u{0}", "\u{1f}", "\u{7f}", "\u{fffd}"],
        )
        .chars()
        .next()
        .unwrap(),
        _ => char::from_u32(below(rng, 0x11_0000) as u32).unwrap_or('\u{fffd}'),
    }
}

fn number(rng: &mut TestRng) -> f64 {
    match below(rng, 4) {
        0 => below(rng, 1000) as f64,
        1 => -(rng.next_u64() as f64),
        2 => (rng.next_u64() as f64) / (1u64 << 40) as f64,
        _ => {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                v
            } else {
                0.5
            }
        }
    }
}

fn text(rng: &mut TestRng) -> String {
    let len = below(rng, 12);
    (0..len).map(|_| any_char(rng)).collect()
}

/// A random valid value, at most `depth` levels deep.
fn value(rng: &mut TestRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match below(rng, kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 1),
        2 => Json::Num(number(rng)),
        3 => Json::Str(text(rng)),
        4 => Json::Arr((0..below(rng, 4)).map(|_| value(rng, depth - 1)).collect()),
        _ => {
            let mut pairs: Vec<(String, Json)> = Vec::new();
            for _ in 0..below(rng, 4) {
                let key = text(rng);
                if pairs.iter().all(|(k, _)| *k != key) {
                    pairs.push((key, value(rng, depth - 1)));
                }
            }
            Json::Obj(pairs)
        }
    }
}

/// A char boundary of `s`, uniformly among all of them.
fn boundary(rng: &mut TestRng, s: &str) -> usize {
    let mut cuts: Vec<usize> = s.char_indices().map(|(i, _)| i).collect();
    cuts.push(s.len());
    cuts[below(rng, cuts.len())]
}

/// Valid documents, mutated or built to probe one parser edge.
struct Documents;

impl Strategy for Documents {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let doc = value(rng, 4);
        let mut s = if rng.next_u64() & 1 == 0 {
            doc.render_compact().unwrap()
        } else {
            doc.render().unwrap()
        };
        match below(rng, 10) {
            0 => {}
            1 => s.truncate(boundary(rng, &s)),
            2 => {
                let at = boundary(rng, &s);
                let token = pick(
                    rng,
                    &[
                        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud800", "1e999", "-",
                        "é", "\u{0}", "nul",
                    ],
                );
                s.insert_str(at, token);
            }
            3 => {
                let at = boundary(rng, &s);
                if let Some(c) = s[at..].chars().next() {
                    s.replace_range(at..at + c.len_utf8(), "");
                }
            }
            4 => {
                // Nesting around the limit, closed or left open.
                let levels = MAX_DEPTH - 4 + below(rng, 10);
                let (open, close) = if rng.next_u64() & 1 == 0 {
                    ("[", "]")
                } else {
                    ("{\"k\":", "}")
                };
                let closed = rng.next_u64() & 1 == 0;
                s = format!(
                    "{}{s}{}",
                    open.repeat(levels),
                    if closed {
                        close.repeat(levels)
                    } else {
                        String::new()
                    }
                );
            }
            5 => {
                let mantissa = pick(rng, &["1", "-1", "0", "9.5", "-0.0"]);
                let sign = pick(rng, &["", "+", "-"]);
                let len = 1 + below(rng, 30);
                s = format!("{mantissa}e{sign}{}", digits(rng, len));
            }
            6 => {
                let len = 1 + below(rng, 3000);
                let sign = pick(rng, &["", "-"]);
                let mut n = format!("{sign}{}", digits(rng, len));
                if rng.next_u64() & 1 == 0 {
                    let len = 1 + below(rng, 3000);
                    n = format!("{n}.{}", digits(rng, len));
                }
                if rng.next_u64() & 1 == 0 {
                    n = format!("{n}e{}", below(rng, 400) as i64 - 200);
                }
                s = n;
            }
            7 => {
                // Lone and paired surrogate escapes, in either order.
                let mut lit = String::from("\"");
                for _ in 0..1 + below(rng, 4) {
                    let hi = 0xD800 + below(rng, 0x400);
                    let lo = 0xDC00 + below(rng, 0x400);
                    lit.push_str(&match below(rng, 5) {
                        0 => format!("\\u{hi:04x}"),
                        1 => format!("\\u{lo:04X}"),
                        2 => format!("\\u{hi:04x}\\u{lo:04x}"),
                        3 => format!("\\u{lo:04x}\\u{hi:04x}"),
                        _ => format!("\\u{hi:04x}\\u{:03x}", below(rng, 0x1000)),
                    });
                }
                if rng.next_u64() & 1 == 0 {
                    lit.push('"');
                }
                s = lit;
            }
            8 => {
                let keys = ["a", "b", "a"];
                let pairs: Vec<String> = (0..1 + below(rng, 4))
                    .map(|i| format!("\"{}\":{}", keys[i % 3], below(rng, 9)))
                    .collect();
                s = format!("{{{}}}", pairs.join(","));
            }
            _ => {
                let at = boundary(rng, &s);
                s.insert(at, any_char(rng));
            }
        }
        s
    }
}

/// Any document `Json::parse` accepts renders and parses back equal.
fn check(input: &str) {
    if let Ok(v) = Json::parse(input) {
        let text = v.render_compact().expect("an accepted value renders");
        let back = Json::parse(&text).expect("a rendered value parses");
        assert_eq!(back, v, "input {input:?}");
    }
}

struct AnyString;

impl Strategy for AnyString {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let len = below(rng, 64);
        (0..len).map(|_| any_char(rng)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_strings_never_panic_and_round_trip(input in AnyString) {
        check(&input);
    }

    #[test]
    fn mutated_documents_never_panic_and_round_trip(input in Documents) {
        check(&input);
    }
}

#[test]
fn generated_documents_reach_every_outcome() {
    let mut rng = TestRng::from_name("coverage");
    let (mut ok, mut err) = (0, 0);
    for _ in 0..500 {
        match Json::parse(&Documents.generate(&mut rng)) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    assert!(ok > 50 && err > 50, "{ok} accepted, {err} refused");
}
