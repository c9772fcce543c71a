//! Hostile command lines: any UTF-8 line a client can send.
//!
//! `command::respond` answers every line with a `Reply` and never panics,
//! and `parse_canonical` — the one-pass parse a served query takes, which
//! numbers its variables and encodes its cache key as it goes — agrees
//! with the interning parser on every line: the same error, byte for
//! byte, or the query `canonicalize` makes of the interning parse, with
//! the same key and the request's own spellings. The lines are soups of
//! grammar pieces, punctuation, comments, CRLF, non-ASCII text and
//! integers beyond `i64`, and rules wide enough that variables are
//! numbered through the map past the scan width, with repeats.
//!
//! Mutations the key property catches: a key encoded from the variable
//! indices in any order but the parse's (the head's variables numbered
//! after the body's); a map built at the scan width that forgets the
//! spellings seen before it; a spelling compared by its first byte.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::time::Duration;
use viewplan::containment::{canonical_key, canonical_variable, canonicalize, parse_canonical};
use viewplan::cq::Term;
use viewplan::prelude::*;
use viewplan::serve::respond;
use viewplan::serve::LiveCatalog;

/// Pieces of a command line, well-formed or not.
fn arb_piece() -> impl Strategy<Value = String> {
    const FIXED: &[&str] = &[
        "query ",
        "query deadline-ms=5 ",
        "add-view ",
        "drop-view ",
        "ping",
        "epoch",
        "q(X, Y) :- a(X, Y)",
        "q(X) :- b(X, X)",
        "a(",
        "b(",
        "X",
        "Y",
        "Xé",
        "(",
        ")",
        ", ",
        ":-",
        ":",
        "-",
        ".",
        " ",
        "\t",
        "\r\n",
        "% ünïcödé :- a(X)",
        "# 日本\n",
        "λ",
        "9223372036854775807",
        "-9223372036854775809",
        "123456789012345678901234567890",
        "__c0",
    ];
    prop_oneof![
        6 => (0..FIXED.len()).prop_map(|k| FIXED[k].to_string()),
        3 => "[a-zA-Z_][a-zA-Z0-9_]{0,4}",
        1 => "-?[0-9]{1,3}",
        1 => "\\PC{1,3}",
    ]
}

/// A rule over `width` distinct variables (spelled `V0x`, `V0X`, … so
/// that spellings differ in their last byte), each used at least once in
/// the body, some again; the head names a few of them.
fn arb_wide_rule() -> impl Strategy<Value = String> {
    (20..90usize, prop::collection::vec(0..90usize, 0..40)).prop_map(|(width, repeats)| {
        let name = |i: usize| format!("V{}{}", i / 2, if i.is_multiple_of(2) { 'x' } else { 'X' });
        let mut args: Vec<String> = (0..width).map(name).collect();
        args.extend(repeats.iter().map(|&i| name(i % width)));
        let head: Vec<String> = repeats.iter().take(3).map(|&i| name(i % width)).collect();
        format!("q({}) :- w({}, k, 7)", head.join(", "), args.join(", "))
    })
}

/// A line: a soup of pieces, or a wide rule behind `query `.
fn arb_line() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => prop::collection::vec(arb_piece(), 0..16).prop_map(|pieces| pieces.concat()),
        1 => arb_wide_rule().prop_map(|rule| format!("query {rule}")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn every_line_is_answered_and_the_canonical_parse_is_the_interning_one(line in arb_line()) {
        let src = line.strip_prefix("query ").unwrap_or(&line).trim();
        match (parse_query(src), parse_canonical(src)) {
            (Err(interned), Err(canonical)) => prop_assert_eq!(interned, canonical, "{:?}", src),
            (Ok(query), Ok(parsed)) => {
                let c = canonicalize(&query);
                prop_assert_eq!(&parsed.canonical, &c.canonical, "{:?}", src);
                prop_assert_eq!(&parsed.key, &canonical_key(&query), "{:?}", src);
                prop_assert_eq!(parsed.key.hash64(), c.key.hash64(), "{:?}", src);
                prop_assert_eq!(parsed.names.len(), query.variables().len(), "{:?}", src);
                for (i, name) in parsed.names.iter().enumerate() {
                    prop_assert_eq!(
                        c.from_canonical.get(canonical_variable(i)),
                        Some(Term::var(name)),
                        "{:?}",
                        src
                    );
                }
            }
            (interned, canonical) => {
                return Err(TestCaseError::fail(format!(
                    "{src:?}: the interning parse gave {interned:?}, the canonical one {canonical:?}"
                )));
            }
        }

        let views = parse_views("v1(A, B) :- a(A, B).\nv2(A) :- b(A, A).\nvw(A) :- w(A).").unwrap();
        let catalog = LiveCatalog::new(&views, ServeConfig::default());
        let reply = respond(&line, &catalog, None, Some(Duration::from_millis(200))).to_string();
        // A `query` with a rule behind it (not a usage error, not a
        // deadline) is refused in the interning parser's words.
        if line.starts_with("query ") && !src.is_empty() && !src.starts_with("deadline-ms=") {
            if let Err(e) = parse_query(src) {
                prop_assert_eq!(reply, format!("error code=2 parse error: {e}"), "{:?}", line);
            }
        }
    }
}
